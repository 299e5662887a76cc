#ifndef QSE_OBS_METRIC_REGISTRY_H_
#define QSE_OBS_METRIC_REGISTRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace qse {
namespace obs {

/// Stripes per counter/histogram.  Each stripe is one cache line, so
/// concurrent writers on different stripes never bounce a line between
/// cores; readers sum all stripes.  16 covers the worker counts this
/// codebase runs (the admission queue caps at a handful of workers) —
/// more threads than stripes still work, they just share.
inline constexpr size_t kMetricStripes = 16;

/// Destination cache line size.  std::hardware_destructive_interference
/// _size is not available on every toolchain this builds with.
inline constexpr size_t kCacheLineBytes = 64;

namespace internal {
/// The stripe this thread writes.  Assigned round-robin on first use so
/// the first kMetricStripes threads get private stripes.
size_t ThisThreadStripe();
}  // namespace internal

/// A monotonically increasing counter.  Add() is wait-free: one relaxed
/// fetch_add on a thread-striped cache-line-private cell (single-digit
/// nanoseconds, no contention between the first kMetricStripes
/// threads).  Value() sums the stripes — a read is O(kMetricStripes)
/// and sees every Add that happened-before it.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta) {
    cells_[internal::ThisThreadStripe()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(kCacheLineBytes) Cell {
    std::atomic<uint64_t> value{0};
  };
  Cell cells_[kMetricStripes];
};

/// A value that goes up and down (queue depths, live object counts).
/// Single atomic: gauges are written from few places, never on the
/// per-row hot path, so striping would only slow the read side.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A gauge holding a double (rolling-window recall, error fractions —
/// values the integer Gauge cannot carry).  The double travels as its
/// bit pattern inside an atomic<uint64_t>: no std::atomic<double> needed,
/// and a zero bit pattern is exactly 0.0, so default construction reads
/// as zero.  Same write discipline as Gauge: few writers, off the
/// per-row hot path.
class FloatGauge {
 public:
  FloatGauge() = default;
  FloatGauge(const FloatGauge&) = delete;
  FloatGauge& operator=(const FloatGauge&) = delete;

  void Set(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
  }
  double Value() const {
    uint64_t bits = bits_.load(std::memory_order_relaxed);
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

 private:
  std::atomic<uint64_t> bits_{0};
};

/// Point-in-time view of a Histogram: per-bucket counts plus count/sum.
/// bucket_counts[i] counts observations <= boundaries[i]; the final
/// entry (bucket_counts[boundaries.size()]) is the +inf overflow bucket.
struct HistogramSnapshot {
  std::vector<double> boundaries;
  std::vector<uint64_t> bucket_counts;
  uint64_t count = 0;
  double sum = 0;

  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// bucket holding the target rank.  Returns 0 for an empty histogram;
  /// the overflow bucket reports its lower boundary (no upper edge to
  /// interpolate toward).
  double Quantile(double q) const;
};

/// A fixed-boundary histogram.  Record() is wait-free like Counter::
/// Add: binary-search the (immutable) boundaries, then one relaxed
/// fetch_add on this thread's stripe; the running sum uses a CAS loop
/// on a packed double (no std::atomic<double>::fetch_add in C++17).
/// Snapshot() merges the stripes.
class Histogram {
 public:
  /// `boundaries` must be strictly ascending; an implicit +inf bucket
  /// is appended.
  explicit Histogram(std::vector<double> boundaries);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double value);

  HistogramSnapshot Snapshot() const;

  const std::vector<double>& boundaries() const { return boundaries_; }

 private:
  struct alignas(kCacheLineBytes) Cell {
    /// bucket counts (boundaries_.size() + 1 entries), then count, then
    /// the bit-packed double sum — a flat atomic array so one stripe
    /// stays contiguous.
    std::unique_ptr<std::atomic<uint64_t>[]> slots;
  };

  size_t BucketOf(double value) const;

  std::vector<double> boundaries_;
  size_t num_buckets_;  // boundaries_.size() + 1
  Cell cells_[kMetricStripes];
};

/// `count` boundaries starting at `first`, each `factor` times the
/// previous — the standard shape for latency buckets.
std::vector<double> ExponentialBoundaries(double first, double factor,
                                          size_t count);

/// Nanosecond latency boundaries from 1us to ~4s (22 powers of two).
/// Shared default so every stage latency histogram is merge-compatible.
std::vector<double> DefaultLatencyBoundariesNs();

/// A named collection of metrics.  GetCounter/GetGauge/GetHistogram are
/// idempotent: the first call creates, later calls return the same
/// pointer, which stays valid for the registry's lifetime — resolve
/// once at construction time and keep the raw pointer on the hot path.
/// Metric names follow Prometheus conventions; labels are encoded in
/// the name itself, e.g. `qse_build_info{version="...",commit="..."}`.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  FloatGauge* GetFloatGauge(const std::string& name);
  /// The boundaries of the first call win; a later call with different
  /// boundaries returns the existing histogram unchanged.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> boundaries);

  /// Visits every metric in lexicographic name order (deterministic
  /// export).  Exactly one of the pointers is non-null per call.
  void ForEach(const std::function<void(const std::string& name,
                                        const Counter*, const Gauge*,
                                        const FloatGauge*, const Histogram*)>&
                   fn) const;

  /// Process-wide registry for engine-level metrics; leaky singleton
  /// (never destroyed, safe to use from static teardown).  The first
  /// call registers the qse_build_info identity gauge (build_info.h).
  static MetricRegistry& Global();

 private:
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<FloatGauge> float_gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;
};

}  // namespace obs
}  // namespace qse

#endif  // QSE_OBS_METRIC_REGISTRY_H_
