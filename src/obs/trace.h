#ifndef QSE_OBS_TRACE_H_
#define QSE_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/timer.h"

namespace qse {
namespace obs {

/// One span argument: a key plus an integer or a static string.  Static
/// strings only (span names and arg values come from string literals or
/// process-lifetime tables like SimdLevelName), so recording never
/// allocates for the value.
struct TraceArg {
  const char* key;
  int64_t int_value = 0;
  const char* str_value = nullptr;  // non-null wins over int_value
};

/// One closed interval of work inside a request, in nanoseconds since
/// the owning trace's epoch.
struct TraceSpan {
  const char* name;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t tid = 0;  // small stable per-thread id, not the OS tid
  std::vector<TraceArg> args;
};

/// Timestamps and spans for one sampled request, from Submit to
/// completion.  Threads append concurrently (each span is recorded
/// once, when it closes) under a mutex — sampled requests are rare, so the
/// lock is not a hot path.  All times come from MonotonicClock, the
/// same source as deadlines, so spans and deadline decisions line up.
class RequestTrace {
 public:
  RequestTrace() : epoch_(MonotonicClock::now()) {}

  /// Nanoseconds since this trace's epoch; the time base for spans.
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            MonotonicClock::now() - epoch_)
            .count());
  }

  MonotonicClock::time_point epoch() const { return epoch_; }

  void AddSpan(TraceSpan span);

  /// A span from start_ns to end_ns on the calling thread.
  void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
                  std::vector<TraceArg> args = {});

  /// Convenience: a span from start_ns to now on the calling thread.
  void CloseSpan(const char* name, uint64_t start_ns,
                 std::vector<TraceArg> args = {});

  std::vector<TraceSpan> spans() const;

  /// Chrome trace_event JSON ("ph":"X" complete events; ts/dur in
  /// microseconds), loadable in Perfetto / chrome://tracing.
  std::string ChromeTraceJson() const;

  /// A small stable id for the calling thread, used as the span tid so
  /// the trace viewer lays concurrent shard scans on separate rows.
  static uint32_t ThisThreadId();

 private:
  MonotonicClock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
};

/// Fraction of the span named `denominator_name` (default "request")
/// covered by the union of all other spans in the trace.  1.0 means no
/// wall-clock between admit and completion is unaccounted for.  Returns
/// 0 when the denominator span is missing or empty.
double SpanCoverage(const std::vector<TraceSpan>& spans,
                    const char* denominator_name = "request");

/// Interns a dynamic string into a process-lifetime pool and returns a
/// stable `const char*` — the bridge between wire-decoded span names
/// (owned std::strings) and TraceSpan's static-string contract.  The
/// pool is capped: past kInternPoolCap distinct strings, a shared
/// placeholder is returned instead, so a hostile peer cannot grow
/// process memory through novel span names.  Thread-safe; interned
/// pointers stay valid for the process lifetime.
inline constexpr size_t kInternPoolCap = 4096;
const char* InternString(const std::string& s);

#ifdef QSE_DISABLE_TRACING
/// Tracing compiled out: recording collapses to nothing, the types stay
/// so call sites need no #ifdefs.
inline uint64_t TraceNowNs(const RequestTrace*) { return 0; }
inline void TraceMark(RequestTrace*, const char*, uint64_t,
                      std::vector<TraceArg> = {}) {}
inline void TraceMarkUntil(RequestTrace*, const char*, uint64_t, uint64_t,
                           std::vector<TraceArg> = {}) {}
inline uint64_t TraceNsAt(const RequestTrace*, MonotonicClock::time_point) {
  return 0;
}
inline void TraceAddSpan(RequestTrace*, TraceSpan) {}
#else
/// Records a span with an explicit start (for intervals whose start was
/// stamped earlier, e.g. queue wait measured from the admit timestamp).
inline void TraceMark(RequestTrace* trace, const char* name,
                      uint64_t start_ns, std::vector<TraceArg> args = {}) {
  if (trace != nullptr) trace->CloseSpan(name, start_ns, std::move(args));
}

/// Records a span with an explicit end, for adjacent stages that share
/// one boundary stamp: the stages then tile the request, and recording
/// one span costs the time of the stage that follows it, not a gap.
inline void TraceMarkUntil(RequestTrace* trace, const char* name,
                           uint64_t start_ns, uint64_t end_ns,
                           std::vector<TraceArg> args = {}) {
  if (trace != nullptr) {
    trace->RecordSpan(name, start_ns, end_ns, std::move(args));
  }
}

/// Records a span built in full, for spans stamped on one thread and
/// recorded on another (the span keeps its own tid).
inline void TraceAddSpan(RequestTrace* trace, TraceSpan span) {
  if (trace != nullptr) trace->AddSpan(std::move(span));
}

/// `t` in `trace`'s time base (0 before its epoch), for a boundary
/// stamped once for a stage histogram and a span alike; 0 for untraced
/// requests, which read no clock for it.
inline uint64_t TraceNsAt(const RequestTrace* trace,
                          MonotonicClock::time_point t) {
  if (trace == nullptr || t < trace->epoch()) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                           trace->epoch())
          .count());
}

/// Null-safe "time since this trace's epoch" for stamping span starts;
/// 0 for untraced requests (and always when tracing is compiled out).
inline uint64_t TraceNowNs(const RequestTrace* trace) {
  return trace != nullptr ? trace->NowNs() : 0;
}
#endif  // QSE_DISABLE_TRACING

}  // namespace obs
}  // namespace qse

#endif  // QSE_OBS_TRACE_H_
