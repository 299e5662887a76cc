#include "src/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <unordered_set>
#include <utility>

namespace qse {
namespace obs {

void RequestTrace::AddSpan(TraceSpan span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void RequestTrace::RecordSpan(const char* name, uint64_t start_ns,
                              uint64_t end_ns, std::vector<TraceArg> args) {
  TraceSpan span;
  span.name = name;
  span.start_ns = start_ns;
  span.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  span.tid = ThisThreadId();
  span.args = std::move(args);
  AddSpan(std::move(span));
}

void RequestTrace::CloseSpan(const char* name, uint64_t start_ns,
                             std::vector<TraceArg> args) {
  RecordSpan(name, start_ns, NowNs(), std::move(args));
}

std::vector<TraceSpan> RequestTrace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

uint32_t RequestTrace::ThisThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

const char* InternString(const std::string& s) {
  // Leaky by design (like the global metric registry): interned names
  // must outlive every trace that references them, including traces
  // still draining during static teardown.
  static std::mutex* mu = new std::mutex;
  static std::unordered_set<std::string>* pool =
      new std::unordered_set<std::string>;
  std::lock_guard<std::mutex> lock(*mu);
  auto it = pool->find(s);
  if (it != pool->end()) return it->c_str();
  if (pool->size() >= kInternPoolCap) return "<intern-pool-full>";
  return pool->insert(s).first->c_str();
}

std::string RequestTrace::ChromeTraceJson() const {
  std::vector<TraceSpan> all = spans();
  // Stable viewer layout: order by start time.
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     return a.start_ns < b.start_ns;
                   });
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceSpan& span : all) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":\"" << span.name
        << "\",\"cat\":\"qse\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.tid
        << ",\"ts\":" << (span.start_ns / 1000.0)
        << ",\"dur\":" << (span.dur_ns / 1000.0);
    if (!span.args.empty()) {
      out << ",\"args\":{";
      for (size_t i = 0; i < span.args.size(); ++i) {
        const TraceArg& arg = span.args[i];
        if (i > 0) out << ",";
        out << "\"" << arg.key << "\":";
        if (arg.str_value != nullptr) {
          out << "\"" << arg.str_value << "\"";
        } else {
          out << arg.int_value;
        }
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
  return out.str();
}

double SpanCoverage(const std::vector<TraceSpan>& spans,
                    const char* denominator_name) {
  const TraceSpan* denom = nullptr;
  for (const TraceSpan& span : spans) {
    if (std::string(span.name) == denominator_name) {
      denom = &span;
      break;
    }
  }
  if (denom == nullptr || denom->dur_ns == 0) return 0.0;
  const uint64_t lo = denom->start_ns;
  const uint64_t hi = denom->start_ns + denom->dur_ns;
  // Union of all other spans clipped to [lo, hi).
  std::vector<std::pair<uint64_t, uint64_t>> intervals;
  for (const TraceSpan& span : spans) {
    if (&span == denom) continue;
    uint64_t s = std::max(span.start_ns, lo);
    uint64_t e = std::min(span.start_ns + span.dur_ns, hi);
    if (e > s) intervals.emplace_back(s, e);
  }
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (const auto& iv : intervals) {
    uint64_t s = std::max(iv.first, cursor);
    if (iv.second > s) {
      covered += iv.second - s;
      cursor = iv.second;
    }
  }
  return static_cast<double>(covered) / static_cast<double>(hi - lo);
}

}  // namespace obs
}  // namespace qse
