#include "src/retrieval/retrieval_backend.h"

namespace qse {

const char* RequestPriorityName(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kHigh:
      return "high";
    case RequestPriority::kNormal:
      return "normal";
    case RequestPriority::kLow:
      return "low";
  }
  return "invalid";
}

Status ValidateRetrievalOptions(const RetrievalOptions& options) {
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (options.p == 0) {
    return Status::InvalidArgument(
        "p must be >= 1: a filter step that keeps no candidates cannot "
        "retrieve anything");
  }
  if (static_cast<size_t>(options.priority) >= kNumPriorityLanes) {
    return Status::InvalidArgument(
        "invalid priority enumerator: " +
        std::to_string(static_cast<size_t>(options.priority)));
  }
  if (options.filter_precision != FilterPrecision::kExact64) {
    const int value = static_cast<int>(options.filter_precision);
    return Status::InvalidArgument(
        "filter_precision " +
        std::string(value >= 0 && value < kNumFilterPrecisions
                        ? FilterPrecisionName(options.filter_precision)
                        : "enumerator " + std::to_string(value)) +
        " is not a scan; only exact64 is (the int8 prescreen of the exact "
        "scan is lossless)");
  }
  return Status::OK();
}

}  // namespace qse
