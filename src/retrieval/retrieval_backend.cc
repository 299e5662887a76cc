#include "src/retrieval/retrieval_backend.h"

#include <string>
#include <utility>

namespace qse {

Status ValidateRetrievalOptions(const RetrievalOptions& options) {
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (options.p == 0) {
    return Status::InvalidArgument(
        "p must be >= 1: a filter step that keeps no candidates cannot "
        "retrieve anything");
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

StatusOr<std::vector<RetrievalResponse>> RetrievalBackend::RetrieveBatch(
    const std::vector<DxToDatabaseFn>& queries,
    const RetrievalOptions& options) const {
  QSE_RETURN_IF_ERROR(ValidateRetrievalOptions(options));
  std::vector<RetrievalResponse> results;
  results.reserve(queries.size());
  for (const DxToDatabaseFn& dx : queries) {
    StatusOr<RetrievalResponse> r = Retrieve({dx, options, nullptr});
    QSE_RETURN_IF_ERROR(r.status());
    results.push_back(std::move(r).value());
  }
  return results;
}

}  // namespace qse
