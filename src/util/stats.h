#ifndef QSE_UTIL_STATS_H_
#define QSE_UTIL_STATS_H_

#include <vector>

namespace qse {

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& xs);

/// q-quantile (q in [0, 1]) of `xs` using the nearest-rank (ceil) method:
/// the smallest value v such that at least ceil(q * n) samples are <= v.
/// This matches the paper's accuracy criterion: with p set to the
/// B%-quantile of per-query required candidate counts, at least B% of the
/// queries succeed.  Requires a non-empty input; does not modify `xs`.
double QuantileNearestRank(std::vector<double> xs, double q);

/// Min / max of a non-empty vector.
double Min(const std::vector<double>& xs);
double Max(const std::vector<double>& xs);

}  // namespace qse

#endif  // QSE_UTIL_STATS_H_
