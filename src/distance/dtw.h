#ifndef QSE_DISTANCE_DTW_H_
#define QSE_DISTANCE_DTW_H_

#include <vector>

#include "src/distance/series.h"

namespace qse {

/// Constrained Dynamic Time Warping between two multi-dimensional series,
/// with a Sakoe-Chiba style band.
///
/// * Per-point ground cost: L1 across dimensions (series must have equal
///   dims).
/// * Band semantics (matching [32] as cited by the paper): the warping
///   window half-width is `band_fraction` times the length of the
///   *shorter* series; for unequal lengths the window is centred on the
///   scaled diagonal j ~ i * len(b)/len(a) so the path stays connected.
/// * The value is the accumulated cost of the optimal monotone alignment;
///   it obeys symmetry but NOT the triangle inequality — cDTW is
///   non-metric, which is exactly the regime the paper targets.
///
/// Returns +infinity only if either series is empty.  Aborts if the two
/// series differ in dims.
double ConstrainedDtw(const Series& a, const Series& b,
                      double band_fraction = 0.1);

/// Same, with an absolute window half-width `window` (in samples).  A
/// window of at least max(len(a), len(b)) is unconstrained DTW.  Runs on
/// the active SIMD tier (simd/kernels.h), bit-identically on every tier.
double ConstrainedDtwWindow(const Series& a, const Series& b, long window);

/// Running min/max envelope of a series under a +-window band, per
/// dimension; the ingredient of the LB_Keogh lower bound.
struct DtwEnvelope {
  size_t dims = 1;
  // Flat, point-major like Series: lower[t * dims + d].
  std::vector<double> lower;
  std::vector<double> upper;

  size_t length() const { return dims == 0 ? 0 : lower.size() / dims; }
};

/// Builds the band envelope of `s` with half-width `window` samples.
DtwEnvelope BuildEnvelope(const Series& s, long window);

/// LB_Keogh lower bound: sum over aligned samples of the L1 distance from
/// c to the envelope tube of the query.  Aborts unless the length and
/// dims are equal.
/// For any series c of the same length, LbKeogh(env(q, w), c) <=
/// ConstrainedDtwWindow(q, c, w); the property suite verifies this.
double LbKeogh(const DtwEnvelope& query_envelope, const Series& c);

}  // namespace qse

#endif  // QSE_DISTANCE_DTW_H_
