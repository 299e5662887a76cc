#ifndef QSE_DISTANCE_LP_H_
#define QSE_DISTANCE_LP_H_

#include <cstddef>

#include "src/distance/distance.h"

namespace qse {

/// L1 (Manhattan) distance.  Requires equal dimensionality.
double L1Distance(const Vector& a, const Vector& b);

/// L2 (Euclidean) distance.
double L2Distance(const Vector& a, const Vector& b);

/// Span variants over raw contiguous buffers of n doubles — the kernels
/// the SoA filter scan is built on (src/retrieval/filter_scorer.cc).
/// Four-lane accumulation (see lp.cc); the Vector functions above
/// delegate here, so both spellings agree bit for bit.  Distinct names
/// (not overloads) so the Vector versions keep working as
/// DistanceFn<Vector> values.
double L1DistanceSpan(const double* a, const double* b, size_t n);
double SquaredL2DistanceSpan(const double* a, const double* b, size_t n);

}  // namespace qse

#endif  // QSE_DISTANCE_LP_H_
