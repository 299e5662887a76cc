#ifndef QSE_DISTANCE_KL_DIVERGENCE_H_
#define QSE_DISTANCE_KL_DIVERGENCE_H_

#include "src/distance/distance.h"

namespace qse {

/// Kullback-Leibler divergence KL(p || q) over discrete distributions.
/// Inputs are treated as unnormalized non-negative histograms and are
/// normalized internally; `epsilon` smoothing keeps the value finite when q
/// has zero bins.  KL is asymmetric and non-metric — one of the distance
/// measures the paper's introduction names as motivating this work.
double KlDivergence(const Vector& p, const Vector& q, double epsilon = 1e-10);

}  // namespace qse

#endif  // QSE_DISTANCE_KL_DIVERGENCE_H_
