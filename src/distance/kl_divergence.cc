#include "src/distance/kl_divergence.h"

#include <cassert>
#include <cmath>

namespace qse {

namespace {

/// Normalizes a non-negative histogram with epsilon smoothing.
Vector NormalizeSmoothed(const Vector& p, double epsilon) {
  Vector out(p.size());
  double total = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    assert(p[i] >= 0.0);
    out[i] = p[i] + epsilon;
    total += out[i];
  }
  for (double& v : out) v /= total;
  return out;
}

}  // namespace

double KlDivergence(const Vector& p, const Vector& q, double epsilon) {
  assert(p.size() == q.size());
  assert(!p.empty());
  Vector pn = NormalizeSmoothed(p, epsilon);
  Vector qn = NormalizeSmoothed(q, epsilon);
  double kl = 0.0;
  for (size_t i = 0; i < pn.size(); ++i) {
    kl += pn[i] * std::log(pn[i] / qn[i]);
  }
  return kl < 0.0 ? 0.0 : kl;  // Guard tiny negative rounding artifacts.
}

}  // namespace qse
