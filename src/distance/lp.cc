#include "src/distance/lp.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "src/distance/simd/dispatch.h"

namespace qse {

// The span kernels accumulate in four independent lanes (i % 4) and
// combine as (l0 + l1) + (l2 + l3); since the SIMD-dispatch PR they
// forward to the runtime-selected kernel table, whose every backend
// (scalar, AVX2, AVX-512) holds exactly that lane discipline — see
// src/distance/simd/kernels.h for the bit-identity contract.  The
// early-abandon scan (filter_scorer.cc) uses the same kernels, so kept
// scores stay bit-identical to these full scans.

double L1DistanceSpan(const double* a, const double* b, size_t n) {
  return simd::ActiveKernels()->l1_f64(
      a, b, n, std::numeric_limits<double>::infinity());
}

double SquaredL2DistanceSpan(const double* a, const double* b, size_t n) {
  return simd::ActiveKernels()->l2_f64(
      a, b, n, std::numeric_limits<double>::infinity());
}

double L1Distance(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  return L1DistanceSpan(a.data(), b.data(), a.size());
}

double L2Distance(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  return std::sqrt(SquaredL2DistanceSpan(a.data(), b.data(), a.size()));
}

}  // namespace qse
