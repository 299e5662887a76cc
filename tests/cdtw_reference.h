#ifndef QSE_TESTS_CDTW_REFERENCE_H_
#define QSE_TESTS_CDTW_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "src/distance/series.h"
#include "src/util/random.h"

namespace qse {
namespace test {

/// The straightforward full-row cDTW DP the band-only kernel replaced:
/// two heap rows of m + 1 cells, each refilled with +inf per row.  Kept
/// as the one oracle every tier's cDTW kernel must match bit for bit
/// (tests/dtw_test.cc, tests/kernel_parity_test.cc).
inline double ReferenceCdtw(const Series& a, const Series& b, long window) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (a.empty() || b.empty()) return kInf;
  const long n = static_cast<long>(a.length());
  const long m = static_cast<long>(b.length());
  const size_t dims = a.dims();
  if (window < 0) window = 0;
  const double slope = static_cast<double>(m) / static_cast<double>(n);
  const long w = window + 1;
  std::vector<double> prev(static_cast<size_t>(m) + 1, kInf);
  std::vector<double> curr(static_cast<size_t>(m) + 1, kInf);
  prev[0] = 0.0;
  for (long i = 1; i <= n; ++i) {
    std::fill(curr.begin(), curr.end(), kInf);
    long centre = static_cast<long>(std::llround(slope * (i - 1))) + 1;
    long jlo = std::max<long>(1, centre - w);
    long jhi = std::min<long>(m, centre + w);
    for (long j = jlo; j <= jhi; ++j) {
      double best = prev[static_cast<size_t>(j - 1)];
      best = std::min(best, prev[static_cast<size_t>(j)]);
      best = std::min(best, curr[static_cast<size_t>(j - 1)]);
      if (best == kInf) continue;
      const double* pa = a.values().data() + static_cast<size_t>(i - 1) * dims;
      const double* pb = b.values().data() + static_cast<size_t>(j - 1) * dims;
      double c = 0.0;
      for (size_t d = 0; d < dims; ++d) c += std::fabs(pa[d] - pb[d]);
      curr[static_cast<size_t>(j)] = best + c;
    }
    std::swap(prev, curr);
  }
  return prev[static_cast<size_t>(m)];
}

/// A series of `length` points with coordinates uniform in [-2, 2).
inline Series RandomSeries(Rng* rng, size_t dims, size_t length) {
  std::vector<double> v(dims * length);
  for (double& x : v) x = rng->Uniform(-2, 2);
  return Series(dims, std::move(v));
}

inline bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

}  // namespace test
}  // namespace qse

#endif  // QSE_TESTS_CDTW_REFERENCE_H_
