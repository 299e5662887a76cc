#include "src/distance/dtw.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/distance/simd/dispatch.h"
#include "src/util/logging.h"

namespace qse {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

double ConstrainedDtwWindow(const Series& a, const Series& b, long window) {
  if (a.empty() || b.empty()) return kInf;
  QSE_CHECK(a.dims() == b.dims());
  const long n = static_cast<long>(a.length());
  const long m = static_cast<long>(b.length());
  // A window of max(n, m) already spans every column of every row, so
  // clamping changes no result and keeps `window + 1` from overflowing.
  window = std::clamp<long>(window, 0, std::max(n, m));
  return simd::ActiveKernels()->cdtw_f64(a.values().data(), a.length(),
                                          b.values().data(), b.length(),
                                          a.dims(), window);
}

double ConstrainedDtw(const Series& a, const Series& b,
                      double band_fraction) {
  if (a.empty() || b.empty()) return kInf;
  size_t shorter = std::min(a.length(), b.length());
  long window = static_cast<long>(
      std::ceil(band_fraction * static_cast<double>(shorter)));
  return ConstrainedDtwWindow(a, b, window);
}

DtwEnvelope BuildEnvelope(const Series& s, long window) {
  DtwEnvelope env;
  env.dims = s.dims();
  const long n = static_cast<long>(s.length());
  env.lower.assign(s.values().size(), 0.0);
  env.upper.assign(s.values().size(), 0.0);
  // As in ConstrainedDtwWindow: a window of n already spans the series.
  window = std::clamp<long>(window, 0, n);
  // The DP in ConstrainedDtwWindow widens the band by 1 for connectivity;
  // the envelope must cover at least that reach to stay a lower bound.
  const long w = window + 1;
  const size_t dims = env.dims;
  for (long t = 0; t < n; ++t) {
    long lo = std::max<long>(0, t - w);
    long hi = std::min<long>(n - 1, t + w);
    for (size_t d = 0; d < dims; ++d) {
      double mn = kInf, mx = -kInf;
      const double* v = s.values().data() + static_cast<size_t>(lo) * dims + d;
      for (long u = lo; u <= hi; ++u, v += dims) {
        mn = std::min(mn, *v);
        mx = std::max(mx, *v);
      }
      env.lower[static_cast<size_t>(t) * dims + d] = mn;
      env.upper[static_cast<size_t>(t) * dims + d] = mx;
    }
  }
  return env;
}

double LbKeogh(const DtwEnvelope& query_envelope, const Series& c) {
  QSE_CHECK(query_envelope.dims == c.dims());
  QSE_CHECK(query_envelope.length() == c.length());
  const double* v = c.values().data();
  const double* lower = query_envelope.lower.data();
  const double* upper = query_envelope.upper.data();
  const size_t total = c.values().size();
  // Branch-free: at most one of a, b is positive when lower <= upper,
  // so each step adds exactly the distance to the tube, as a branchy
  // if/else-if would.  Compare-select rather than std::max(x, 0.0): a
  // NaN x must add 0, and a sample outside an all-NaN window's
  // inverted envelope (lower = +inf, upper = -inf) still adds +inf.
  double lb = 0.0;
  for (size_t i = 0; i < total; ++i) {
    const double a = v[i] - upper[i];
    const double b = lower[i] - v[i];
    lb += (a > 0.0 ? a : 0.0) + (b > 0.0 ? b : 0.0);
  }
  return lb;
}

}  // namespace qse
