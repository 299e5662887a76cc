#include "src/distance/dtw.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/util/logging.h"

namespace qse {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// L1 ground cost between two points of `Dims` coordinates (0 = runtime
/// `dims`), summed left to right from 0.0.  The 1- and 2-D forms drop the
/// leading `0.0 +`, which is exact: fabs never yields -0.0.
template <size_t Dims>
inline double PointCost(const double* pa, const double* pb, size_t dims) {
  if constexpr (Dims == 1) {
    return std::fabs(pa[0] - pb[0]);
  } else if constexpr (Dims == 2) {
    return std::fabs(pa[0] - pb[0]) + std::fabs(pa[1] - pb[1]);
  } else {
    double c = 0.0;
    for (size_t d = 0; d < dims; ++d) c += std::fabs(pa[d] - pb[d]);
    return c;
  }
}

/// The two DP rows.  Invariant: every cell of row[r] is +inf except
/// those in [lo[r], hi[r]] (empty when lo > hi), the band the row last
/// wrote — so a row is reset by touching only that band, never the
/// whole row.
struct DtwRows {
  double* row[2] = {nullptr, nullptr};
  long lo[2] = {1, 1};
  long hi[2] = {0, 0};

  /// Resets row r to all +inf outside [keep_lo, keep_hi], which the
  /// caller is about to overwrite, and records that band as written.
  void Reset(int r, long keep_lo, long keep_hi) {
    double* p = row[r];
    for (long j = lo[r]; j <= std::min(hi[r], keep_lo - 1); ++j) p[j] = kInf;
    for (long j = std::max(lo[r], keep_hi + 1); j <= hi[r]; ++j) p[j] = kInf;
    lo[r] = keep_lo;
    hi[r] = keep_hi;
  }
};

/// Rows of up to this many cells live on the caller's stack (8 KiB for
/// both), so cDTW against series of up to 511 samples never allocates.
/// The rows are per call rather than thread_local: growing the static
/// TLS block slowed unrelated multi-threaded serving paths that never
/// run cDTW (perfbench remote_wire: +23% median latency, 4-vCPU Xeon).
constexpr size_t kStackCells = 512;

/// The band-limited DP of ConstrainedDtwWindow over rows of `m + 1`
/// cells, visiting only the band of each row.  Per cell it performs the
/// full-row DP's arithmetic exactly: min of diagonal, then insertion,
/// then deletion; +inf stays +inf; otherwise add the ground cost.
template <size_t Dims>
double BandDtw(const Series& a, const Series& b, long w, DtwRows* s) {
  const long n = static_cast<long>(a.length());
  const long m = static_cast<long>(b.length());
  const size_t dims = a.dims();
  const double* va = a.values().data();
  const double* vb = b.values().data();
  const double slope = static_cast<double>(m) / static_cast<double>(n);

  // Row 0 is the virtual start: 0 at column 0, +inf elsewhere.
  int prev = 0;
  s->Reset(prev, 0, 0);
  s->row[prev][0] = 0.0;
  for (long i = 1; i <= n; ++i) {
    const int cur = 1 - prev;
    long centre = static_cast<long>(std::llround(slope * (i - 1))) + 1;
    long jlo = std::max<long>(1, centre - w);
    long jhi = std::min<long>(m, centre + w);
    s->Reset(cur, jlo, jhi);
    const double* p = s->row[prev];
    double* c = s->row[cur];
    const double* pa = va + static_cast<size_t>(i - 1) * dims;
    const double* pb = vb + static_cast<size_t>(jlo - 1) * dims;
    double left = kInf;  // c[jlo - 1], outside the band
    double diag = p[jlo - 1];
    for (long j = jlo; j <= jhi; ++j, pb += dims) {
      const double up = p[j];
      double best = diag;          // diagonal
      best = std::min(best, up);   // insertion
      best = std::min(best, left); // deletion
      left = best == kInf ? kInf : best + PointCost<Dims>(pa, pb, dims);
      c[j] = left;
      diag = up;
    }
    prev = cur;
  }
  return s->row[prev][static_cast<size_t>(m)];
}

}  // namespace

double ConstrainedDtwWindow(const Series& a, const Series& b, long window) {
  if (a.empty() || b.empty()) return kInf;
  QSE_CHECK(a.dims() == b.dims());
  const long n = static_cast<long>(a.length());
  const long m = static_cast<long>(b.length());
  // A window of max(n, m) already spans every column of every row, so
  // clamping changes no result and keeps `window + 1` from overflowing.
  window = std::clamp<long>(window, 0, std::max(n, m));
  // The band is centred on the scaled diagonal so paths exist even for
  // unequal lengths; widen by 1 to guarantee connectivity after rounding.
  const long w = window + 1;

  const size_t cells = static_cast<size_t>(m) + 1;
  double stack_cells[2 * kStackCells];
  std::vector<double> heap_cells;
  double* base = stack_cells;
  if (cells > kStackCells) {
    heap_cells.resize(2 * cells);
    base = heap_cells.data();
  }
  std::fill(base, base + 2 * cells, kInf);
  DtwRows s{{base, base + cells}};
  switch (a.dims()) {
    case 1:
      return BandDtw<1>(a, b, w, &s);
    case 2:
      return BandDtw<2>(a, b, w, &s);
    default:
      return BandDtw<0>(a, b, w, &s);
  }
}

double ConstrainedDtw(const Series& a, const Series& b,
                      double band_fraction) {
  if (a.empty() || b.empty()) return kInf;
  size_t shorter = std::min(a.length(), b.length());
  long window = static_cast<long>(
      std::ceil(band_fraction * static_cast<double>(shorter)));
  return ConstrainedDtwWindow(a, b, window);
}

double Dtw(const Series& a, const Series& b) {
  long window = static_cast<long>(std::max(a.length(), b.length()));
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
  double lb = 0.0;
  size_t total = c.values().size();
  for (size_t i = 0; i < total; ++i) {
    double v = c.values()[i];
    if (v > query_envelope.upper[i]) {
      lb += v - query_envelope.upper[i];
    } else if (v < query_envelope.lower[i]) {
      lb += query_envelope.lower[i] - v;
    }
  }
  return lb;
}

}  // namespace qse
