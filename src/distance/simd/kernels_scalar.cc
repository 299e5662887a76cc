// The portable reference kernels: plain C++, no intrinsics, compiled
// with -ffp-contract=off wherever the compiler supports it.  The float64
// kernels reproduce the original four-lane span kernels (lp.cc /
// weighted_l1.cc history) operation for operation — they ARE the
// bit-exactness baseline every SIMD backend is tested against.  The int8
// prescreen entry is an exact integer sum, which every tier reproduces
// in any order.  The cDTW
// entry is the row-by-row band DP, which the vector tiers' wavefronts
// must match bit for bit.  See kernels.h for the full contract.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "src/distance/simd/cdtw_rows.h"
#include "src/distance/simd/kernels.h"
#include "src/distance/simd/lanes.h"

namespace qse {
namespace simd {
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

/// The band-limited DP over rows of `m + 1` cells, visiting only the
/// band of each row.  Per cell it performs the full-row DP's arithmetic
/// exactly: min of diagonal, then insertion, then deletion; +inf stays
/// +inf; otherwise add the ground cost.
template <size_t Dims>
double BandDtw(const double* va, long n, const double* vb, long m,
               size_t dims, long w, DtwRows* s) {
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

/// Blocked four-lane float64 scan.  `term(i)` is the non-negative
/// per-dimension term; all accumulators are locals so the compiler can
/// keep the four independent chains in registers.
template <typename TermFn>
double RunF64(size_t d, double abandon, const TermFn& term) {
  double l[kF64Lanes] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  while (i + kAbandonBlock <= d) {
    for (size_t hi = i + kAbandonBlock; i < hi; i += 4) {
      l[0] += term(i);
      l[1] += term(i + 1);
      l[2] += term(i + 2);
      l[3] += term(i + 3);
    }
    double partial = ReduceF64Lanes(l);
    if (partial > abandon) return partial;
  }
  for (; i + 4 <= d; i += 4) {
    l[0] += term(i);
    l[1] += term(i + 1);
    l[2] += term(i + 2);
    l[3] += term(i + 3);
  }
  for (; i < d; ++i) l[0] += term(i);
  return ReduceF64Lanes(l);
}

double L1F64(const double* q, const double* x, size_t d, double abandon) {
  return RunF64(d, abandon,
                [&](size_t i) { return std::fabs(q[i] - x[i]); });
}

double L2F64(const double* q, const double* x, size_t d, double abandon) {
  return RunF64(d, abandon, [&](size_t i) {
    double diff = q[i] - x[i];
    return diff * diff;
  });
}

double Wl1F64(const double* q, const double* x, const double* w, size_t d,
              double abandon) {
  return RunF64(d, abandon,
                [&](size_t i) { return w[i] * std::fabs(q[i] - x[i]); });
}

/// The prescreen block entry: one int32 sum per row.  The caller's cap
/// on sum_j |c[j]| * 254 keeps every partial sum inside int32.
void PrescreenI8(const int8_t* q, const int8_t* rows, size_t n,
                 const int16_t* c, size_t d, int32_t* out) {
  for (size_t r = 0; r < n; ++r, rows += d) {
    int32_t sum = 0;
    for (size_t j = 0; j < d; ++j) {
      int32_t diff = static_cast<int32_t>(q[j]) - rows[j];
      sum += c[j] * (diff < 0 ? -diff : diff);
    }
    out[r] = sum;
  }
}

const KernelTable kScalarTable = {
    L1F64, L2F64, Wl1F64, PrescreenI8, CdtwRows,
};

}  // namespace

double CdtwRows(const double* a, size_t n, const double* b, size_t m,
                size_t dims, long window) {
  // The band is centred on the scaled diagonal so paths exist even for
  // unequal lengths; widen by 1 to guarantee connectivity after rounding.
  const long w = window + 1;
  const size_t cells = m + 1;
  double stack_cells[2 * kStackCells];
  std::vector<double> heap_cells;
  double* base = stack_cells;
  if (cells > kStackCells) {
    heap_cells.resize(2 * cells);
    base = heap_cells.data();
  }
  std::fill(base, base + 2 * cells, kInf);
  DtwRows s{{base, base + cells}};
  const long ln = static_cast<long>(n);
  const long lm = static_cast<long>(m);
  switch (dims) {
    case 1:
      return BandDtw<1>(a, ln, b, lm, dims, w, &s);
    case 2:
      return BandDtw<2>(a, ln, b, lm, dims, w, &s);
    default:
      return BandDtw<0>(a, ln, b, lm, dims, w, &s);
  }
}

const KernelTable* ScalarKernels() { return &kScalarTable; }

}  // namespace simd
}  // namespace qse
