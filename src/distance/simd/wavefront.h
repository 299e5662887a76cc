#ifndef QSE_DISTANCE_SIMD_WAVEFRONT_H_
#define QSE_DISTANCE_SIMD_WAVEFRONT_H_

// Internal to the kernel translation units: the anti-diagonal cDTW
// kernel the vector tiers share.  Each ISA TU instantiates it with a
// lane-operations type from its own anonymous namespace, so every
// instantiation has internal linkage and is compiled with that TU's ISA
// flags alone.  For the same reason this header defines only templates
// over that type and calls no standard-library template: a helper that
// two ISA TUs both emitted out of line could be merged by the linker
// into the copy compiled for the wider ISA.

#include <cstddef>
#include <cstdint>
#include <limits>

#include "src/distance/simd/cdtw_rows.h"

namespace qse {
namespace simd {

/// Doubles in each series' planar copy (on the stack), padding included.
inline constexpr size_t kWavePlanarCells = 1024;

/// The wavefront over lane-operations type `Isa`, which supplies:
///   Vec, kLanes (doubles per Vec), kMaxRegs (the register cap);
///   Splat(x); Load(p), Store(p, v), both unaligned;
///   AbsDiff(x, y) = |x - y|; Add(x, y) = x + y;
///   Min(x, y) = x < y ? x : y, lane by lane (the vector min);
///   FromBelow(below, v): lane t takes v[t - 1], lane 0 below's last;
///   FromAbove(v, above): lane t takes v[t + 1], the last lane above[0];
///   Finish(best, cost, valid, inf): best + cost in the lanes whose bit
///     is set in `valid` and where best != +inf, `inf` everywhere else;
///   AddIn(best, cost, valid, inf): best + cost in the lanes whose bit is
///     set in `valid`, `inf` elsewhere (exact where best + inf = inf);
///   Planar2<kReversed>(p, x, y): the kLanes two-dim points at p split
///     into their x and y coordinates, in point order or reversed.
///
/// Geometry.  The DP runs over anti-diagonals s = i + j.  The band
/// |i - j| <= w (w = window + 1; equal lengths put the row DP's band
/// centre on j = i) holds at most w + 1 cells of a diagonal.  Lane t of
/// diagonal s is row i = L(s) + t, column s - i, with L(s) =
/// ceil((s - w) / 2), so:
///   * the diagonal neighbour (i - 1, j - 1) is lane t of diagonal s - 2;
///   * up (i - 1, j) and left (i, j - 1) are lanes of diagonal s - 1,
///     one of them a lane away (which one alternates with the parity of
///     s + w, the step where L advances).
/// Each diagonal's serial dependency is thus one register shift, not a
/// chain through every cell.  a is copied planar and b planar and
/// reversed, so the samples of consecutive lanes load contiguously;
/// both copies are zero-padded for lanes outside the matrix, whose
/// cells Finish (or AddIn) masks to +inf.
///
/// Two sweeps.  Any sample NaN or +-inf: every cell runs the row DP's
/// operations in its order (kernels.h), through Finish.  Every sample
/// finite: then every cost is a sum of |x - y| >= +0 (an overflowing
/// difference is +inf, never NaN), so every cell is +inf or a float
/// >= +0, never NaN or -0.  Min over such values is one value in any
/// order, and +inf + cost is +inf, the row DP's skip.  So the finite
/// sweep folds min(diag, the in-place neighbour) while the shift is in
/// flight and adds the cost in one masked op: the same bits, with only a
/// min and an add waiting on the shift, where the exact-order sweep can
/// wait on two mins and then a compare and a blend.
template <typename Isa>
struct Wavefront {
  using Vec = typename Isa::Vec;
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr long kLanes = Isa::kLanes;
  /// Lanes outside the matrix reach at most this far past either end.
  static constexpr long kPad = Isa::kLanes * Isa::kMaxRegs;

  /// The kernel-table entry: the wavefront when n == m and the band and
  /// the planar copies fit, the row DP otherwise.
  static double Cdtw(const double* a, size_t n, const double* b, size_t m,
                     size_t dims, long window) {
    // w + 1 = window + 2 lanes, in registers of kLanes.
    const long regs = (window + 1 + kLanes) / kLanes;
    if (n != m || regs > Isa::kMaxRegs ||
        dims * (n + 2 * static_cast<size_t>(kPad)) > kWavePlanarCells) {
      return CdtwRows(a, n, b, m, dims, window);
    }
    return ByRegs<1>(a, b, static_cast<long>(n), dims, window, regs);
  }

 private:
  template <int R>
  static double ByRegs(const double* a, const double* b, long n,
                       size_t dims, long window, long regs) {
    if constexpr (R < Isa::kMaxRegs) {
      if (regs > R) return ByRegs<R + 1>(a, b, n, dims, window, regs);
    }
    switch (dims) {
      case 1:
        return Run<R, 1>(a, b, n, 1, window);
      case 2:
        return Run<R, 2>(a, b, n, 2, window);
      default:
        return Run<R, 0>(a, b, n, dims, window);
    }
  }

  /// The L1 cost of kLanes cells whose a-samples start at `pa` and whose
  /// b-samples start at `pb`, summed left to right over the dims (planar
  /// rows `stride` apart).  Dims == 0: runtime `dims`.
  template <size_t Dims>
  static Vec Cost(const double* pa, const double* pb, long stride,
                  size_t dims) {
    const size_t nd = Dims == 0 ? dims : Dims;
    Vec c = Isa::AbsDiff(Isa::Load(pa), Isa::Load(pb));
    for (size_t d = 1; d < nd; ++d) {
      pa += stride;
      pb += stride;
      c = Isa::Add(c, Isa::AbsDiff(Isa::Load(pa), Isa::Load(pb)));
    }
    return c;
  }

  /// One diagonal from the previous two, d2 (s - 2) and d1 (s - 1); on
  /// return d2 holds s - 1 and d1 holds s.  kUpShifted: L advanced, so up
  /// is d1 a lane down and left is d1 in place; otherwise up is d1 in
  /// place and left is d1 a lane up.  kFinite: every sample is finite
  /// (the sweep's contract, above), so min runs in any order and +inf
  /// absorbs any cost.
  template <int R, size_t Dims, bool kUpShifted, bool kFinite>
  static void Step(Vec (&d2)[R], Vec (&d1)[R], const double* pa,
                   const double* pb, long stride, size_t dims,
                   uint64_t valid) {
    const Vec inf = Isa::Splat(kInf);
    Vec cur[R];
    for (int r = 0; r < R; ++r) {
      const Vec cost =
          Cost<Dims>(pa + kLanes * r, pb + kLanes * r, stride, dims);
      const unsigned in_band = static_cast<unsigned>(valid >> (kLanes * r));
      Vec shifted;
      if constexpr (kUpShifted) {
        shifted = Isa::FromBelow(r == 0 ? inf : d1[r - 1], d1[r]);
      } else {
        shifted = Isa::FromAbove(d1[r], r + 1 < R ? d1[r + 1] : inf);
      }
      if constexpr (kFinite) {
        // diag and the in-place neighbour are ready a diagonal early, so
        // only one min waits on the shift.
        const Vec best = Isa::Min(shifted, Isa::Min(d1[r], d2[r]));
        cur[r] = Isa::AddIn(best, cost, in_band, inf);
      } else {
        const Vec up = kUpShifted ? shifted : d1[r];
        const Vec left = kUpShifted ? d1[r] : shifted;
        // The row DP's order: std::min(std::min(diag, up), left), and
        // std::min(x, y) is the vector Min(y, x).
        Vec best = Isa::Min(up, d2[r]);
        best = Isa::Min(left, best);
        cur[r] = Isa::Finish(best, cost, in_band, inf);
      }
    }
    for (int r = 0; r < R; ++r) {
      d2[r] = d1[r];
      d1[r] = cur[r];
    }
  }

  /// Copies a planar and b planar and reversed into `ap` / `bp` (rows
  /// `stride` apart, samples from kPad on) and zeroes the pads.  Dims ==
  /// 0: runtime `dims`.
  template <size_t Dims>
  static void CopyPlanar(const double* a, const double* b, long n,
                         size_t dims, long stride, double* ap, double* bp) {
    const size_t nd = Dims == 0 ? dims : Dims;
    for (size_t d = 0; d < nd; ++d) {
      double* pa = ap + d * static_cast<size_t>(stride);
      double* pb = bp + d * static_cast<size_t>(stride);
      for (long t = 0; t < kPad; ++t) {
        pa[t] = 0.0;
        pb[t] = 0.0;
        pa[kPad + n + t] = 0.0;
        pb[kPad + n + t] = 0.0;
      }
    }
    if constexpr (Dims == 2) {
      if (n >= kLanes) {
        // kLanes points a vector, the last block overlapping the one
        // before it when kLanes does not divide n.
        for (long u = 0;; u += kLanes) {
          if (u > n - kLanes) u = n - kLanes;
          Vec x, y;
          Isa::template Planar2<false>(a + 2 * u, &x, &y);
          Isa::Store(ap + kPad + u, x);
          Isa::Store(ap + stride + kPad + u, y);
          Isa::template Planar2<true>(b + 2 * (n - kLanes - u), &x, &y);
          Isa::Store(bp + kPad + u, x);
          Isa::Store(bp + stride + kPad + u, y);
          if (u == n - kLanes) return;
        }
      }
    }
    // One dim at a time, so the stores run contiguously (and dims 1
    // vectorizes).
    for (size_t d = 0; d < nd; ++d) {
      double* pa = ap + d * static_cast<size_t>(stride) + kPad;
      double* pb = bp + d * static_cast<size_t>(stride) + kPad;
      for (long u = 0; u < n; ++u) {
        pa[u] = a[static_cast<size_t>(u) * nd + d];
        pb[u] = b[static_cast<size_t>(n - 1 - u) * nd + d];
      }
    }
  }

  /// Whether all `len` doubles of a and of b are finite: x - x is +0 for
  /// a finite x and NaN otherwise, and a NaN survives every later add.
  /// The last vector overlaps the one before it when kLanes does not
  /// divide `len`; shorter inputs go sample by sample.
  static bool AllFinite(const double* a, const double* b, size_t len) {
    if (len < static_cast<size_t>(kLanes)) {
      double z = 0.0;
      for (size_t i = 0; i < len; ++i) z += (a[i] - a[i]) + (b[i] - b[i]);
      return z == 0.0;
    }
    Vec za = Isa::Splat(0.0);
    Vec zb = za;
    for (size_t i = 0; i + kLanes < len; i += kLanes) {
      za = Isa::Add(za, Isa::AbsDiff(Isa::Load(a + i), Isa::Load(a + i)));
      zb = Isa::Add(zb, Isa::AbsDiff(Isa::Load(b + i), Isa::Load(b + i)));
    }
    const size_t last = len - kLanes;
    za = Isa::Add(za, Isa::AbsDiff(Isa::Load(a + last), Isa::Load(a + last)));
    zb = Isa::Add(zb, Isa::AbsDiff(Isa::Load(b + last), Isa::Load(b + last)));
    double z[kLanes];
    Isa::Store(z, Isa::Add(za, zb));
    double sum = 0.0;
    for (long t = 0; t < kLanes; ++t) sum += z[t];
    return sum == 0.0;
  }

  /// Diagonals 2 .. 2n.  Those in [w + 2, 2n - w] touch no edge of the
  /// matrix: all of rows L(s) = (s - w + 1) / 2 .. (s + w) / 2 are in
  /// the band, so `valid` is lanes 0..w when s + w is even and 0..w - 1
  /// when it is odd.  The others work out their rows in full.
  template <int R, size_t Dims, bool kFinite>
  static void Sweep(Vec (&d2)[R], Vec (&d1)[R], const double* ap,
                    const double* bp, long n, size_t dims, long w,
                    long stride) {
    // Diagonal s with lane 0 on row lo = L(s).
    auto diagonal = [&](long s, long lo, uint64_t valid) {
      const double* pa = ap + kPad + (lo - 1);
      const double* pb = bp + kPad + (n - s + lo);
      if ((s + w) % 2 == 0) {
        Step<R, Dims, true, kFinite>(d2, d1, pa, pb, stride, dims, valid);
      } else {
        Step<R, Dims, false, kFinite>(d2, d1, pa, pb, stride, dims, valid);
      }
    };
    auto edge = [&](long s) {
      const long lo = s - w >= 0 ? (s - w + 1) / 2 : (s - w) / 2;
      long ilo = s - n > 1 ? s - n : 1;
      if (lo > ilo) ilo = lo;
      long ihi = s - 1 < n ? s - 1 : n;
      if ((s + w) / 2 < ihi) ihi = (s + w) / 2;
      diagonal(s, lo,
               ((uint64_t{2} << (ihi - lo)) - 1) &
                   ~((uint64_t{1} << (ilo - lo)) - 1));
    };
    long s = 2;
    for (; s <= 2 * n && s < w + 2; ++s) edge(s);
    const uint64_t even = (uint64_t{2} << w) - 1;
    const uint64_t odd = (uint64_t{1} << w) - 1;
    for (; s <= 2 * n - w; ++s) {
      diagonal(s, (s - w + 1) / 2, (s + w) % 2 == 0 ? even : odd);
    }
    for (; s <= 2 * n; ++s) edge(s);
  }

  template <int R, size_t Dims>
  static double Run(const double* a, const double* b, long n, size_t dims,
                    long window) {
    const long w = window + 1;
    const long stride = n + 2 * kPad;
    double ap[kWavePlanarCells];
    double bp[kWavePlanarCells];
    CopyPlanar<Dims>(a, b, n, dims, stride, ap, bp);
    const bool finite = AllFinite(a, b, static_cast<size_t>(n) * dims);

    // Diagonal 0 holds only the virtual start (0, 0) = 0, at lane w / 2;
    // diagonal 1 is all +inf.
    const long start = w / 2;
    double lanes[kLanes * R];
    for (long t = 0; t < kLanes * R; ++t) {
      lanes[t] = t == start ? 0.0 : kInf;
    }
    Vec d2[R], d1[R];
    for (int r = 0; r < R; ++r) {
      d2[r] = Isa::Load(lanes + kLanes * r);
      d1[r] = Isa::Splat(kInf);
    }
    if (finite) {
      Sweep<R, Dims, true>(d2, d1, ap, bp, n, dims, w, stride);
    } else {
      Sweep<R, Dims, false>(d2, d1, ap, bp, n, dims, w, stride);
    }
    // Row n of diagonal 2n is lane w / 2 again.
    for (int r = 0; r < R; ++r) Isa::Store(lanes + kLanes * r, d1[r]);
    return lanes[start];
  }
};

}  // namespace simd
}  // namespace qse

#endif  // QSE_DISTANCE_SIMD_WAVEFRONT_H_
