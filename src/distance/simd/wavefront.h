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
///     is set in `valid` and where best != +inf, `inf` everywhere else.
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
/// cells Finish masks to +inf.
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
  /// place and left is d1 a lane up.
  template <int R, size_t Dims, bool kUpShifted>
  static void Step(Vec (&d2)[R], Vec (&d1)[R], const double* pa,
                   const double* pb, long stride, size_t dims,
                   uint64_t valid) {
    const Vec inf = Isa::Splat(kInf);
    Vec cur[R];
    for (int r = 0; r < R; ++r) {
      Vec up, left;
      if constexpr (kUpShifted) {
        up = Isa::FromBelow(r == 0 ? inf : d1[r - 1], d1[r]);
        left = d1[r];
      } else {
        up = d1[r];
        left = Isa::FromAbove(d1[r], r + 1 < R ? d1[r + 1] : inf);
      }
      // The row DP's order: std::min(std::min(diag, up), left), and
      // std::min(x, y) is the vector Min(y, x).
      Vec best = Isa::Min(up, d2[r]);
      best = Isa::Min(left, best);
      cur[r] = Isa::Finish(
          best, Cost<Dims>(pa + kLanes * r, pb + kLanes * r, stride, dims),
          static_cast<unsigned>(valid >> (kLanes * r)), inf);
    }
    for (int r = 0; r < R; ++r) {
      d2[r] = d1[r];
      d1[r] = cur[r];
    }
  }

  template <int R, size_t Dims>
  static double Run(const double* a, const double* b, long n, size_t dims,
                    long window) {
    const long w = window + 1;
    const long stride = n + 2 * kPad;
    double ap[kWavePlanarCells];
    double bp[kWavePlanarCells];
    for (size_t d = 0; d < dims; ++d) {
      double* pa = ap + d * static_cast<size_t>(stride);
      double* pb = bp + d * static_cast<size_t>(stride);
      for (long t = 0; t < stride; ++t) {
        const bool in = t >= kPad && t < kPad + n;
        const size_t u = static_cast<size_t>(t - kPad);
        pa[t] = in ? a[u * dims + d] : 0.0;
        pb[t] = in ? b[(static_cast<size_t>(n) - 1 - u) * dims + d] : 0.0;
      }
    }

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
    for (long s = 2; s <= 2 * n; ++s) {
      const long lo = s - w >= 0 ? (s - w + 1) / 2 : (s - w) / 2;  // L(s)
      // Rows of diagonal s inside the matrix and the band.
      long ilo = s - n > 1 ? s - n : 1;
      if (lo > ilo) ilo = lo;
      long ihi = s - 1 < n ? s - 1 : n;
      if ((s + w) / 2 < ihi) ihi = (s + w) / 2;
      const uint64_t valid = ((uint64_t{2} << (ihi - lo)) - 1) &
                             ~((uint64_t{1} << (ilo - lo)) - 1);
      const double* pa = ap + kPad + (lo - 1);
      const double* pb = bp + kPad + (n - s + lo);
      if ((s + w) % 2 == 0) {
        Step<R, Dims, true>(d2, d1, pa, pb, stride, dims, valid);
      } else {
        Step<R, Dims, false>(d2, d1, pa, pb, stride, dims, valid);
      }
    }
    // Row n of diagonal 2n is lane w / 2 again.
    for (int r = 0; r < R; ++r) Isa::Store(lanes + kLanes * r, d1[r]);
    return lanes[start];
  }
};

}  // namespace simd
}  // namespace qse

#endif  // QSE_DISTANCE_SIMD_WAVEFRONT_H_
