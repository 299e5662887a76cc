#ifndef QSE_DISTANCE_SIMD_KERNELS_H_
#define QSE_DISTANCE_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace qse {
namespace simd {

/// Dimensions per early-abandon check inside every kernel.  Large enough
/// that the lane reduction + branch is amortized over a cache line's
/// worth of work, small enough that hopeless rows are dropped after a
/// fraction of a high-dimensional scan.  A multiple of every kernel's
/// vector step, so the blocked loop never splits a vector iteration.
inline constexpr size_t kAbandonBlock = 64;

/// One ISA's set of filter-scan kernels, plus its cDTW kernel (the last
/// entry, under its own contract).  Every filter kernel streams one
/// database row against a query, accumulating non-negative per-dimension
/// terms, and may stop early — returning any partial sum strictly
/// greater than `abandon` — once its running sum provably exceeds it
/// (partial sums of non-negative terms are monotone, so the true score
/// also exceeds `abandon`).  Pass +infinity for an exact full-row score.
/// The int8 prescreen entry is the exception: it scores a block of rows
/// in exact integer arithmetic and never stops early.
///
/// Determinism contract (the reason these signatures exist instead of
/// letting the compiler autovectorize freely):
///
///  * float64 kernels accumulate in the four-lane discipline of the
///    original scalar code — lane j sums terms j, j+4, j+8, ... in
///    sequence — and reduce as (l0+l1)+(l2+l3), with the d%4 tail folded
///    into lane 0.  Completed scores are BIT-IDENTICAL across scalar,
///    AVX2 and AVX-512, and to the pre-dispatch code, on any machine.
///  * float32 and int8 kernels use a sixteen-lane discipline (lane j
///    sums terms j, j+16, ...; tail into lane 0) reduced by the
///    fold-halves tree r[j] = l[j] + l[j+8], then + r[j+4], + r[j+2],
///    + r[1].  Again bit-identical across ISAs for the same inputs.
///  * No FMA contraction anywhere (the kernel translation units compile
///    with -ffp-contract=off): a multiply feeding an add is two
///    roundings on every path.
///
/// Abandoned rows may return different partials on different ISAs (the
/// check runs every kAbandonBlock dims on whatever the lanes hold), but
/// every such return exceeds `abandon`, which is all callers use it for.
///
/// int8 kernels score symmetric-quantized rows: `wl1_i8` computes
/// sum_j c[j] * |q[j] - x[j]| and `wl2_i8` computes
/// sum_j (c[j] * d) * d with d = (float)|q[j] - x[j]|, where callers
/// fold dequantization scales (and weights) into the float32
/// coefficient array c.  Integer differences are exact; each term pays
/// only the coefficient multiply roundings, identically on every ISA.
struct KernelTable {
  double (*l1_f64)(const double* q, const double* x, size_t d,
                   double abandon);
  double (*l2_f64)(const double* q, const double* x, size_t d,
                   double abandon);
  double (*wl1_f64)(const double* q, const double* x, const double* w,
                    size_t d, double abandon);

  float (*l1_f32)(const float* q, const float* x, size_t d, float abandon);
  float (*l2_f32)(const float* q, const float* x, size_t d, float abandon);
  float (*wl1_f32)(const float* q, const float* x, const float* w, size_t d,
                   float abandon);

  float (*wl1_i8)(const int8_t* q, const int8_t* x, const float* c,
                  size_t d, float abandon);
  float (*wl2_i8)(const int8_t* q, const int8_t* x, const float* c,
                  size_t d, float abandon);

  /// The int8 prescreen of an exact weighted-L1 scan, one block of rows
  /// per call: for the n contiguous rows of d bytes at `rows`,
  ///
  ///     out[r] = sum_j c[j] * |q[j] - rows[r * d + j]|
  ///
  /// in integer arithmetic, so the result is EXACT and identical on
  /// every tier (the scalar entry is a plain integer loop, the vector
  /// entries sum the same products with vpmaddwd in whatever order).
  /// Precondition: every q and row byte lies in [-127, 127] (the int8
  /// matrix's range) and sum_j |c[j]| * 254 <= INT32_MAX, so no partial
  /// sum in any order can overflow int32.  QuantizeI8Prescreen
  /// (filter_precision.h) quantizes coefficients under that cap.
  void (*prescreen_i8)(const int8_t* q, const int8_t* rows, size_t n,
                       const int16_t* c, size_t d, int32_t* out);

  /// Constrained DTW under an L1 ground cost between point-major series
  /// a (n points) and b (m points) of `dims` coordinates each, n, m >= 1,
  /// `window` in [0, max(n, m)]; ConstrainedDtwWindow (dtw.h) documents
  /// the band.  The scalar entry is the row-by-row band DP
  /// (cdtw_rows.h).  The vector tiers run an anti-diagonal wavefront
  /// when n == m and the band fits their registers, and the row DP
  /// otherwise.
  ///
  /// Determinism contract: the result is BIT-IDENTICAL on every tier,
  /// NaN and infinities included, because every in-band cell (i, j)
  /// performs the row DP's operations in its order:
  ///
  ///  * best = min(min(diag, up), left) with std::min's operand order —
  ///    std::min(x, y) returns x unless y < x, which is the vector
  ///    min(y, x) — so a NaN neighbour propagates exactly where it does
  ///    in the row DP;
  ///  * +inf stays +inf: best == +inf yields +inf without adding the
  ///    cost (a NaN cost must not turn an unreachable cell into NaN);
  ///  * otherwise best + cost, the cost being |a_i,0 - b_j,0| +
  ///    |a_i,1 - b_j,1| + ... summed left to right over the dims;
  ///  * cells outside the band, and row 0 / column 0 except the start
  ///    (0, 0) = 0, are +inf;
  ///  * no FMA (there is no multiply to contract, and the kernel TUs
  ///    compile with -ffp-contract=off regardless).
  double (*cdtw_f64)(const double* a, size_t n, const double* b, size_t m,
                     size_t dims, long window);
};

/// The portable reference implementation (plain C++, the bit-exactness
/// baseline).  Always available.
const KernelTable* ScalarKernels();

/// The AVX2 / AVX-512 implementations, or nullptr when the build could
/// not compile them (non-x86 target, QSE_DISABLE_SIMD, or a compiler
/// without the ISA).  Availability here is a BUILD property; whether the
/// running CPU supports the ISA is the dispatcher's job (dispatch.h).
const KernelTable* Avx2Kernels();
const KernelTable* Avx512Kernels();

}  // namespace simd
}  // namespace qse

#endif  // QSE_DISTANCE_SIMD_KERNELS_H_
