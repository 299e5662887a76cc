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

/// The int8 prescreen matrix's blocked layout, one layout on every
/// tier: rows in blocks of kI8BlockRows, each block d4 / 4 groups of 64
/// bytes (d4 = d rounded up to a multiple of 4), group g holding dims
/// 4g..4g+3 of each of the block's rows in turn.  Byte (row r, dim j)
/// lives at
///
///     (r / 16) * 16 * d4 + (j / 4) * 64 + (r % 16) * 4 + j % 4,
///
/// so one 64-byte load holds four dims of 16 rows and the kernel scores
/// a whole block per vector, with no horizontal reduction and no per-row
/// tail (the blocked-transposed layout of FAISS's PQ fast scan, André et
/// al., VLDB 2015, and of PDX, Kuffo et al., SIGMOD 2025).
/// EmbeddedDatabase::I8Offset computes the offset.
inline constexpr size_t kI8BlockRows = 16;
inline constexpr size_t kI8GroupDims = 4;

/// How far ahead of the block it scores every tier's prescreen entry
/// prefetches the int8 matrix, in blocks (d = 55: 7 KB).  A DRAM-resident
/// shard streams from memory at about one and a half times the
/// L2-resident kernel's time per row without it; the hardware
/// prefetcher alone does not keep up with the kernel.
inline constexpr size_t kI8PrefetchBlocks = 8;

/// One ISA's kernel table: three float64 filter-scan kernels, the int8
/// prescreen block kernel of the exact weighted-L1 scan, and the cDTW
/// kernel, each under its own contract below.  The float64 kernels
/// stream one database row against a query, accumulating non-negative
/// per-dimension terms, and may stop early — returning any partial sum
/// strictly greater than `abandon` — once the running sum provably
/// exceeds it (partial sums of non-negative terms are monotone, so the
/// true score also exceeds `abandon`).  Pass +infinity for an exact
/// full-row score.
///
/// Determinism contract of the float64 kernels (the reason these
/// signatures exist instead of letting the compiler autovectorize
/// freely):
///
///  * they accumulate in the four-lane discipline of the original
///    scalar code — lane j sums terms j, j+4, j+8, ... in sequence — and
///    reduce as (l0+l1)+(l2+l3), with the d%4 tail folded into lane 0.
///    Completed scores are BIT-IDENTICAL across scalar, AVX2 and
///    AVX-512, and to the pre-dispatch code, on any machine;
///  * no FMA contraction anywhere (the kernel translation units compile
///    with -ffp-contract=off): a multiply feeding an add is two
///    roundings on every path.
///
/// Abandoned rows may return different partials on different ISAs (the
/// check runs every kAbandonBlock dims on whatever the lanes hold), but
/// every such return exceeds `abandon`, which is all callers use it for.
struct KernelTable {
  double (*l1_f64)(const double* q, const double* x, size_t d,
                   double abandon);
  double (*l2_f64)(const double* q, const double* x, size_t d,
                   double abandon);
  double (*wl1_f64)(const double* q, const double* x, const double* w,
                    size_t d, double abandon);

  /// The int8 prescreen of an exact weighted-L1 scan over the n rows of
  /// d bytes stored at `blocks` in the blocked layout (kI8BlockRows),
  /// the first n of `stored` >= n rows the buffer holds from `blocks` on:
  /// for every row r < n the kernel computes
  ///
  ///     S_r = sum_j c[j] * |q[j] - x_r[j]|
  ///
  /// in integer arithmetic, so S_r is EXACT and identical on every tier
  /// (the scalar entry is a plain integer loop, the vector entries sum
  /// the same products with vpmaddwd, 16 rows per zmm or 8 per ymm, in
  /// whatever order).  It then emits, in row order, every row with
  /// S_r <= bound: rows[k] = r and scores[k] = S_r for k below the
  /// returned count.  `rows` and `scores` have room for n entries; those
  /// past the count are unspecified.  INT32_MAX emits every row.
  ///
  /// Reads: the vector tiers load the last, partial block with row
  /// masks, and the scalar tier loops over live rows, so no tier reads a
  /// slot at or past n.  A writer may therefore fill those slots while
  /// the kernel runs, and whatever they hold is never emitted.  Bytes of
  /// the padding dims [d, d4) are read but weigh nothing.  While scoring
  /// a block, every tier prefetches the block kI8PrefetchBlocks further
  /// on if it lies within the `stored` rows' whole blocks, so a caller
  /// that scans a matrix a few blocks per call keeps the stream ahead
  /// across calls; a prefetch reads nothing and forms no pointer past
  /// the buffer.
  ///
  /// Precondition: every q and row byte lies in [-127, 127] (the int8
  /// matrix's range) and sum_j |c[j]| * 254 <= INT32_MAX, so no partial
  /// sum in any order can overflow int32.  QuantizeI8Prescreen
  /// (filter_precision.h) quantizes coefficients under that cap.
  size_t (*prescreen_i8)(const int8_t* q, const int8_t* blocks, size_t n,
                         size_t stored, const int16_t* c, size_t d,
                         int32_t bound, uint32_t* rows, int32_t* scores);

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
  ///
  /// The vector tiers keep the first two rules literally only when a
  /// sample is NaN or +-inf.  When every sample of both series is finite
  /// (checked once per call), every cost is a sum of |x - y| >= +0, +inf
  /// when a difference overflows but never NaN, so every cell is +inf or
  /// a float >= +0 and never NaN or -0.  Over such values min returns the
  /// same bits in any operand order, and best + cost with best == +inf is
  /// +inf, the value the skip leaves.  Those calls take a min order and a
  /// masked add that skip the +inf test (wavefront.h), with the same
  /// result bits.
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
