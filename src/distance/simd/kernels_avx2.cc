// AVX2 backend.  The whole translation unit is compiled with -mavx2 and
// -ffp-contract=off (CMake sets both on this file alone), and the
// intrinsics body is additionally guarded by QSE_BUILD_AVX2 so the
// getter still links — returning nullptr — on builds that cannot or
// choose not to compile it.
//
// Bit-identity with the scalar reference (kernels_scalar.cc) falls out
// of the register shape: a 4-wide float64 accumulator advanced 4 terms
// per step IS the scalar four-lane discipline.  Lanes are reduced
// through the lanes.h tree's additions verbatim — in registers on the
// hot path (ReduceF64Acc), never through hadd or permute-based shortcuts
// with different rounding orders; the shared scalar helper runs only
// when a tail folds into lane 0.
//
// The cDTW entry is the shared anti-diagonal wavefront (wavefront.h)
// over ymm lanes.
#include "src/distance/simd/kernels.h"

#if defined(QSE_BUILD_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "src/distance/simd/lanes.h"
#include "src/distance/simd/wavefront.h"

namespace qse {
namespace simd {
namespace {

inline __m256d AbsPd(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

/// In-register ReduceF64Lanes: every vector add performs the same IEEE
/// additions lane-for-lane as lanes.h's (l0+l1)+(l2+l3), so the
/// abandon-check path never round-trips the accumulator through the
/// stack (that store-to-load round trip dominated per-row cost).
inline double ReduceF64Acc(__m256d acc) {
  __m128d lo = _mm256_castpd256_pd128(acc);    // [l0, l1]
  __m128d hi = _mm256_extractf128_pd(acc, 1);  // [l2, l3]
  __m128d pairs =
      _mm_add_pd(_mm_unpacklo_pd(lo, hi), _mm_unpackhi_pd(lo, hi));
  return _mm_cvtsd_f64(_mm_add_sd(pairs, _mm_unpackhi_pd(pairs, pairs)));
}

/// Four-lane float64 driver.  `vterm(i)` yields the terms for dims
/// i..i+3 as one vector; `sterm(i)` is the matching scalar term for the
/// d % 4 tail, which folds into lane 0 exactly like the reference.
template <typename VecTerm, typename ScalTerm>
double RunF64(size_t d, double abandon, const VecTerm& vterm,
              const ScalTerm& sterm) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  while (i + kAbandonBlock <= d) {
    for (size_t hi = i + kAbandonBlock; i < hi; i += 4) {
      acc = _mm256_add_pd(acc, vterm(i));
    }
    double partial = ReduceF64Acc(acc);
    if (partial > abandon) return partial;
  }
  for (; i + 4 <= d; i += 4) {
    acc = _mm256_add_pd(acc, vterm(i));
  }
  if (i == d) return ReduceF64Acc(acc);
  alignas(32) double l[kF64Lanes];
  _mm256_store_pd(l, acc);
  for (; i < d; ++i) l[0] += sterm(i);
  return ReduceF64Lanes(l);
}

double L1F64(const double* q, const double* x, size_t d, double abandon) {
  return RunF64(
      d, abandon,
      [&](size_t i) {
        return AbsPd(_mm256_sub_pd(_mm256_loadu_pd(q + i),
                                   _mm256_loadu_pd(x + i)));
      },
      [&](size_t i) { return std::fabs(q[i] - x[i]); });
}

double L2F64(const double* q, const double* x, size_t d, double abandon) {
  return RunF64(
      d, abandon,
      [&](size_t i) {
        __m256d diff =
            _mm256_sub_pd(_mm256_loadu_pd(q + i), _mm256_loadu_pd(x + i));
        return _mm256_mul_pd(diff, diff);
      },
      [&](size_t i) {
        double diff = q[i] - x[i];
        return diff * diff;
      });
}

double Wl1F64(const double* q, const double* x, const double* w, size_t d,
              double abandon) {
  return RunF64(
      d, abandon,
      [&](size_t i) {
        return _mm256_mul_pd(_mm256_loadu_pd(w + i),
                             AbsPd(_mm256_sub_pd(_mm256_loadu_pd(q + i),
                                                 _mm256_loadu_pd(x + i))));
      },
      [&](size_t i) { return w[i] * std::fabs(q[i] - x[i]); });
}

/// kCompress[m] lists the lanes of the set bits of the 8-bit mask m in
/// ascending order, one byte each: the permutation that moves an 8-row
/// half's emitted rows to its front.
constexpr std::array<std::array<uint8_t, 8>, 256> MakeCompressTable() {
  std::array<std::array<uint8_t, 8>, 256> table{};
  for (uint32_t m = 0; m < 256; ++m) {
    uint8_t slot = 0;
    for (uint8_t lane = 0; lane < 8; ++lane) {
      if (m & (1u << lane)) table[m][slot++] = lane;
    }
  }
  return table;
}
alignas(64) constexpr std::array<std::array<uint8_t, 8>, 256> kCompress =
    MakeCompressTable();

/// Emits the rows of one 8-row half whose sum in `acc` is within the
/// bound, `live` masking slots at or past n: a compare and a movemask
/// give the half's emit mask, and kCompress's permutation moves those
/// rows to the front of the stored lanes.  kWhole stores all eight lanes
/// (the caller guarantees room: at most `first` rows were emitted
/// before, and first + 8 <= n); the last block's halves store exactly
/// the emitted ones.  `row` holds the half's row numbers.
template <bool kWhole>
inline size_t EmitHalf(__m256i acc, __m256i bound_v, unsigned live,
                       __m256i row, uint32_t* rows, int32_t* scores) {
  const unsigned above = static_cast<unsigned>(_mm256_movemask_ps(
      _mm256_castsi256_ps(_mm256_cmpgt_epi32(acc, bound_v))));
  const unsigned keep = ~above & live;
  const __m256i perm = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
      reinterpret_cast<const __m128i*>(kCompress[keep].data())));
  const __m256i kept_rows = _mm256_permutevar8x32_epi32(row, perm);
  const __m256i kept_scores = _mm256_permutevar8x32_epi32(acc, perm);
  const int kept = __builtin_popcount(keep);
  if constexpr (kWhole) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(rows), kept_rows);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(scores), kept_scores);
  } else {
    const __m256i out = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(kept), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    _mm256_maskstore_epi32(reinterpret_cast<int*>(rows), out, kept_rows);
    _mm256_maskstore_epi32(scores, out, kept_scores);
  }
  return static_cast<size_t>(kept);
}

/// Adds group g's products to the half's per-row sums: |q - x| as
/// unsigned bytes against the broadcast query dword, split into the
/// even and odd bytes of its 16-bit lanes by a mask and a shift, then
/// two vpmaddwd against the broadcast coefficient pairs.
inline __m256i AddGroup(__m256i acc, __m256i xb, const PrescreenGroup& g) {
  const __m256i qb = _mm256_set1_epi32(g.q);
  const __m256i diff =
      _mm256_sub_epi8(_mm256_max_epi8(qb, xb), _mm256_min_epi8(qb, xb));
  acc = _mm256_add_epi32(
      acc, _mm256_madd_epi16(_mm256_and_si256(diff, _mm256_set1_epi16(0xff)),
                             _mm256_set1_epi32(g.c_even)));
  return _mm256_add_epi32(acc, _mm256_madd_epi16(_mm256_srli_epi16(diff, 8),
                                                 _mm256_set1_epi32(g.c_odd)));
}

/// The prescreen entry, a 16-row block as two 8-row halves of ymm
/// lanes.  Whole blocks load plainly; the last, partial block loads
/// each half with vpmaskmovd under its live rows, so no slot at or past
/// n is read.  Each group of a whole block prefetches its line of the
/// block kI8PrefetchBlocks ahead (I8BlockAhead); a partial last block
/// prefetches nothing.
size_t PrescreenI8(const int8_t* q, const int8_t* blocks, size_t n,
                   size_t stored, const int16_t* c, size_t d, int32_t bound,
                   uint32_t* rows, int32_t* scores) {
  const PrescreenGroups ops(q, c, d);
  const size_t block_bytes = kI8BlockRows * kI8GroupDims * ops.size();
  const __m256i bound_v = _mm256_set1_epi32(bound);
  const __m256i eight = _mm256_set1_epi32(8);
  __m256i row = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  size_t count = 0;
  size_t first = 0;
  for (; first + kI8BlockRows <= n; first += kI8BlockRows) {
    const int8_t* ahead = I8BlockAhead(blocks, first, stored, block_bytes);
    __m256i lo = _mm256_setzero_si256();
    __m256i hi = _mm256_setzero_si256();
    for (size_t g = 0; g < ops.size(); ++g) {
      PrefetchI8Group(ahead, g);
      const __m256i* x = reinterpret_cast<const __m256i*>(blocks + 64 * g);
      lo = AddGroup(lo, _mm256_loadu_si256(x), ops[g]);
      hi = AddGroup(hi, _mm256_loadu_si256(x + 1), ops[g]);
    }
    count += EmitHalf<true>(lo, bound_v, 0xff, row, rows + count,
                            scores + count);
    row = _mm256_add_epi32(row, eight);
    count += EmitHalf<true>(hi, bound_v, 0xff, row, rows + count,
                            scores + count);
    row = _mm256_add_epi32(row, eight);
    blocks += block_bytes;
  }
  if (first < n) {
    const int left = static_cast<int>(n - first);
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i live_lo = _mm256_cmpgt_epi32(_mm256_set1_epi32(left), lane);
    const __m256i live_hi =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(left - 8), lane);
    __m256i lo = _mm256_setzero_si256();
    __m256i hi = _mm256_setzero_si256();
    for (size_t g = 0; g < ops.size(); ++g) {
      const int* x = reinterpret_cast<const int*>(blocks + 64 * g);
      lo = AddGroup(lo, _mm256_maskload_epi32(x, live_lo), ops[g]);
      if (left > 8) {
        hi = AddGroup(hi, _mm256_maskload_epi32(x + 8, live_hi), ops[g]);
      }
    }
    const unsigned live = (1u << left) - 1;
    count += EmitHalf<false>(lo, bound_v, live & 0xff, row, rows + count,
                             scores + count);
    row = _mm256_add_epi32(row, eight);
    count += EmitHalf<false>(hi, bound_v, live >> 8, row, rows + count,
                             scores + count);
  }
  return count;
}

/// The wavefront's lane operations (wavefront.h): one ymm holds four
/// cells of a diagonal, and three ymm hold windows of up to 10 samples.
struct Avx2Wave {
  using Vec = __m256d;
  static constexpr int kLanes = 4;
  static constexpr int kMaxRegs = 3;

  static Vec Splat(double x) { return _mm256_set1_pd(x); }
  static Vec Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static Vec AbsDiff(Vec x, Vec y) { return AbsPd(_mm256_sub_pd(x, y)); }
  static Vec Add(Vec x, Vec y) { return _mm256_add_pd(x, y); }
  static Vec Min(Vec x, Vec y) { return _mm256_min_pd(x, y); }
  // [below[3], v[0], v[1], v[2]]
  static Vec FromBelow(Vec below, Vec v) {
    return _mm256_shuffle_pd(_mm256_permute2f128_pd(below, v, 0x21), v, 0x5);
  }
  // [v[1], v[2], v[3], above[0]]
  static Vec FromAbove(Vec v, Vec above) {
    return _mm256_shuffle_pd(v, _mm256_permute2f128_pd(v, above, 0x21), 0x5);
  }
  static Vec Finish(Vec best, Vec cost, unsigned valid, Vec inf) {
    const __m256i bits = _mm256_set_epi64x(8, 4, 2, 1);
    const __m256i in_band = _mm256_cmpeq_epi64(
        _mm256_and_si256(_mm256_set1_epi64x(valid), bits), bits);
    const Vec keep = _mm256_and_pd(_mm256_castsi256_pd(in_band),
                                   _mm256_cmp_pd(best, inf, _CMP_NEQ_UQ));
    return _mm256_blendv_pd(inf, _mm256_add_pd(best, cost), keep);
  }
  // The blend picks +inf costs outside `valid` before `best` arrives, and
  // +inf + best is +inf for any best the finite sweep can hold.
  static Vec AddIn(Vec best, Vec cost, unsigned valid, Vec inf) {
    const __m256i bits = _mm256_set_epi64x(8, 4, 2, 1);
    const __m256i in_band = _mm256_cmpeq_epi64(
        _mm256_and_si256(_mm256_set1_epi64x(valid), bits), bits);
    return _mm256_add_pd(
        best, _mm256_blendv_pd(inf, cost, _mm256_castsi256_pd(in_band)));
  }
  // [x0 y0 x1 y1], [x2 y2 x3 y3] -> [x0 x2 x1 x3], [y0 y2 y1 y3], then
  // one lane permute each into point order or its reverse.
  template <bool kReversed>
  static void Planar2(const double* p, Vec* x, Vec* y) {
    const Vec lo = Load(p);
    const Vec hi = Load(p + kLanes);
    constexpr int kOrder = kReversed ? 0x27 : 0xd8;
    *x = _mm256_permute4x64_pd(_mm256_unpacklo_pd(lo, hi), kOrder);
    *y = _mm256_permute4x64_pd(_mm256_unpackhi_pd(lo, hi), kOrder);
  }
};

const KernelTable kAvx2Table = {
    L1F64, L2F64, Wl1F64, PrescreenI8, Wavefront<Avx2Wave>::Cdtw,
};

}  // namespace

const KernelTable* Avx2Kernels() { return &kAvx2Table; }

}  // namespace simd
}  // namespace qse

#else  // !QSE_BUILD_AVX2

namespace qse {
namespace simd {

const KernelTable* Avx2Kernels() { return nullptr; }

}  // namespace simd
}  // namespace qse

#endif  // QSE_BUILD_AVX2
