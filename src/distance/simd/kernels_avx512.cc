// AVX-512 backend (compiled with -mavx512f/dq/bw/vl and
// -ffp-contract=off on this file alone; body guarded by
// QSE_BUILD_AVX512 so the getter links as nullptr elsewhere).
//
// The float64 kernels stay bit-identical to the four-lane scalar
// reference despite consuming eight dims per step: each 8-term vector is
// folded into a single 4-wide accumulator low half first, high half
// second, so accumulator lane j receives terms i+j then i+4+j — exactly
// the order scalar lane j sees them.  Reductions perform the lanes.h
// tree's additions verbatim — in registers on the hot paths
// (ReduceF64Acc), through the shared scalar helper only when a d % 4
// tail folds into lane 0.
//
// The cDTW entry is the shared anti-diagonal wavefront (wavefront.h)
// over zmm lanes.
#include "src/distance/simd/kernels.h"

#if defined(QSE_BUILD_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "src/distance/simd/lanes.h"
#include "src/distance/simd/wavefront.h"

namespace qse {
namespace simd {
namespace {

inline __m512d AbsPd512(__m512d v) {
  return _mm512_abs_pd(v);
}
inline __m256d AbsPd(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

/// In-register ReduceF64Lanes: every vector add below performs the same
/// IEEE additions lane-for-lane as lanes.h's (l0+l1)+(l2+l3), so the
/// abandon-check path never round-trips the accumulator through the
/// stack (the store-to-load forwarding stall on that round trip
/// dominated per-row cost at d=256).
inline double ReduceF64Acc(__m256d acc) {
  __m128d lo = _mm256_castpd256_pd128(acc);    // [l0, l1]
  __m128d hi = _mm256_extractf128_pd(acc, 1);  // [l2, l3]
  __m128d pairs =
      _mm_add_pd(_mm_unpacklo_pd(lo, hi), _mm_unpackhi_pd(lo, hi));
  return _mm_cvtsd_f64(_mm_add_sd(pairs, _mm_unpackhi_pd(pairs, pairs)));
}

/// Four-lane float64 driver, eight dims per step.  `vterm8(i)` yields
/// terms i..i+7; `vterm4(i)` terms i..i+3 for the post-block 4-step
/// loop; `sterm(i)` the scalar tail term.
template <typename VecTerm8, typename VecTerm4, typename ScalTerm>
double RunF64(size_t d, double abandon, const VecTerm8& vterm8,
              const VecTerm4& vterm4, const ScalTerm& sterm) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  while (i + kAbandonBlock <= d) {
    for (size_t hi = i + kAbandonBlock; i < hi; i += 8) {
      __m512d t = vterm8(i);
      acc = _mm256_add_pd(acc, _mm512_castpd512_pd256(t));
      acc = _mm256_add_pd(acc, _mm512_extractf64x4_pd(t, 1));
    }
    double partial = ReduceF64Acc(acc);
    if (partial > abandon) return partial;
  }
  for (; i + 8 <= d; i += 8) {
    __m512d t = vterm8(i);
    acc = _mm256_add_pd(acc, _mm512_castpd512_pd256(t));
    acc = _mm256_add_pd(acc, _mm512_extractf64x4_pd(t, 1));
  }
  for (; i + 4 <= d; i += 4) {
    acc = _mm256_add_pd(acc, vterm4(i));
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
        return AbsPd512(_mm512_sub_pd(_mm512_loadu_pd(q + i),
                                      _mm512_loadu_pd(x + i)));
      },
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
        __m512d diff =
            _mm512_sub_pd(_mm512_loadu_pd(q + i), _mm512_loadu_pd(x + i));
        return _mm512_mul_pd(diff, diff);
      },
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
        return _mm512_mul_pd(_mm512_loadu_pd(w + i),
                             AbsPd512(_mm512_sub_pd(_mm512_loadu_pd(q + i),
                                                    _mm512_loadu_pd(x + i))));
      },
      [&](size_t i) {
        return _mm256_mul_pd(_mm256_loadu_pd(w + i),
                             AbsPd(_mm256_sub_pd(_mm256_loadu_pd(q + i),
                                                 _mm256_loadu_pd(x + i))));
      },
      [&](size_t i) { return w[i] * std::fabs(q[i] - x[i]); });
}

/// The prescreen entry, one 16-row block per zmm: for each 4-dim group,
/// |q - x| as unsigned bytes against the broadcast query dword, split
/// into the even and odd bytes of its 16-bit lanes by a mask and a
/// shift, then two vpmaddwd against the broadcast coefficient pairs,
/// each adding one row's two products to that row's int32 lane.  Every
/// load is row-masked, so the last block's slots at or past n are never
/// read (and load as zeros, which the live mask then drops).  The rows
/// within the bound leave through a compress and a masked store.  Each
/// group prefetches its line of the block kI8PrefetchBlocks ahead.
size_t PrescreenI8(const int8_t* q, const int8_t* blocks, size_t n,
                   size_t stored, const int16_t* c, size_t d, int32_t bound,
                   uint32_t* rows, int32_t* scores) {
  const PrescreenGroups ops(q, c, d);
  const size_t block_bytes = kI8BlockRows * kI8GroupDims * ops.size();
  const __m512i low_bytes = _mm512_set1_epi16(0x00ff);
  const __m512i bound_v = _mm512_set1_epi32(bound);
  const __m512i slot = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  size_t count = 0;
  for (size_t first = 0; first < n; first += kI8BlockRows) {
    const size_t left = n - first;
    const __mmask16 live =
        left >= kI8BlockRows ? __mmask16{0xffff}
                             : static_cast<__mmask16>((1u << left) - 1);
    const int8_t* ahead = I8BlockAhead(blocks, first, stored, block_bytes);
    __m512i acc = _mm512_setzero_si512();
    for (size_t g = 0; g < ops.size(); ++g) {
      PrefetchI8Group(ahead, g);
      const __m512i xb = _mm512_maskz_loadu_epi32(live, blocks + 64 * g);
      const __m512i qb = _mm512_set1_epi32(ops[g].q);
      const __m512i diff =
          _mm512_sub_epi8(_mm512_max_epi8(qb, xb), _mm512_min_epi8(qb, xb));
      acc = _mm512_add_epi32(
          acc, _mm512_madd_epi16(_mm512_and_si512(diff, low_bytes),
                                 _mm512_set1_epi32(ops[g].c_even)));
      acc = _mm512_add_epi32(
          acc, _mm512_madd_epi16(_mm512_srli_epi16(diff, 8),
                                 _mm512_set1_epi32(ops[g].c_odd)));
    }
    const __mmask16 keep = _mm512_mask_cmple_epi32_mask(live, acc, bound_v);
    const unsigned kept = static_cast<unsigned>(__builtin_popcount(keep));
    const __mmask16 out = static_cast<__mmask16>((1u << kept) - 1);
    const __m512i row = _mm512_add_epi32(
        slot, _mm512_set1_epi32(static_cast<int32_t>(first)));
    _mm512_mask_storeu_epi32(rows + count, out,
                             _mm512_maskz_compress_epi32(keep, row));
    _mm512_mask_storeu_epi32(scores + count, out,
                             _mm512_maskz_compress_epi32(keep, acc));
    count += kept;
    blocks += block_bytes;
  }
  return count;
}

/// The wavefront's lane operations (wavefront.h): one zmm holds eight
/// cells of a diagonal, and four zmm hold windows of up to 30 samples.
struct Avx512Wave {
  using Vec = __m512d;
  static constexpr int kLanes = 8;
  static constexpr int kMaxRegs = 4;

  static Vec Splat(double x) { return _mm512_set1_pd(x); }
  static Vec Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, Vec v) { _mm512_storeu_pd(p, v); }
  static Vec AbsDiff(Vec x, Vec y) { return AbsPd512(_mm512_sub_pd(x, y)); }
  static Vec Add(Vec x, Vec y) { return _mm512_add_pd(x, y); }
  static Vec Min(Vec x, Vec y) { return _mm512_min_pd(x, y); }
  static Vec FromBelow(Vec below, Vec v) {
    return _mm512_permutex2var_pd(
        below, _mm512_set_epi64(14, 13, 12, 11, 10, 9, 8, 7), v);
  }
  static Vec FromAbove(Vec v, Vec above) {
    return _mm512_permutex2var_pd(v, _mm512_set_epi64(8, 7, 6, 5, 4, 3, 2, 1),
                                  above);
  }
  static Vec Finish(Vec best, Vec cost, unsigned valid, Vec inf) {
    const __mmask8 keep = static_cast<__mmask8>(valid) &
                          _mm512_cmp_pd_mask(best, inf, _CMP_NEQ_UQ);
    return _mm512_mask_blend_pd(keep, inf, _mm512_add_pd(best, cost));
  }
  static Vec AddIn(Vec best, Vec cost, unsigned valid, Vec inf) {
    return _mm512_mask_add_pd(inf, static_cast<__mmask8>(valid), best, cost);
  }
  template <bool kReversed>
  static void Planar2(const double* p, Vec* x, Vec* y) {
    const Vec lo = Load(p);
    const Vec hi = Load(p + kLanes);
    const __m512i even =
        kReversed ? _mm512_set_epi64(0, 2, 4, 6, 8, 10, 12, 14)
                  : _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
    const __m512i odd = _mm512_add_epi64(even, _mm512_set1_epi64(1));
    *x = _mm512_permutex2var_pd(lo, even, hi);
    *y = _mm512_permutex2var_pd(lo, odd, hi);
  }
};

const KernelTable kAvx512Table = {
    L1F64, L2F64, Wl1F64, PrescreenI8, Wavefront<Avx512Wave>::Cdtw,
};

}  // namespace

const KernelTable* Avx512Kernels() { return &kAvx512Table; }

}  // namespace simd
}  // namespace qse

#else  // !QSE_BUILD_AVX512

namespace qse {
namespace simd {

const KernelTable* Avx512Kernels() { return nullptr; }

}  // namespace simd
}  // namespace qse

#endif  // QSE_BUILD_AVX512
