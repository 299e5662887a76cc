// AVX2 backend.  The whole translation unit is compiled with -mavx2 and
// -ffp-contract=off (CMake sets both on this file alone), and the
// intrinsics body is additionally guarded by QSE_BUILD_AVX2 so the
// getter still links — returning nullptr — on builds that cannot or
// choose not to compile it.
//
// Bit-identity with the scalar reference (kernels_scalar.cc) falls out
// of the register shapes: a 4-wide float64 accumulator advanced 4 terms
// per step IS the scalar four-lane discipline, and two 8-wide float32
// accumulators advanced 16 terms per step ARE the sixteen-lane one.
// Lanes are reduced through the lanes.h trees' additions verbatim — in
// registers on the hot paths (ReduceF64Acc/ReduceF32Acc), never through
// hadd or permute-based shortcuts with different rounding orders; the
// shared scalar helpers run only when a tail folds into lane 0.
//
// The cDTW entry is the shared anti-diagonal wavefront (wavefront.h)
// over ymm lanes.
#include "src/distance/simd/kernels.h"

#if defined(QSE_BUILD_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "src/distance/simd/lanes.h"
#include "src/distance/simd/prescreen_operands.h"
#include "src/distance/simd/wavefront.h"

namespace qse {
namespace simd {
namespace {

inline __m256d AbsPd(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}
inline __m256 AbsPs(__m256 v) {
  return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v);
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

/// In-register ReduceF32Lanes over the split accumulators: adding `lo`
/// (lanes 0-7) to `hi` (lanes 8-15) IS the tree's first level, then one
/// vector add per remaining level.
inline float ReduceF32Acc(__m256 lo, __m256 hi) {
  __m256 r8 = _mm256_add_ps(lo, hi);
  __m128 r4 = _mm_add_ps(_mm256_castps256_ps128(r8),
                         _mm256_extractf128_ps(r8, 1));
  __m128 r2 = _mm_add_ps(r4, _mm_movehl_ps(r4, r4));
  return _mm_cvtss_f32(_mm_add_ss(r2, _mm_movehdup_ps(r2)));
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

/// Sixteen-lane float32 driver: lanes 0-7 live in `lo`, lanes 8-15 in
/// `hi`, sixteen terms consumed per step.  `vterm(i)` yields the terms
/// for dims i..i+7.
template <typename VecTerm, typename ScalTerm>
float RunF32(size_t d, float abandon, const VecTerm& vterm,
             const ScalTerm& sterm) {
  __m256 lo = _mm256_setzero_ps();
  __m256 hi = _mm256_setzero_ps();
  size_t i = 0;
  while (i + kAbandonBlock <= d) {
    for (size_t end = i + kAbandonBlock; i < end; i += 16) {
      lo = _mm256_add_ps(lo, vterm(i));
      hi = _mm256_add_ps(hi, vterm(i + 8));
    }
    float partial = ReduceF32Acc(lo, hi);
    if (partial > abandon) return partial;
  }
  for (; i + 16 <= d; i += 16) {
    lo = _mm256_add_ps(lo, vterm(i));
    hi = _mm256_add_ps(hi, vterm(i + 8));
  }
  if (i == d) return ReduceF32Acc(lo, hi);
  alignas(32) float l[kF32Lanes];
  _mm256_store_ps(l, lo);
  _mm256_store_ps(l + 8, hi);
  for (; i < d; ++i) l[0] += sterm(i);
  return ReduceF32Lanes(l);
}

/// Eight int8 dims starting at i, as exact float32 absolute differences
/// (integer math is exact; cvtepi32_ps of 0..254 is exact).
inline __m256 AbsDiffI8x8(const int8_t* q, const int8_t* x, size_t i) {
  __m128i qb = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + i));
  __m128i xb = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + i));
  __m256i diff = _mm256_sub_epi32(_mm256_cvtepi8_epi32(qb),
                                  _mm256_cvtepi8_epi32(xb));
  return _mm256_cvtepi32_ps(_mm256_abs_epi32(diff));
}

inline float AbsDiffI8(int8_t a, int8_t b) {
  int diff = static_cast<int>(a) - static_cast<int>(b);
  return static_cast<float>(diff < 0 ? -diff : diff);
}

/// Lowest eight bytes of `bytes` (unsigned absolute differences 0..255)
/// widened to exact float32.
inline __m256 WidenU8x8(__m128i bytes) {
  return _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
}

/// int8 driver holding the sixteen-lane float32 discipline while
/// computing 32 absolute differences per byte-wide max/min/sub (|a-b| on
/// signed bytes is exact as an unsigned byte).  The eight-dim groups are
/// widened and accumulated in dim order — lo takes dims i and i+16, hi
/// takes i+8 and i+24 — the exact add order of the generic sixteen-dim
/// step, so completed sums stay bit-identical to the scalar reference.
template <typename Term, typename ScalTerm>
float RunI8(const int8_t* q, const int8_t* x, size_t d, float abandon,
            const Term& term, const ScalTerm& sterm) {
  static_assert(kAbandonBlock % 32 == 0, "whole ymm loads per block");
  __m256 lo = _mm256_setzero_ps();
  __m256 hi = _mm256_setzero_ps();
  size_t i = 0;
  while (i + kAbandonBlock <= d) {
    for (size_t end = i + kAbandonBlock; i < end; i += 32) {
      __m256i qb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
      __m256i xb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
      __m256i diff = _mm256_sub_epi8(_mm256_max_epi8(qb, xb),
                                     _mm256_min_epi8(qb, xb));
      __m128i dlo = _mm256_castsi256_si128(diff);
      __m128i dhi = _mm256_extracti128_si256(diff, 1);
      lo = _mm256_add_ps(lo, term(WidenU8x8(dlo), i));
      hi = _mm256_add_ps(hi, term(WidenU8x8(_mm_srli_si128(dlo, 8)), i + 8));
      lo = _mm256_add_ps(lo, term(WidenU8x8(dhi), i + 16));
      hi = _mm256_add_ps(hi, term(WidenU8x8(_mm_srli_si128(dhi, 8)), i + 24));
    }
    float partial = ReduceF32Acc(lo, hi);
    if (partial > abandon) return partial;
  }
  for (; i + 16 <= d; i += 16) {
    lo = _mm256_add_ps(lo, term(AbsDiffI8x8(q, x, i), i));
    hi = _mm256_add_ps(hi, term(AbsDiffI8x8(q, x, i + 8), i + 8));
  }
  if (i == d) return ReduceF32Acc(lo, hi);
  alignas(32) float l[kF32Lanes];
  _mm256_store_ps(l, lo);
  _mm256_store_ps(l + 8, hi);
  for (; i < d; ++i) l[0] += sterm(i);
  return ReduceF32Lanes(l);
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

float L1F32(const float* q, const float* x, size_t d, float abandon) {
  return RunF32(
      d, abandon,
      [&](size_t i) {
        return AbsPs(_mm256_sub_ps(_mm256_loadu_ps(q + i),
                                   _mm256_loadu_ps(x + i)));
      },
      [&](size_t i) { return std::fabs(q[i] - x[i]); });
}

float L2F32(const float* q, const float* x, size_t d, float abandon) {
  return RunF32(
      d, abandon,
      [&](size_t i) {
        __m256 diff =
            _mm256_sub_ps(_mm256_loadu_ps(q + i), _mm256_loadu_ps(x + i));
        return _mm256_mul_ps(diff, diff);
      },
      [&](size_t i) {
        float diff = q[i] - x[i];
        return diff * diff;
      });
}

float Wl1F32(const float* q, const float* x, const float* w, size_t d,
             float abandon) {
  return RunF32(
      d, abandon,
      [&](size_t i) {
        return _mm256_mul_ps(_mm256_loadu_ps(w + i),
                             AbsPs(_mm256_sub_ps(_mm256_loadu_ps(q + i),
                                                 _mm256_loadu_ps(x + i))));
      },
      [&](size_t i) { return w[i] * std::fabs(q[i] - x[i]); });
}

float Wl1I8(const int8_t* q, const int8_t* x, const float* c, size_t d,
            float abandon) {
  return RunI8(
      q, x, d, abandon,
      [&](__m256 fd, size_t i) {
        return _mm256_mul_ps(_mm256_loadu_ps(c + i), fd);
      },
      [&](size_t i) { return c[i] * AbsDiffI8(q[i], x[i]); });
}

float Wl2I8(const int8_t* q, const int8_t* x, const float* c, size_t d,
            float abandon) {
  return RunI8(
      q, x, d, abandon,
      [&](__m256 fd, size_t i) {
        return _mm256_mul_ps(_mm256_mul_ps(_mm256_loadu_ps(c + i), fd), fd);
      },
      [&](size_t i) {
        float fd = AbsDiffI8(q[i], x[i]);
        return (c[i] * fd) * fd;
      });
}

/// The prescreen sums of kRows rows `d` bytes apart, over 32-byte
/// chunks: |q - x| as unsigned bytes (one max/min/sub), split into its
/// even and odd bytes by a mask and a shift so each lands zero-extended
/// in a 16-bit lane, then two vpmaddwd against the matching
/// coefficients.  The query and coefficient loads serve all kRows rows,
/// and four rows share one horizontal reduction.  The integer sums are
/// exact whatever the lane order.
template <int kRows>
inline void PrescreenRows(const PrescreenOperands<32>& ops, const int8_t* x,
                          size_t d, int32_t* out) {
  static_assert(kRows == 1 || kRows == 4, "one row or a group of four");
  const __m256i low_bytes = _mm256_set1_epi16(0x00ff);
  __m256i acc[kRows];
  for (int r = 0; r < kRows; ++r) acc[r] = _mm256_setzero_si256();
  for (size_t k = 0; k < ops.chunks(); ++k) {
    const __m256i qb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(ops.q() + 32 * k));
    const __m256i* c =
        reinterpret_cast<const __m256i*>(ops.coeffs() + 32 * k);
    const __m256i c_even = _mm256_loadu_si256(c);
    const __m256i c_odd = _mm256_loadu_si256(c + 1);
    for (int r = 0; r < kRows; ++r) {
      const __m256i xb = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(x + r * d + 32 * k));
      const __m256i diff =
          _mm256_sub_epi8(_mm256_max_epi8(qb, xb), _mm256_min_epi8(qb, xb));
      acc[r] = _mm256_add_epi32(
          acc[r],
          _mm256_madd_epi16(_mm256_and_si256(diff, low_bytes), c_even));
      acc[r] = _mm256_add_epi32(
          acc[r], _mm256_madd_epi16(_mm256_srli_epi16(diff, 8), c_odd));
    }
  }
  if constexpr (kRows == 1) {
    __m128i v = _mm_add_epi32(_mm256_castsi256_si128(acc[0]),
                              _mm256_extracti128_si256(acc[0], 1));
    v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
    v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
    out[0] = _mm_cvtsi128_si32(v);
  } else {
    // Lane i of `sums` holds half of row i % 4's sum, so its two 128-bit
    // halves add up to the four rows' totals.
    const __m256i sums =
        _mm256_hadd_epi32(_mm256_hadd_epi32(acc[0], acc[1]),
                          _mm256_hadd_epi32(acc[2], acc[3]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                     _mm_add_epi32(_mm256_castsi256_si128(sums),
                                   _mm256_extracti128_si256(sums, 1)));
  }
}

/// The prescreen block entry.  Rows are read in whole 32-byte chunks,
/// running up to 31 bytes into the next row (zero coefficients there);
/// the last rows of the block, whose chunks would run past its end, are
/// scored from a zero-padded copy.
void PrescreenI8(const int8_t* q, const int8_t* rows, size_t n,
                 const int16_t* c, size_t d, int32_t* out) {
  PrescreenOperands<32> ops(q, c, d);
  const size_t bytes = n * d;
  size_t direct = 0;  // rows r with r * d + padded <= bytes
  if (d > 0 && bytes >= ops.padded()) {
    direct = std::min(n, (bytes - ops.padded()) / d + 1);
  }
  size_t r = 0;
  for (; r + 4 <= direct; r += 4) {
    PrescreenRows<4>(ops, rows + r * d, d, out + r);
  }
  for (; r < direct; ++r) PrescreenRows<1>(ops, rows + r * d, d, out + r);
  for (; r < n; ++r) {
    PrescreenRows<1>(ops, ops.PaddedCopy(rows + r * d), d, out + r);
  }
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
};

const KernelTable kAvx2Table = {
    L1F64, L2F64, Wl1F64, L1F32, L2F32, Wl1F32, Wl1I8, Wl2I8, PrescreenI8,
    Wavefront<Avx2Wave>::Cdtw,
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
