// Parity suite for the runtime-dispatched filter kernels: every
// (ISA x precision) kernel is run against the scalar reference across
// dimension counts chosen to hit every remainder-loop edge, asserting
// bit-identity for same-precision paths and the documented error
// envelope for reduced-precision paths.  This TU compiles baseline
// x86-64 (no FMA instructions exist there), so the hand-written
// pre-dispatch reference below cannot be contracted away from the
// four-lane discipline it pins.  Every tier's cDTW entry is checked bit
// for bit against the full-row DP oracle (tests/cdtw_reference.h).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/distance/simd/dispatch.h"
#include "src/distance/simd/kernels.h"
#include "src/retrieval/filter_precision.h"
#include "src/util/random.h"
#include "tests/cdtw_reference.h"
#include "tests/simd_tiers.h"

namespace qse {
namespace simd {
namespace {

// Every remainder edge: below/at/above one f64 vector step (4), one f32
// step (16 via 63..65), one abandon block (64), and a multi-block scan
// with tails (255..257).
const size_t kDims[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 255, 256, 257};

const double kInf64 = std::numeric_limits<double>::infinity();
const float kInf32 = std::numeric_limits<float>::infinity();

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

uint32_t Bits(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// One dimension count's worth of inputs in every precision the kernels
/// consume, derived from the same float64 draw the way the engine does:
/// float32 shadows by narrowing, int8 shadows by symmetric quantization
/// under per-dimension scales with the query quantized under the row
/// scales (and so possibly clamped — the bounds cover that via the exact
/// query residual).
struct KernelInputs {
  std::vector<double> q, x, w;
  std::vector<float> qf, xf, wf;
  std::vector<int8_t> qq, xq;
  std::vector<float> scales;

  explicit KernelInputs(size_t d, uint64_t seed) {
    Rng rng(seed);
    q.resize(d);
    x.resize(d);
    w.resize(d);
    for (size_t j = 0; j < d; ++j) {
      q[j] = rng.Uniform(-2.0, 2.0);  // Wider than rows: exercises clamping.
      x[j] = rng.Uniform(-1.0, 1.0);
      w[j] = rng.Uniform(0.0, 3.0);
    }
    qf.assign(q.begin(), q.end());
    xf.assign(x.begin(), x.end());
    wf.assign(w.begin(), w.end());
    scales.resize(d);
    qq.resize(d);
    xq.resize(d);
    for (size_t j = 0; j < d; ++j) {
      scales[j] = static_cast<float>(std::fabs(x[j]) / 127.0);
      qq[j] = QuantizeToInt8(q[j], scales[j]);
      xq[j] = QuantizeToInt8(x[j], scales[j]);
      EXPECT_TRUE(FitsInt8(x[j], scales[j])) << "dim " << j;
    }
  }

  /// The int8 weighted-L1 coefficients the QuerySensitiveScorer builds:
  /// c_j = w_j * s_j, multiplied in double then narrowed once.
  std::vector<float> WeightedL1Coeffs() const {
    std::vector<float> c(scales.size());
    for (size_t j = 0; j < c.size(); ++j) {
      c[j] = static_cast<float>(w[j] * static_cast<double>(scales[j]));
    }
    return c;
  }

  /// The int8 squared-L2 coefficients the L2 scorer builds: c_j = s_j^2.
  std::vector<float> SquaredL2Coeffs() const {
    std::vector<float> c(scales.size());
    for (size_t j = 0; j < c.size(); ++j) {
      double s = static_cast<double>(scales[j]);
      c[j] = static_cast<float>(s * s);
    }
    return c;
  }
};

void ExpectEnvelope(double exact, double approx,
                    const ReducedPrecisionBound& bound, const char* what,
                    size_t d) {
  EXPECT_LE(std::fabs(approx - exact),
            bound.additive + bound.relative * (exact + approx))
      << what << " d=" << d << " exact=" << exact << " approx=" << approx;
}

// --- Pre-dispatch reference: the original span-kernel discipline -------
//
// Copies of the four-lane loops that lived in lp.cc / weighted_l1.cc
// before the dispatch layer, without blocking (they had no early
// abandon).  The scalar f64 kernels must reproduce them bit for bit at
// abandon = +inf, which is what ties the whole parity chain back to the
// pre-PR golden results.

double RefL1(const double* a, const double* b, size_t n) {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += std::fabs(a[i] - b[i]);
    l1 += std::fabs(a[i + 1] - b[i + 1]);
    l2 += std::fabs(a[i + 2] - b[i + 2]);
    l3 += std::fabs(a[i + 3] - b[i + 3]);
  }
  for (; i < n; ++i) l0 += std::fabs(a[i] - b[i]);
  return (l0 + l1) + (l2 + l3);
}

double RefL2(const double* a, const double* b, size_t n) {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    double d0 = a[i] - b[i];
    double d1 = a[i + 1] - b[i + 1];
    double d2 = a[i + 2] - b[i + 2];
    double d3 = a[i + 3] - b[i + 3];
    l0 += d0 * d0;
    l1 += d1 * d1;
    l2 += d2 * d2;
    l3 += d3 * d3;
  }
  for (; i < n; ++i) {
    double d0 = a[i] - b[i];
    l0 += d0 * d0;
  }
  return (l0 + l1) + (l2 + l3);
}

double RefWl1(const double* a, const double* b, const double* w, size_t n) {
  double l0 = 0, l1 = 0, l2 = 0, l3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += w[i] * std::fabs(a[i] - b[i]);
    l1 += w[i + 1] * std::fabs(a[i + 1] - b[i + 1]);
    l2 += w[i + 2] * std::fabs(a[i + 2] - b[i + 2]);
    l3 += w[i + 3] * std::fabs(a[i + 3] - b[i + 3]);
  }
  for (; i < n; ++i) l0 += w[i] * std::fabs(a[i] - b[i]);
  return (l0 + l1) + (l2 + l3);
}

TEST(KernelParityTest, ScalarF64MatchesPreDispatchReference) {
  for (size_t d : kDims) {
    KernelInputs in(d, 0x1000 + d);
    const KernelTable* k = ScalarKernels();
    EXPECT_EQ(Bits(k->l1_f64(in.q.data(), in.x.data(), d, kInf64)),
              Bits(RefL1(in.q.data(), in.x.data(), d)))
        << "l1 d=" << d;
    EXPECT_EQ(Bits(k->l2_f64(in.q.data(), in.x.data(), d, kInf64)),
              Bits(RefL2(in.q.data(), in.x.data(), d)))
        << "l2 d=" << d;
    EXPECT_EQ(
        Bits(k->wl1_f64(in.q.data(), in.x.data(), in.w.data(), d, kInf64)),
        Bits(RefWl1(in.q.data(), in.x.data(), in.w.data(), d)))
        << "wl1 d=" << d;
  }
}

TEST(KernelParityTest, F64KernelsBitIdenticalAcrossIsas) {
  const KernelTable* ref = ScalarKernels();
  for (const Tier& tier : RunnableTiers()) {
    for (size_t d : kDims) {
      KernelInputs in(d, 0x2000 + d);
      EXPECT_EQ(Bits(tier.table->l1_f64(in.q.data(), in.x.data(), d, kInf64)),
                Bits(ref->l1_f64(in.q.data(), in.x.data(), d, kInf64)))
          << SimdLevelName(tier.level) << " l1 d=" << d;
      EXPECT_EQ(Bits(tier.table->l2_f64(in.q.data(), in.x.data(), d, kInf64)),
                Bits(ref->l2_f64(in.q.data(), in.x.data(), d, kInf64)))
          << SimdLevelName(tier.level) << " l2 d=" << d;
      EXPECT_EQ(Bits(tier.table->wl1_f64(in.q.data(), in.x.data(), in.w.data(),
                                         d, kInf64)),
                Bits(ref->wl1_f64(in.q.data(), in.x.data(), in.w.data(), d,
                                  kInf64)))
          << SimdLevelName(tier.level) << " wl1 d=" << d;
    }
  }
}

TEST(KernelParityTest, F32KernelsBitIdenticalAcrossIsas) {
  const KernelTable* ref = ScalarKernels();
  for (const Tier& tier : RunnableTiers()) {
    for (size_t d : kDims) {
      KernelInputs in(d, 0x3000 + d);
      EXPECT_EQ(
          Bits(tier.table->l1_f32(in.qf.data(), in.xf.data(), d, kInf32)),
          Bits(ref->l1_f32(in.qf.data(), in.xf.data(), d, kInf32)))
          << SimdLevelName(tier.level) << " l1 d=" << d;
      EXPECT_EQ(
          Bits(tier.table->l2_f32(in.qf.data(), in.xf.data(), d, kInf32)),
          Bits(ref->l2_f32(in.qf.data(), in.xf.data(), d, kInf32)))
          << SimdLevelName(tier.level) << " l2 d=" << d;
      EXPECT_EQ(Bits(tier.table->wl1_f32(in.qf.data(), in.xf.data(),
                                         in.wf.data(), d, kInf32)),
                Bits(ref->wl1_f32(in.qf.data(), in.xf.data(), in.wf.data(), d,
                                  kInf32)))
          << SimdLevelName(tier.level) << " wl1 d=" << d;
    }
  }
}

TEST(KernelParityTest, I8KernelsBitIdenticalAcrossIsas) {
  const KernelTable* ref = ScalarKernels();
  for (const Tier& tier : RunnableTiers()) {
    for (size_t d : kDims) {
      KernelInputs in(d, 0x4000 + d);
      std::vector<float> c1 = in.WeightedL1Coeffs();
      std::vector<float> c2 = in.SquaredL2Coeffs();
      EXPECT_EQ(Bits(tier.table->wl1_i8(in.qq.data(), in.xq.data(), c1.data(),
                                        d, kInf32)),
                Bits(ref->wl1_i8(in.qq.data(), in.xq.data(), c1.data(), d,
                                 kInf32)))
          << SimdLevelName(tier.level) << " wl1 d=" << d;
      EXPECT_EQ(Bits(tier.table->wl2_i8(in.qq.data(), in.xq.data(), c2.data(),
                                        d, kInf32)),
                Bits(ref->wl2_i8(in.qq.data(), in.xq.data(), c2.data(), d,
                                 kInf32)))
          << SimdLevelName(tier.level) << " wl2 d=" << d;
    }
  }
}

TEST(KernelParityTest, F32KernelsWithinDocumentedEnvelope) {
  const KernelTable* ref = ScalarKernels();
  for (const Tier& tier : RunnableTiers()) {
    for (size_t d : kDims) {
      KernelInputs in(d, 0x5000 + d);
      {
        double exact =
            ref->wl1_f64(in.q.data(), in.x.data(), in.w.data(), d, kInf64);
        double approx = tier.table->wl1_f32(in.qf.data(), in.xf.data(),
                                            in.wf.data(), d, kInf32);
        ExpectEnvelope(exact, approx,
                       F32BoundWeightedL1(in.w.data(), in.q.data(), d),
                       "f32 wl1", d);
      }
      {
        double exact = ref->l1_f64(in.q.data(), in.x.data(), d, kInf64);
        double approx =
            tier.table->l1_f32(in.qf.data(), in.xf.data(), d, kInf32);
        ExpectEnvelope(exact, approx,
                       F32BoundWeightedL1(nullptr, in.q.data(), d), "f32 l1",
                       d);
      }
      {
        double exact = ref->l2_f64(in.q.data(), in.x.data(), d, kInf64);
        double approx =
            tier.table->l2_f32(in.qf.data(), in.xf.data(), d, kInf32);
        ExpectEnvelope(exact, approx, F32BoundSquaredL2(in.q.data(), d),
                       "f32 l2", d);
      }
    }
  }
}

TEST(KernelParityTest, I8KernelsWithinDocumentedEnvelope) {
  const KernelTable* ref = ScalarKernels();
  for (const Tier& tier : RunnableTiers()) {
    for (size_t d : kDims) {
      KernelInputs in(d, 0x6000 + d);
      {
        std::vector<float> c = in.WeightedL1Coeffs();
        double exact =
            ref->wl1_f64(in.q.data(), in.x.data(), in.w.data(), d, kInf64);
        double approx =
            tier.table->wl1_i8(in.qq.data(), in.xq.data(), c.data(), d, kInf32);
        ExpectEnvelope(exact, approx,
                       I8BoundWeightedL1(in.w.data(), in.q.data(), in.qq.data(),
                                         in.scales.data(), d),
                       "i8 wl1", d);
      }
      {
        // Unweighted L1 routes through the same kernel with c = scales.
        double exact = ref->l1_f64(in.q.data(), in.x.data(), d, kInf64);
        double approx = tier.table->wl1_i8(in.qq.data(), in.xq.data(),
                                           in.scales.data(), d, kInf32);
        ExpectEnvelope(exact, approx,
                       I8BoundWeightedL1(nullptr, in.q.data(), in.qq.data(),
                                         in.scales.data(), d),
                       "i8 l1", d);
      }
      {
        std::vector<float> c = in.SquaredL2Coeffs();
        double exact = ref->l2_f64(in.q.data(), in.x.data(), d, kInf64);
        double approx =
            tier.table->wl2_i8(in.qq.data(), in.xq.data(), c.data(), d, kInf32);
        ExpectEnvelope(exact, approx,
                       I8BoundSquaredL2(in.q.data(), in.qq.data(),
                                        in.scales.data(), d),
                       "i8 l2", d);
      }
    }
  }
}

TEST(KernelParityTest, AbandonNeverFiresBelowThresholdAndCompletesExactly) {
  for (const Tier& tier : RunnableTiers()) {
    for (size_t d : kDims) {
      KernelInputs in(d, 0x7000 + d);
      const KernelTable* k = tier.table;

      double full64 =
          k->wl1_f64(in.q.data(), in.x.data(), in.w.data(), d, kInf64);
      ASSERT_GT(full64, 0.0);
      // abandon == the full score: no strict prefix of non-negative terms
      // can exceed it, so the kernel must complete and return it exactly.
      EXPECT_EQ(Bits(k->wl1_f64(in.q.data(), in.x.data(), in.w.data(), d,
                                full64)),
                Bits(full64))
          << SimdLevelName(tier.level) << " d=" << d;
      // A lower threshold may abandon mid-row; whatever partial comes
      // back must still exceed the threshold (that is all callers use).
      double r64 =
          k->wl1_f64(in.q.data(), in.x.data(), in.w.data(), d, full64 * 0.5);
      EXPECT_GT(r64, full64 * 0.5) << SimdLevelName(tier.level) << " d=" << d;

      float full32 =
          k->wl1_f32(in.qf.data(), in.xf.data(), in.wf.data(), d, kInf32);
      ASSERT_GT(full32, 0.0f);
      EXPECT_EQ(Bits(k->wl1_f32(in.qf.data(), in.xf.data(), in.wf.data(), d,
                                full32)),
                Bits(full32))
          << SimdLevelName(tier.level) << " d=" << d;
      float r32 = k->wl1_f32(in.qf.data(), in.xf.data(), in.wf.data(), d,
                             full32 * 0.5f);
      EXPECT_GT(r32, full32 * 0.5f)
          << SimdLevelName(tier.level) << " d=" << d;

      std::vector<float> c = in.WeightedL1Coeffs();
      float full8 = k->wl1_i8(in.qq.data(), in.xq.data(), c.data(), d, kInf32);
      EXPECT_EQ(Bits(k->wl1_i8(in.qq.data(), in.xq.data(), c.data(), d, full8)),
                Bits(full8))
          << SimdLevelName(tier.level) << " d=" << d;
      if (full8 > 0.0f) {
        float r8 =
            k->wl1_i8(in.qq.data(), in.xq.data(), c.data(), d, full8 * 0.5f);
        EXPECT_GT(r8, full8 * 0.5f) << SimdLevelName(tier.level) << " d=" << d;
      }
    }
  }
}

// --- cDTW -----------------------------------------------------------------

/// Runs `table`'s cDTW entry the way ConstrainedDtwWindow does (window
/// clamped to [0, max(n, m)]) and compares it with the full-row oracle.
bool CdtwMatchesReference(const KernelTable* table, const Series& a,
                          const Series& b, long window) {
  const long longest = static_cast<long>(std::max(a.length(), b.length()));
  window = std::clamp<long>(window, 0, longest);
  double got = table->cdtw_f64(a.values().data(), a.length(),
                               b.values().data(), b.length(), a.dims(),
                               window);
  return test::SameBits(got, test::ReferenceCdtw(a, b, window));
}

// Windows 8R - 2 and 4R - 2 are the widest an R-register wavefront holds
// on AVX-512 (R <= 4) and AVX2 (R <= 3); each one past it needs another
// register or, past the cap, falls back to the row DP.
const long kWindows[] = {0, 1, 2, 3, 6, 7, 10, 11, 14, 15, 22, 23, 30, 31};

TEST(KernelParityTest, CdtwBitIdenticalToReferenceOnEveryTier) {
  // Equal lengths take the wavefront where the band fits; 140 vs 141
  // samples at 5 dims straddle the AVX-512 planar-copy cap, and unequal
  // lengths pin the row-DP fallback.
  std::vector<std::pair<size_t, size_t>> shapes = {{96, 80}, {3, 17}};
  for (size_t n : {1, 2, 3, 17, 96, 130, 140, 141}) shapes.push_back({n, n});
  for (const Tier& tier : RunnableTiers()) {
    SCOPED_TRACE(SimdLevelName(tier.level));
    Rng rng(0x4000);
    for (size_t dims : {1, 2, 3, 5}) {
      for (const auto& [n, m] : shapes) {
        Series a = test::RandomSeries(&rng, dims, n);
        Series b = test::RandomSeries(&rng, dims, m);
        std::vector<long> windows(std::begin(kWindows), std::end(kWindows));
        windows.push_back(static_cast<long>(
            std::ceil(0.1 * static_cast<double>(std::min(n, m)))));
        for (long window : windows) {
          EXPECT_TRUE(CdtwMatchesReference(tier.table, a, b, window))
              << dims << "-D " << n << " vs " << m << ", window " << window;
        }
      }
    }
  }
}

TEST(KernelParityTest, CdtwNonFiniteSamplesBitIdenticalOnEveryTier) {
  // Equal lengths, so the samples reach the wavefront: inf - inf is NaN,
  // and where a NaN or +inf lands in the min chain decides what
  // propagates, which pins the min operand order and the +inf rule.
  const double kNonFinite[] = {std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()};
  for (const Tier& tier : RunnableTiers()) {
    SCOPED_TRACE(SimdLevelName(tier.level));
    Rng rng(0x5000);
    for (size_t dims : {1, 2, 3, 5}) {
      for (int rep = 0; rep < 40; ++rep) {
        const size_t n = 1 + rng.Index(40);
        Series a = test::RandomSeries(&rng, dims, n);
        Series b = test::RandomSeries(&rng, dims, n);
        for (size_t k = 1 + rng.Index(3); k > 0; --k) {
          a.values()[rng.Index(a.values().size())] = kNonFinite[rng.Index(3)];
          b.values()[rng.Index(b.values().size())] = kNonFinite[rng.Index(3)];
        }
        for (long window : {0L, 2L, 6L, 14L, 30L}) {
          EXPECT_TRUE(CdtwMatchesReference(tier.table, a, b, window))
              << dims << "-D, length " << n << ", window " << window;
        }
      }
    }
  }
}

// --- Dispatch resolution ------------------------------------------------

TEST(SimdDispatchTest, ActiveKernelsMatchActiveLevel) {
  const KernelTable* active = ActiveKernels();
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active, KernelsFor(ActiveSimdLevel()));
  // Whatever tier won, this machine must be able to run it.
  EXPECT_TRUE(CpuSupports(ActiveSimdLevel()));
}

TEST(SimdDispatchTest, ForceScalarOverridesEverything) {
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx512, "1", nullptr),
            SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx2, "yes", "avx512"),
            SimdLevel::kScalar);
  // An EMPTY value does not count as set.
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx2, "", nullptr), SimdLevel::kAvx2);
}

TEST(SimdDispatchTest, LevelOverrideClampsDownNeverUp) {
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx512, nullptr, "avx2"),
            SimdLevel::kAvx2);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx512, nullptr, "scalar"),
            SimdLevel::kScalar);
  // Requesting above what the build/CPU supports clamps to best.
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx2, nullptr, "avx512"),
            SimdLevel::kAvx2);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kScalar, nullptr, "avx2"),
            SimdLevel::kScalar);
  // Unknown strings are ignored.
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx2, nullptr, "sse9"),
            SimdLevel::kAvx2);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAvx512, nullptr, nullptr),
            SimdLevel::kAvx512);
}

TEST(SimdDispatchTest, TierNamesAreStable) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx512), "avx512");
}

// --- Widening helpers ---------------------------------------------------

TEST(FilterPrecisionTest, FloatAtLeastNeverRoundsBelow) {
  for (double x : {0.0, 1.0, 1e-30, 3.14159, 1e30, 0.1, 1.0000000001}) {
    float f = FloatAtLeast(x);
    EXPECT_GE(static_cast<double>(f), x) << x;
    // And it is the SMALLEST such float: one step down is below x
    // (unless f == x exactly in float already).
    if (static_cast<double>(f) > x) {
      EXPECT_LT(static_cast<double>(std::nextafterf(
                    f, -std::numeric_limits<float>::infinity())),
                x)
          << x;
    }
  }
}

TEST(FilterPrecisionTest, WidenedThresholdKeepsAbandonmentSound) {
  ReducedPrecisionBound bound{0.125, 1e-3};
  double t = 10.0;
  double w = WidenedAbandonThreshold(t, bound);
  EXPECT_GT(w, t);
  // If approx > w then exact > t: check the algebra at the boundary.
  // exact >= (approx * (1 - rel) - add) / (1 + rel); plug approx = w.
  double exact_min = (w * (1.0 - bound.relative) - bound.additive) /
                     (1.0 + bound.relative);
  EXPECT_GE(exact_min, t - 1e-12);
  // Degenerate envelopes disable abandonment instead of mis-widening.
  EXPECT_TRUE(std::isinf(WidenedAbandonThreshold(t, {0.0, 1.0})));
  EXPECT_TRUE(std::isinf(
      WidenedAbandonThreshold(std::numeric_limits<double>::infinity(), bound)));
}

TEST(FilterPrecisionTest, QuantizeRoundTripsWithinHalfStep) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.Uniform(-5.0, 5.0);
    float scale = static_cast<float>(rng.Uniform(0.05, 0.1));
    int8_t qx = QuantizeToInt8(x, scale);
    if (FitsInt8(x, scale)) {
      EXPECT_LE(std::fabs(x - static_cast<double>(scale) * qx),
                0.5 * scale + 1e-9)
          << x << " scale " << scale;
    }
    EXPECT_GE(qx, -127);
    EXPECT_LE(qx, 127);
  }
  EXPECT_EQ(QuantizeToInt8(123.0, 0.0f), 0);  // Dead dimension.
  EXPECT_EQ(QuantizeToInt8(1e9, 0.5f), 127);  // Clamped.
  EXPECT_EQ(QuantizeToInt8(-1e9, 0.5f), -127);
}

}  // namespace
}  // namespace simd
}  // namespace qse
