// Parity suite for the runtime-dispatched filter kernels: every ISA's
// float64 kernel is run against the scalar reference across dimension
// counts chosen to hit every remainder-loop edge, asserting
// bit-identity (the int8 prescreen kernel has its own differential
// suite, prescreen_scan_test.cc).  This TU compiles baseline
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

// Every remainder edge: below/at/above one f64 vector step (4, and 8
// on AVX-512), one abandon block (64), and a multi-block scan with
// tails (255..257).
const size_t kDims[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 255, 256, 257};

const double kInf64 = std::numeric_limits<double>::infinity();

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// One dimension count's worth of kernel inputs.
struct KernelInputs {
  std::vector<double> q, x, w;

  explicit KernelInputs(size_t d, uint64_t seed) {
    Rng rng(seed);
    q.resize(d);
    x.resize(d);
    w.resize(d);
    for (size_t j = 0; j < d; ++j) {
      q[j] = rng.Uniform(-2.0, 2.0);
      x[j] = rng.Uniform(-1.0, 1.0);
      w[j] = rng.Uniform(0.0, 3.0);
    }
  }
};

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

// The vector tiers take a reordered sweep when every sample is finite and
// the exact-order one otherwise (kernels.h).  At refine's shape (96
// samples, the window ConstrainedDtw(..., 0.1) gives them), one
// non-finite coordinate at either end of either series, or anywhere in
// it, must switch sweeps without changing a bit.  Dims 3 and 5 run the
// runtime-dims copy, 1 and 2 the specialised ones.
//
// A lone non-finite sample gives the same bits on either sweep (both min
// orders keep a NaN diagonal and drop a NaN up or left), so the second
// half pairs them: +inf in a's point p - 1 makes every cell of rows >= p
// +inf, and NaN in b's point p then lands a NaN cost on cell (p + 1,
// p + 1) of the main diagonal.  The row DP skips it and returns +inf; a
// call the finite check let through would add it and return NaN.
TEST(KernelParityTest, CdtwOneNonFiniteSampleAtRefineShapeOnEveryTier) {
  const double kNonFinite[] = {std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()};
  const size_t n = 96;
  const long window = 10;
  for (const Tier& tier : RunnableTiers()) {
    SCOPED_TRACE(SimdLevelName(tier.level));
    Rng rng(0x6000);
    for (size_t dims : {1, 2, 3, 5}) {
      const Series a = test::RandomSeries(&rng, dims, n);
      const Series b = test::RandomSeries(&rng, dims, n);
      const size_t len = n * dims;
      for (size_t at : {size_t{0}, len - 1, rng.Index(len)}) {
        for (double v : kNonFinite) {
          for (bool in_a : {true, false}) {
            Series x = a;
            Series y = b;
            (in_a ? x : y).values()[at] = v;
            EXPECT_TRUE(CdtwMatchesReference(tier.table, x, y, window))
                << dims << "-D, " << v << " at " << at << " of "
                << (in_a ? "a" : "b");
          }
        }
      }
      for (size_t p : {size_t{1}, n - 1, 1 + rng.Index(n - 1)}) {
        for (bool inf_in_a : {true, false}) {
          Series x = a;
          Series y = b;
          (inf_in_a ? x : y).values()[(p - 1) * dims] = kInf64;
          (inf_in_a ? y : x).values()[p * dims + dims - 1] =
              std::numeric_limits<double>::quiet_NaN();
          EXPECT_EQ(test::ReferenceCdtw(x, y, window), kInf64);
          EXPECT_TRUE(CdtwMatchesReference(tier.table, x, y, window))
              << dims << "-D, +inf at point " << p - 1 << " and NaN at "
              << p << ", +inf in " << (inf_in_a ? "a" : "b");
        }
      }
    }
  }
}

// Finite samples whose difference overflows: the cost is +inf with no
// NaN anywhere, so the finite sweep runs and must add +inf costs exactly
// as the row DP does, including when every path is +inf.
TEST(KernelParityTest, CdtwOverflowingFiniteDifferencesOnEveryTier) {
  const double kHuge = 1e308;
  for (const Tier& tier : RunnableTiers()) {
    SCOPED_TRACE(SimdLevelName(tier.level));
    Rng rng(0x7000);
    for (size_t dims : {1, 2, 3, 5}) {
      for (size_t n : {size_t{17}, size_t{96}}) {
        for (int rep = 0; rep < 8; ++rep) {
          Series a = test::RandomSeries(&rng, dims, n);
          Series b = test::RandomSeries(&rng, dims, n);
          for (size_t k = 1 + rng.Index(4); k > 0; --k) {
            const size_t at = rng.Index(n * dims);
            const double sign = rng.Index(2) == 0 ? 1.0 : -1.0;
            a.values()[at] = sign * kHuge;
            b.values()[rng.Index(2) == 0 ? at : rng.Index(n * dims)] =
                -sign * kHuge;
          }
          for (long window : {0L, 2L, 10L, 14L}) {
            EXPECT_TRUE(CdtwMatchesReference(tier.table, a, b, window))
                << dims << "-D, length " << n << ", window " << window;
          }
        }
        // Every cost +inf: the distance is +inf on every path.
        Series a(dims, std::vector<double>(n * dims, kHuge));
        Series b(dims, std::vector<double>(n * dims, -kHuge));
        EXPECT_TRUE(CdtwMatchesReference(tier.table, a, b, 10));
        EXPECT_EQ(tier.table->cdtw_f64(a.values().data(), n,
                                       b.values().data(), n, dims, 10),
                  kInf64);
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

// --- Int8 quantization ---------------------------------------------------

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
