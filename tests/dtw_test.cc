#include "src/distance/dtw.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/timeseries_generator.h"
#include "src/util/random.h"
#include "tests/cdtw_reference.h"

namespace qse {
namespace {

Series S(std::vector<double> v) { return Series(1, std::move(v)); }

/// Unconstrained DTW: a window of max(n, m) spans every cell.
double FullDtw(const Series& a, const Series& b) {
  return ConstrainedDtwWindow(
      a, b, static_cast<long>(std::max(a.length(), b.length())));
}

using test::RandomSeries;
using test::ReferenceCdtw;
using test::SameBits;

/// Per-dimension min/max scan through the bounds-checked accessor; the
/// oracle for BuildEnvelope.
DtwEnvelope NaiveEnvelope(const Series& s, long window) {
  DtwEnvelope env;
  env.dims = s.dims();
  env.lower.assign(s.values().size(), 0.0);
  env.upper.assign(s.values().size(), 0.0);
  const long n = static_cast<long>(s.length());
  const long w = window + 1;
  for (long t = 0; t < n; ++t) {
    for (size_t d = 0; d < s.dims(); ++d) {
      double mn = std::numeric_limits<double>::infinity();
      double mx = -mn;
      for (long u = std::max<long>(0, t - w);
           u <= std::min<long>(n - 1, t + w); ++u) {
        mn = std::min(mn, s.at(static_cast<size_t>(u), d));
        mx = std::max(mx, s.at(static_cast<size_t>(u), d));
      }
      env.lower[static_cast<size_t>(t) * s.dims() + d] = mn;
      env.upper[static_cast<size_t>(t) * s.dims() + d] = mx;
    }
  }
  return env;
}

TEST(SeriesTest, LayoutAndAccess) {
  Series s(2, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(s.dims(), 2u);
  EXPECT_EQ(s.length(), 3u);
  EXPECT_DOUBLE_EQ(s.at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(s.at(2, 1), 6.0);
}

TEST(SeriesTest, SubtractMeanCentersEachDimension) {
  Series s(2, {1, 10, 3, 30, 5, 50});
  s.SubtractMean();
  double m0 = (s.at(0, 0) + s.at(1, 0) + s.at(2, 0)) / 3.0;
  double m1 = (s.at(0, 1) + s.at(1, 1) + s.at(2, 1)) / 3.0;
  EXPECT_NEAR(m0, 0.0, 1e-12);
  EXPECT_NEAR(m1, 0.0, 1e-12);
}

TEST(SeriesTest, ResampledPreservesEndpointsAndLength) {
  Series s = S({0, 1, 2, 3, 4});
  Series r = s.Resampled(9);
  EXPECT_EQ(r.length(), 9u);
  EXPECT_DOUBLE_EQ(r.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(r.at(8, 0), 4.0);
  // Midpoint interpolates linearly.
  EXPECT_NEAR(r.at(4, 0), 2.0, 1e-12);
}

TEST(DtwTest, IdenticalSeriesHaveZeroDistance) {
  Series a = S({1, 2, 3, 2, 1});
  EXPECT_DOUBLE_EQ(ConstrainedDtw(a, a, 0.1), 0.0);
  EXPECT_DOUBLE_EQ(FullDtw(a, a), 0.0);
}

TEST(DtwTest, KnownSmallExample) {
  // With a wide band, DTW({0,0,1},{0,1}) aligns 0-0, 0-0, 1-1 => cost 0.
  EXPECT_DOUBLE_EQ(FullDtw(S({0, 0, 1}), S({0, 1})), 0.0);
  // DTW({0,3},{0,0}) must pay |3| at the end point.
  EXPECT_DOUBLE_EQ(FullDtw(S({0, 3}), S({0, 0})), 3.0);
}

TEST(DtwTest, SymmetricForEqualLengths) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> av(30), bv(30);
    for (size_t i = 0; i < 30; ++i) {
      av[i] = rng.Uniform(-1, 1);
      bv[i] = rng.Uniform(-1, 1);
    }
    Series a = S(av), b = S(bv);
    EXPECT_NEAR(ConstrainedDtw(a, b, 0.1), ConstrainedDtw(b, a, 0.1), 1e-9);
  }
}

TEST(DtwTest, EmptySeriesGivesInfinity) {
  EXPECT_TRUE(std::isinf(FullDtw(Series(), S({1, 2}))));
}

TEST(DtwTest, ShiftedSpikeCheaperThanL1) {
  // The classic DTW motivation: a time-shifted pattern matches cheaply.
  Series a = S({0, 0, 5, 0, 0, 0});
  Series b = S({0, 0, 0, 5, 0, 0});
  double dtw = ConstrainedDtw(a, b, 0.34);
  double l1 = 0.0;
  for (size_t i = 0; i < a.length(); ++i) {
    l1 += std::fabs(a.at(i, 0) - b.at(i, 0));
  }
  EXPECT_LT(dtw, l1);
  EXPECT_NEAR(dtw, 0.0, 1e-12);
}

TEST(DtwTest, BandMonotonicity) {
  // Widening the warping window can only lower (or keep) the cost.
  Rng rng(7);
  std::vector<double> av(50), bv(50);
  for (size_t i = 0; i < 50; ++i) {
    av[i] = std::sin(0.3 * static_cast<double>(i));
    bv[i] = std::sin(0.3 * static_cast<double>(i) + 0.7) +
            rng.Gaussian(0, 0.05);
  }
  Series a = S(av), b = S(bv);
  double prev = ConstrainedDtwWindow(a, b, 0);
  for (long w : {1, 2, 4, 8, 16, 32, 50}) {
    double cur = ConstrainedDtwWindow(a, b, w);
    EXPECT_LE(cur, prev + 1e-9) << "window " << w;
    prev = cur;
  }
}

TEST(DtwTest, ZeroWindowDegeneratesTowardsL1) {
  // Window 0 (with the connectivity slack of 1) is close to pointwise
  // alignment for equal lengths; for a series pair with identical shape
  // it still finds cost 0.
  Series a = S({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(ConstrainedDtwWindow(a, a, 0), 0.0);
}

TEST(DtwTest, MultiDimensionalUsesL1GroundCost) {
  Series a(2, {0, 0, 0, 0});
  Series b(2, {1, 2, 1, 2});
  // Both points differ by |1| + |2| = 3; best alignment is diagonal.
  EXPECT_DOUBLE_EQ(FullDtw(a, b), 6.0);
}

TEST(DtwTest, VariableLengthsSupported) {
  Series a = S({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  Series b = a.Resampled(7);
  double d = ConstrainedDtw(a, b, 0.3);
  EXPECT_TRUE(std::isfinite(d));
  EXPECT_LE(d, 4.0);  // Same shape, only resampled.
}

TEST(DtwTest, TriangleInequalityViolationExists) {
  // cDTW is non-metric (paper Sec. 10); exhibit a violation: the short
  // middle series b lets both sides absorb the level change cheaply
  // (DTW(a,b) = DTW(b,c) = 2) while DTW(a,c) pays it at every sample.
  Series a = S({0, 0, 0, 0});
  Series b = S({0, 2});
  Series c = S({2, 2, 2, 2});
  double ab = FullDtw(a, b), bc = FullDtw(b, c), ac = FullDtw(a, c);
  EXPECT_GT(ac, ab + bc);
}

TEST(DtwTest, KernelMatchesReferenceBitForBit) {
  // Random pairs over several dims, equal and unequal lengths, and
  // windows from 0 to past the longer length.  Consecutive calls differ
  // in length, so stale per-thread scratch would surface as a mismatch.
  Rng rng(2024);
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {1, 50}, {50, 1}, {30, 30}, {7, 19}, {1, 1}, {64, 41},
      {2, 3},  {41, 64}, {50, 50}, {19, 7}, {96, 96}, {5, 80},
      {30, 600}, {600, 30}};
  size_t checks = 0, mismatches = 0;
  for (size_t dims : {1, 2, 3, 5}) {
    for (int rep = 0; rep < 4; ++rep) {
      for (const auto& [n, m] : shapes) {
        Series a = RandomSeries(&rng, dims, n);
        Series b = RandomSeries(&rng, dims, m);
        long tenth = static_cast<long>(
            std::ceil(0.1 * static_cast<double>(std::min(n, m))));
        long longest = static_cast<long>(std::max(n, m));
        for (long window : {0L, 1L, tenth, longest, longest + 7}) {
          ++checks;
          if (!SameBits(ConstrainedDtwWindow(a, b, window),
                        ReferenceCdtw(a, b, window))) {
            ++mismatches;
            ADD_FAILURE() << dims << "-D " << n << " vs " << m
                          << ", window " << window;
          }
        }
      }
    }
  }
  // Non-finite samples make the min order and the "+inf stays +inf"
  // rule observable: inf - inf is NaN, and where a NaN lands in the
  // min chain decides whether it propagates.
  const double kNonFinite[] = {std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()};
  for (size_t dims : {1, 2, 3}) {
    for (int rep = 0; rep < 30; ++rep) {
      size_t n = 2 + rng.Index(20), m = 2 + rng.Index(20);
      Series a = RandomSeries(&rng, dims, n);
      Series b = RandomSeries(&rng, dims, m);
      for (int k = 0; k < 2; ++k) {
        a.values()[rng.Index(a.values().size())] = kNonFinite[rng.Index(3)];
        b.values()[rng.Index(b.values().size())] = kNonFinite[rng.Index(3)];
      }
      for (long window : {0L, 2L, 30L}) {
        ++checks;
        if (!SameBits(ConstrainedDtwWindow(a, b, window),
                      ReferenceCdtw(a, b, window))) {
          ++mismatches;
          ADD_FAILURE() << "non-finite " << dims << "-D " << n << " vs " << m
                        << ", window " << window;
        }
      }
    }
  }
  // The refine workload's shape: 96 samples x 2 dims, fixed and variable
  // length, at the 10% band ConstrainedDtw uses and a few absolute ones.
  for (bool fixed : {true, false}) {
    TimeSeriesGeneratorParams params;
    params.fixed_length = fixed;
    TimeSeriesGenerator gen(params, fixed ? 31 : 32);
    std::vector<Series> series = gen.Generate(24);
    for (size_t i = 0; i < series.size(); ++i) {
      for (size_t j = 0; j < series.size(); ++j) {
        const Series& a = series[i];
        const Series& b = series[j];
        long tenth = static_cast<long>(std::ceil(
            0.1 * static_cast<double>(std::min(a.length(), b.length()))));
        for (long window : {tenth, 0L, 3L, 40L, 200L}) {
          ++checks;
          double want = ReferenceCdtw(a, b, window);
          if (!SameBits(ConstrainedDtwWindow(a, b, window), want) ||
              (window == tenth && !SameBits(ConstrainedDtw(a, b), want))) {
            ++mismatches;
            ADD_FAILURE() << "generated pair " << i << ", " << j
                          << ", window " << window;
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checks << " checks";
}

TEST(DtwTest, ConcurrentCallsMatchSerial) {
  // Each call owns its DP rows; four threads scoring the same
  // mixed-length set, each in its own order, must equal a serial pass.
  TimeSeriesGeneratorParams params;
  params.length_jitter = 0.5;
  TimeSeriesGenerator gen(params, 9);
  std::vector<Series> series = gen.Generate(12);
  Rng rng(10);
  series.push_back(RandomSeries(&rng, 2, 1));
  series.push_back(RandomSeries(&rng, 2, 300));
  const size_t k = series.size();
  std::vector<double> serial(k * k);
  for (size_t p = 0; p < k * k; ++p) {
    serial[p] = ConstrainedDtw(series[p / k], series[p % k]);
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> got(kThreads, std::vector<double>(k * k));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Rotated by thread, and reversed on odd threads.
      for (int rep = 0; rep < 5; ++rep) {
        for (size_t q = 0; q < k * k; ++q) {
          size_t p = (q + static_cast<size_t>(t + rep) * k) % (k * k);
          if (t % 2 == 1) p = k * k - 1 - p;
          got[t][p] = ConstrainedDtw(series[p / k], series[p % k]);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t p = 0; p < k * k; ++p) {
      EXPECT_TRUE(SameBits(got[t][p], serial[p]))
          << "thread " << t << ", pair " << p / k << ", " << p % k;
    }
  }
}

TEST(DtwTest, HugeWindowEqualsUnconstrained) {
  Rng rng(12);
  Series a = RandomSeries(&rng, 2, 40);
  Series b = RandomSeries(&rng, 2, 23);
  EXPECT_EQ(ConstrainedDtwWindow(a, b, LONG_MAX), FullDtw(a, b));
  EXPECT_EQ(ConstrainedDtwWindow(b, a, LONG_MAX), FullDtw(b, a));
}

TEST(DtwDeathTest, MismatchedDimsAbort) {
  Series a(2, {0, 0, 1, 1});
  Series b = S({0, 1, 2, 3});
  EXPECT_DEATH(ConstrainedDtwWindow(a, b, 3), "dims");
  DtwEnvelope env = BuildEnvelope(b, 1);
  Series c(2, {0, 0, 1, 1, 2, 2, 3, 3});
  EXPECT_DEATH(LbKeogh(env, c), "dims");
}

TEST(EnvelopeTest, MatchesNaivePerDimensionScan) {
  Rng rng(13);
  for (size_t dims : {1, 2, 3}) {
    for (size_t length : {1, 9, 96}) {
      Series s = RandomSeries(&rng, dims, length);
      for (long window : {0L, 1L, 10L, 200L}) {
        DtwEnvelope got = BuildEnvelope(s, window);
        DtwEnvelope want = NaiveEnvelope(s, window);
        EXPECT_EQ(got.dims, want.dims);
        EXPECT_EQ(got.lower, want.lower) << dims << "x" << length << " w"
                                         << window;
        EXPECT_EQ(got.upper, want.upper) << dims << "x" << length << " w"
                                         << window;
      }
    }
  }
}

TEST(EnvelopeTest, ContainsTheSeries) {
  Rng rng(11);
  std::vector<double> v(40);
  for (double& x : v) x = rng.Uniform(-3, 3);
  Series s = S(v);
  DtwEnvelope env = BuildEnvelope(s, 5);
  ASSERT_EQ(env.length(), s.length());
  for (size_t t = 0; t < s.length(); ++t) {
    EXPECT_LE(env.lower[t], s.at(t, 0));
    EXPECT_GE(env.upper[t], s.at(t, 0));
  }
}

TEST(EnvelopeTest, WiderWindowWidensEnvelope) {
  Series s = S({0, 5, 0, -5, 0, 5, 0});
  DtwEnvelope narrow = BuildEnvelope(s, 0);
  DtwEnvelope wide = BuildEnvelope(s, 3);
  for (size_t t = 0; t < s.length(); ++t) {
    EXPECT_LE(wide.lower[t], narrow.lower[t]);
    EXPECT_GE(wide.upper[t], narrow.upper[t]);
  }
}

TEST(LbKeoghTest, ZeroWhenInsideEnvelope) {
  Series q = S({0, 1, 2, 1, 0});
  DtwEnvelope env = BuildEnvelope(q, 2);
  EXPECT_DOUBLE_EQ(LbKeogh(env, q), 0.0);
}

class LbKeoghLowerBound : public testing::TestWithParam<long> {};

TEST_P(LbKeoghLowerBound, HoldsOnRandomSeries) {
  // The fundamental LB property: LbKeogh(env(q,w), c) <= cDTW_w(q, c).
  const long window = GetParam();
  Rng rng(101 + static_cast<uint64_t>(window));
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> qv(32), cv(32);
    for (size_t i = 0; i < 32; ++i) {
      qv[i] = rng.Uniform(-2, 2);
      cv[i] = rng.Uniform(-2, 2);
    }
    Series q = S(qv), c = S(cv);
    DtwEnvelope env = BuildEnvelope(q, window);
    double lb = LbKeogh(env, c);
    double exact = ConstrainedDtwWindow(q, c, window);
    EXPECT_LE(lb, exact + 1e-9) << "window " << window;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, LbKeoghLowerBound,
                         testing::Values(0L, 1L, 2L, 4L, 8L, 16L));

TEST(LbKeoghTest, MultiDimensionalLowerBound) {
  TimeSeriesGeneratorParams params;
  params.dims = 3;
  params.base_length = 40;
  params.fixed_length = true;
  TimeSeriesGenerator gen(params, 77);
  Series q = gen.MakeVariant(0);
  DtwEnvelope env = BuildEnvelope(q, 4);
  for (size_t i = 1; i < 8; ++i) {
    Series c = gen.MakeVariant(i);
    EXPECT_LE(LbKeogh(env, c), ConstrainedDtwWindow(q, c, 4) + 1e-9);
  }
}

/// LbKeogh as a branchy loop: the reference it must match bit for bit.
double BranchyLbKeogh(const DtwEnvelope& env, const Series& c) {
  double lb = 0.0;
  for (size_t i = 0; i < c.values().size(); ++i) {
    double v = c.values()[i];
    if (v > env.upper[i]) {
      lb += v - env.upper[i];
    } else if (v < env.lower[i]) {
      lb += env.lower[i] - v;
    }
  }
  return lb;
}

TEST(LbKeoghTest, MatchesBranchyLoopBitForBit) {
  // Random series, some samples replaced by NaN or +-inf, and queries
  // whose runs of NaN leave all-NaN windows (lower = +inf, upper = -inf).
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {kNaN, kInf, -kInf};
  Rng rng(31);
  size_t cases = 0, mismatches = 0;
  for (size_t dims : {1, 2, 3}) {
    for (size_t length : {1, 7, 96}) {
      for (int trial = 0; trial < 40; ++trial) {
        Series q = RandomSeries(&rng, dims, length);
        Series c = RandomSeries(&rng, dims, length);
        const int kind = trial % 4;  // finite, specials, NaN q, half-NaN q
        if (kind == 1) {
          for (double& x : c.values()) {
            if (rng.Index(4) == 0) x = specials[rng.Index(3)];
          }
          for (double& x : q.values()) {
            if (rng.Index(8) == 0) x = specials[rng.Index(3)];
          }
        } else if (kind >= 2) {
          // All of q, or its first half, so finite windows border NaN ones.
          std::vector<double>& qv = q.values();
          const size_t run = kind == 2 ? qv.size() : qv.size() / 2;
          std::fill(qv.begin(), qv.begin() + run, kNaN);
          c.values()[rng.Index(c.values().size())] = kNaN;
        }
        for (long window : {0L, 1L, 10L}) {
          DtwEnvelope env = BuildEnvelope(q, window);
          ++cases;
          if (!SameBits(LbKeogh(env, c), BranchyLbKeogh(env, c))) {
            ++mismatches;
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << cases << " envelope/series pairs";
}

}  // namespace
}  // namespace qse
