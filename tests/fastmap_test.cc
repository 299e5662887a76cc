#include "src/embedding/fastmap.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/distance/lp.h"
#include "src/util/stats.h"
#include "tests/test_util.h"

namespace qse {
namespace {

/// Pearson correlation of two equal-length samples.
double Correlation(const std::vector<double>& xs,
                   const std::vector<double>& ys) {
  const double mx = Mean(xs), my = Mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  return sxy / std::sqrt(sxx * syy);
}

TEST(FastMapTest, BuildProducesRequestedDims) {
  auto oracle = test::MakePlaneOracle(40, 1);
  FastMapOptions options;
  options.dims = 2;
  FastMapModel model = BuildFastMap(oracle, test::Iota(40), options);
  EXPECT_EQ(model.dims(), 2u);
}

TEST(FastMapTest, StopsEarlyWhenSpaceExhausted) {
  // A 2D Euclidean space has no spread left after ~2 dimensions; asking
  // for many more must not produce garbage coordinates.
  auto oracle = test::MakePlaneOracle(30, 2);
  FastMapOptions options;
  options.dims = 20;
  FastMapModel model = BuildFastMap(oracle, test::Iota(30), options);
  EXPECT_LE(model.dims(), 20u);
  EXPECT_GE(model.dims(), 2u);
}

TEST(FastMapTest, PivotsAreDistinct) {
  auto oracle = test::MakePlaneOracle(30, 3);
  FastMapModel model = BuildFastMap(oracle, test::Iota(30), {});
  for (const auto& lv : model.levels()) {
    EXPECT_NE(lv.pivot_a, lv.pivot_b);
    EXPECT_GT(lv.dist_ab, 0.0);
  }
}

TEST(FastMapTest, EmbeddingPreservesEuclideanDistancesWell) {
  // On genuinely 2D Euclidean data a 2D FastMap embedding should
  // reconstruct pairwise distances almost exactly (it recovers an
  // isometry up to the pivot frame).
  auto oracle = test::MakePlaneOracle(25, 4);
  FastMapOptions options;
  options.dims = 2;
  FastMapModel model = BuildFastMap(oracle, test::Iota(25), options);
  std::vector<Vector> embedded(25);
  for (size_t i = 0; i < 25; ++i) {
    embedded[i] = model.Embed(
        [&](size_t o) { return o == i ? 0.0 : oracle.Distance(i, o); });
  }
  std::vector<double> true_d, emb_d;
  for (size_t i = 0; i < 25; ++i) {
    for (size_t j = i + 1; j < 25; ++j) {
      true_d.push_back(oracle.Distance(i, j));
      emb_d.push_back(L2Distance(embedded[i], embedded[j]));
    }
  }
  EXPECT_GT(Correlation(true_d, emb_d), 0.98);
}

TEST(FastMapTest, EmbedCostCountsUniquePivots) {
  auto oracle = test::MakePlaneOracle(30, 5);
  FastMapOptions options;
  options.dims = 2;
  FastMapModel model = BuildFastMap(oracle, test::Iota(30), options);
  size_t count = 0;
  model.Embed([&](size_t o) { return oracle.Distance(0, o); }, &count);
  EXPECT_EQ(count, model.EmbeddingCost());
  EXPECT_LE(count, 2 * model.dims());
}

TEST(FastMapTest, PrefixIsTruncation) {
  auto oracle = test::MakePlaneOracle(40, 6);
  FastMapOptions options;
  options.dims = 2;
  FastMapModel model = BuildFastMap(oracle, test::Iota(40), options);
  ASSERT_EQ(model.dims(), 2u);
  FastMapModel p1 = model.Prefix(1);
  EXPECT_EQ(p1.dims(), 1u);
  Vector full = model.Embed(
      [&](size_t o) { return oracle.Distance(3, o); });
  Vector pref = p1.Embed(
      [&](size_t o) { return oracle.Distance(3, o); });
  ASSERT_EQ(pref.size(), 1u);
  EXPECT_DOUBLE_EQ(pref[0], full[0]);
}

TEST(FastMapTest, DeterministicBySeed) {
  auto oracle = test::MakePlaneOracle(30, 7);
  FastMapOptions options;
  options.dims = 2;
  options.seed = 99;
  FastMapModel a = BuildFastMap(oracle, test::Iota(30), options);
  FastMapModel b = BuildFastMap(oracle, test::Iota(30), options);
  ASSERT_EQ(a.dims(), b.dims());
  for (size_t l = 0; l < a.dims(); ++l) {
    EXPECT_EQ(a.levels()[l].pivot_a, b.levels()[l].pivot_a);
    EXPECT_EQ(a.levels()[l].pivot_b, b.levels()[l].pivot_b);
  }
}

TEST(FastMapTest, HandlesNonMetricInputWithoutNan) {
  // A deliberately non-metric distance: squared Euclidean.  Residuals can
  // go negative; the clamp must keep coordinates finite.
  Rng rng(8);
  std::vector<Vector> pts;
  for (size_t i = 0; i < 20; ++i) {
    pts.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  ObjectOracle<Vector> oracle(
      std::move(pts), [](const Vector& a, const Vector& b) {
        return SquaredL2DistanceSpan(a.data(), b.data(), a.size());
      });
  FastMapOptions options;
  options.dims = 4;
  FastMapModel model = BuildFastMap(oracle, test::Iota(20), options);
  for (size_t i = 0; i < 20; ++i) {
    Vector e = model.Embed(
        [&](size_t o) { return o == i ? 0.0 : oracle.Distance(i, o); });
    for (double v : e) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(FastMapTest, PivotEmbeddingsHitEndpoints) {
  auto oracle = test::MakePlaneOracle(30, 9);
  FastMapOptions options;
  options.dims = 1;
  FastMapModel model = BuildFastMap(oracle, test::Iota(30), options);
  ASSERT_EQ(model.dims(), 1u);
  const auto& lv = model.levels()[0];
  Vector ea = model.Embed([&](size_t o) {
    return o == lv.pivot_a ? 0.0 : oracle.Distance(lv.pivot_a, o);
  });
  Vector eb = model.Embed([&](size_t o) {
    return o == lv.pivot_b ? 0.0 : oracle.Distance(lv.pivot_b, o);
  });
  EXPECT_NEAR(ea[0], 0.0, 1e-9);
  EXPECT_NEAR(eb[0], lv.dist_ab, 1e-9);
}

}  // namespace
}  // namespace qse
