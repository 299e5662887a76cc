#include <gtest/gtest.h>

#include "src/distance/lp.h"
#include "src/distance/point_set.h"
#include "src/distance/weighted_l1.h"
#include "src/util/random.h"

namespace qse {
namespace {

TEST(LpTest, KnownValues) {
  Vector a = {0, 0}, b = {3, 4};
  EXPECT_DOUBLE_EQ(L1Distance(a, b), 7.0);
  EXPECT_DOUBLE_EQ(L2Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(SquaredL2DistanceSpan(a.data(), b.data(), a.size()), 25.0);
}

class LpMetricAxioms : public testing::TestWithParam<double> {};

TEST_P(LpMetricAxioms, SatisfiedOnRandomVectors) {
  double p = GetParam();
  Rng rng(42);
  auto random_vec = [&](size_t d) {
    Vector v(d);
    for (double& x : v) x = rng.Uniform(-10, 10);
    return v;
  };
  auto dist = [&](const Vector& a, const Vector& b) {
    return p == 1.0 ? L1Distance(a, b) : L2Distance(a, b);
  };
  for (int trial = 0; trial < 40; ++trial) {
    Vector a = random_vec(8), b = random_vec(8), c = random_vec(8);
    // Non-negativity + identity.
    EXPECT_GE(dist(a, b), 0.0);
    EXPECT_NEAR(dist(a, a), 0.0, 1e-12);
    // Symmetry.
    EXPECT_NEAR(dist(a, b), dist(b, a), 1e-12);
    // Triangle inequality (the property non-metric DX like DTW lack).
    EXPECT_LE(dist(a, c), dist(a, b) + dist(b, c) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllP, LpMetricAxioms,
                         testing::Values(1.0, 2.0));

TEST(WeightedL1Test, MatchesManualComputation) {
  Vector a = {1, 2, 3}, b = {2, 0, 3}, w = {0.5, 2.0, 10.0};
  EXPECT_DOUBLE_EQ(WeightedL1Distance(a, b, w), 0.5 * 1 + 2.0 * 2 + 0.0);
}

TEST(WeightedL1Test, UnitWeightsReduceToL1) {
  Rng rng(1);
  Vector a(16), b(16), w(16, 1.0);
  for (size_t i = 0; i < 16; ++i) {
    a[i] = rng.Uniform(-5, 5);
    b[i] = rng.Uniform(-5, 5);
  }
  EXPECT_NEAR(WeightedL1Distance(a, b, w), L1Distance(a, b), 1e-12);
}

TEST(WeightedL1Test, ZeroWeightIgnoresCoordinate) {
  Vector a = {0, 100}, b = {0, -100}, w = {1.0, 0.0};
  EXPECT_DOUBLE_EQ(WeightedL1Distance(a, b, w), 0.0);
}

TEST(WeightedL1Test, ScalesLinearlyInWeights) {
  Vector a = {1, 4}, b = {3, 1}, w = {2.0, 3.0};
  Vector w2 = {4.0, 6.0};
  EXPECT_NEAR(WeightedL1Distance(a, b, w2),
              2.0 * WeightedL1Distance(a, b, w), 1e-12);
}

TEST(PointSetTest, CentroidAndNormalization) {
  PointSet ps;
  ps.points = {{0, 0}, {2, 0}, {1, 3}};
  Point2 c = ps.Centroid();
  EXPECT_DOUBLE_EQ(c.x, 1.0);
  EXPECT_DOUBLE_EQ(c.y, 1.0);
  ps.CenterAtOrigin();
  Point2 c2 = ps.Centroid();
  EXPECT_NEAR(c2.x, 0.0, 1e-12);
  EXPECT_NEAR(c2.y, 0.0, 1e-12);
}

TEST(PointSetTest, MeanPairwiseDistance) {
  PointSet ps;
  ps.points = {{0, 0}, {2, 0}};
  EXPECT_DOUBLE_EQ(ps.MeanPairwiseDistance(), 2.0);
  PointSet single;
  single.points = {{1, 1}};
  EXPECT_DOUBLE_EQ(single.MeanPairwiseDistance(), 0.0);
}

}  // namespace
}  // namespace qse
