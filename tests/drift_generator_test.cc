// Tests for the drifting distance oracle behind the drift suites:
// the DriftFactor schedule algebra, seed determinism, the step clock's
// effect on distances, and position/distance consistency.
#include "tests/drift_generator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tests/test_util.h"

namespace qse {
namespace {

TEST(DriftFactorTest, NoneIsAlwaysZero) {
  DriftSchedule schedule;  // kNone
  for (size_t step : {0u, 1u, 100u, 100000u}) {
    EXPECT_EQ(DriftFactor(schedule, step), 0.0) << "step " << step;
  }
}

TEST(DriftFactorTest, AbruptStepsFromZeroToOneAtOnset) {
  DriftSchedule schedule = test::AbruptDrift(/*onset=*/10);
  EXPECT_EQ(DriftFactor(schedule, 0), 0.0);
  EXPECT_EQ(DriftFactor(schedule, 9), 0.0);
  EXPECT_EQ(DriftFactor(schedule, 10), 1.0);
  EXPECT_EQ(DriftFactor(schedule, 1000), 1.0);
}

TEST(DriftFactorTest, GradualRampsLinearlyAndSaturates) {
  DriftSchedule schedule = test::GradualDrift(/*onset=*/10, /*ramp=*/5);
  EXPECT_EQ(DriftFactor(schedule, 9), 0.0);
  EXPECT_DOUBLE_EQ(DriftFactor(schedule, 10), 0.2);
  EXPECT_DOUBLE_EQ(DriftFactor(schedule, 12), 0.6);
  EXPECT_DOUBLE_EQ(DriftFactor(schedule, 14), 1.0);
  EXPECT_DOUBLE_EQ(DriftFactor(schedule, 500), 1.0);
}

TEST(DriftFactorTest, RecurrentAlternatesDriftedAndCleanBlocks) {
  DriftSchedule schedule = test::RecurrentDrift(/*onset=*/4, /*period=*/3);
  EXPECT_EQ(DriftFactor(schedule, 3), 0.0);  // pre-onset
  for (size_t s = 4; s < 7; ++s) EXPECT_EQ(DriftFactor(schedule, s), 1.0);
  for (size_t s = 7; s < 10; ++s) EXPECT_EQ(DriftFactor(schedule, s), 0.0);
  for (size_t s = 10; s < 13; ++s) EXPECT_EQ(DriftFactor(schedule, s), 1.0);
}

TEST(DriftingPointOracleTest, SameSeedIsDeterministic) {
  DriftingPointOracle a(20, 3, test::AbruptDrift(5), 99);
  DriftingPointOracle b(20, 3, test::AbruptDrift(5), 99);
  DriftingPointOracle c(20, 3, test::AbruptDrift(5), 100);
  a.SetStep(7);
  b.SetStep(7);
  c.SetStep(7);
  bool any_differs = false;
  for (size_t i = 0; i < 20; ++i) {
    for (size_t j = 0; j < 20; ++j) {
      EXPECT_EQ(a.Distance(i, j), b.Distance(i, j)) << i << "," << j;
      if (a.Distance(i, j) != c.Distance(i, j)) any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);  // a different seed is a different space
}

TEST(DriftingPointOracleTest, DistancesFrozenUntilOnsetThenChange) {
  DriftingPointOracle oracle(30, 2, test::AbruptDrift(8, 0.35), 7);
  std::vector<double> at_zero;
  for (size_t i = 0; i < 30; ++i) at_zero.push_back(oracle.Distance(0, i));
  oracle.SetStep(7);  // last clean step
  EXPECT_EQ(oracle.CurrentDisplacement(), 0.0);
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(oracle.Distance(0, i), at_zero[i]) << "i=" << i;
  }
  oracle.SetStep(8);  // onset
  EXPECT_DOUBLE_EQ(oracle.CurrentDisplacement(), 0.35);
  bool any_changed = false;
  for (size_t i = 1; i < 30; ++i) {
    if (oracle.Distance(0, i) != at_zero[i]) any_changed = true;
  }
  EXPECT_TRUE(any_changed);
}

TEST(DriftingPointOracleTest, MetricBasicsHoldWhileDrifted) {
  DriftingPointOracle oracle(25, 4, test::AbruptDrift(0, 0.5), 21);
  oracle.SetStep(3);
  for (size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(oracle.Distance(i, i), 0.0);
    for (size_t j = i + 1; j < 25; ++j) {
      EXPECT_EQ(oracle.Distance(i, j), oracle.Distance(j, i));
      EXPECT_GT(oracle.Distance(i, j), 0.0);
    }
  }
}

TEST(DriftingPointOracleTest, DistanceMatchesDisplacedPositions) {
  DriftingPointOracle oracle(10, 3, test::GradualDrift(2, 10, 0.4), 5);
  oracle.SetStep(6);  // mid-ramp: factor 0.5, displacement 0.2
  EXPECT_DOUBLE_EQ(oracle.CurrentDisplacement(), 0.2);
  for (size_t i = 0; i < 10; ++i) {
    for (size_t j = 0; j < 10; ++j) {
      Vector pi = oracle.PositionAt(i);
      Vector pj = oracle.PositionAt(j);
      double sum = 0;
      for (size_t c = 0; c < pi.size(); ++c) {
        sum += (pi[c] - pj[c]) * (pi[c] - pj[c]);
      }
      EXPECT_NEAR(oracle.Distance(i, j), std::sqrt(sum), 1e-12);
    }
  }
}

TEST(DriftingPointOracleTest, RecurrentReturnsExactlyToBaseGeometry) {
  DriftingPointOracle oracle(15, 2, test::RecurrentDrift(4, 4, 0.3), 3);
  std::vector<double> clean;
  for (size_t i = 0; i < 15; ++i) clean.push_back(oracle.Distance(1, i));
  oracle.SetStep(5);  // drifted block
  EXPECT_DOUBLE_EQ(oracle.CurrentDisplacement(), 0.3);
  oracle.SetStep(9);  // clean block: bit-identical to the base geometry
  EXPECT_EQ(oracle.CurrentDisplacement(), 0.0);
  for (size_t i = 0; i < 15; ++i) {
    EXPECT_EQ(oracle.Distance(1, i), clean[i]) << "i=" << i;
  }
}

TEST(DriftingPointOracleTest, NamesAreStable) {
  EXPECT_STREQ(DriftKindName(DriftKind::kNone), "none");
  EXPECT_STREQ(DriftKindName(DriftKind::kAbrupt), "abrupt");
  EXPECT_STREQ(DriftKindName(DriftKind::kGradual), "gradual");
  EXPECT_STREQ(DriftKindName(DriftKind::kRecurrent), "recurrent");
}

}  // namespace
}  // namespace qse
