#include "src/core/embedding1d.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/core/training_context.h"
#include "tests/test_util.h"

namespace qse {
namespace {

TEST(TrainingContextTest, MatricesMatchOracle) {
  auto oracle = test::MakePlaneOracle(20, 1);
  std::vector<size_t> cand = {0, 1, 2, 3};
  std::vector<size_t> train = {4, 5, 6, 7, 8, 9};
  TrainingContext ctx = TrainingContext::Build(oracle, cand, train);
  EXPECT_EQ(ctx.num_candidates(), 4u);
  EXPECT_EQ(ctx.num_train_objects(), 6u);
  EXPECT_DOUBLE_EQ(ctx.CandCand(0, 2), oracle.Distance(0, 2));
  EXPECT_DOUBLE_EQ(ctx.CandTrain(1, 3), oracle.Distance(1, 7));
  EXPECT_DOUBLE_EQ(ctx.TrainTrain(0, 5), oracle.Distance(4, 9));
}

TEST(TrainingContextTest, DiagonalIsZeroAndSymmetric) {
  auto oracle = test::MakePlaneOracle(10, 2);
  TrainingContext ctx =
      TrainingContext::Build(oracle, test::Iota(5), test::Iota(5, 5));
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(ctx.CandCand(i, i), 0.0);
    EXPECT_DOUBLE_EQ(ctx.TrainTrain(i, i), 0.0);
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(ctx.CandCand(i, j), ctx.CandCand(j, i));
      EXPECT_DOUBLE_EQ(ctx.TrainTrain(i, j), ctx.TrainTrain(j, i));
    }
  }
}

TEST(TrainingContextTest, SharedObjectBetweenCandAndTrainIsZero) {
  auto oracle = test::MakePlaneOracle(10, 3);
  // Candidate 2 is also training object index 0 (same db id 2).
  TrainingContext ctx =
      TrainingContext::Build(oracle, {0, 1, 2}, {2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(ctx.CandTrain(2, 0), 0.0);
}

TEST(TrainingContextTest, SharedSampleCallsEachOrderedDistanceOnce) {
  // C == Xtr over a deliberately asymmetric DX: DX(i, j) != DX(j, i), so
  // a value copied from the wrong ordered call shows.  The symmetric
  // matrices hold the call on (lower local index, higher local index),
  // mirrored; CandTrain holds the call on (candidate, training object).
  // Every value is finite and never -0, so == compares bits.
  test::FunctionOracle asymmetric(16, [](size_t i, size_t j) {
    return std::fabs(std::sin(0.7 * static_cast<double>(i)) -
                     std::cos(0.3 * static_cast<double>(j))) +
           0.01 * static_cast<double>(i);
  });
  CountingOracle counting(&asymmetric);
  const std::vector<size_t> ids = {9, 2, 14, 5, 11, 0, 7};
  const size_t n = ids.size();
  TrainingContext ctx = TrainingContext::Build(counting, ids, ids);
  EXPECT_EQ(counting.count(), n * (n - 1));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      SCOPED_TRACE(testing::Message() << "i=" << i << " j=" << j);
      double ordered = 0.0, mirrored = 0.0;
      if (i != j) {
        ordered = asymmetric.Distance(ids[i], ids[j]);
        mirrored =
            asymmetric.Distance(ids[std::min(i, j)], ids[std::max(i, j)]);
      }
      EXPECT_EQ(ctx.CandTrain(i, j), ordered);
      EXPECT_EQ(ctx.CandCand(i, j), mirrored);
      EXPECT_EQ(ctx.TrainTrain(i, j), mirrored);
    }
  }
}

TEST(TrainingContextTest, CandidateDbIdsPreserved) {
  auto oracle = test::MakePlaneOracle(10, 4);
  TrainingContext ctx =
      TrainingContext::Build(oracle, {7, 3, 9}, {0, 1, 2, 4});
  EXPECT_EQ(ctx.candidate_db_id(0), 7u);
  EXPECT_EQ(ctx.candidate_db_id(2), 9u);
}

TEST(PivotProjectionTest, CollinearPointsProjectExactly) {
  // On a line, the projection of x onto the segment (x1, x2) is the
  // signed distance from x1 — exactly Eq. 2 with the Pythagorean
  // interpretation of [12].
  double d12 = 10.0;
  // x at distance 3 from x1 (between the pivots): d1=3, d2=7.
  EXPECT_DOUBLE_EQ(PivotProjection(3, 7, d12), 3.0);
  // x beyond x2: d1=13, d2=3.
  EXPECT_DOUBLE_EQ(PivotProjection(13, 3, d12), 13.0);
  // x before x1: d1=2, d2=12.
  EXPECT_DOUBLE_EQ(PivotProjection(2, 12, d12), -2.0);
}

TEST(PivotProjectionTest, PivotsThemselvesProjectToEndpoints) {
  double d12 = 4.0;
  EXPECT_DOUBLE_EQ(PivotProjection(0, d12, d12), 0.0);
  EXPECT_DOUBLE_EQ(PivotProjection(d12, 0, d12), d12);
}

TEST(PivotProjectionTest, PlaneProjectionMatchesGeometry) {
  // In R^2 with Euclidean distance, Eq. 2 is the orthogonal projection
  // onto the pivot line.
  Vector x1 = {0, 0}, x2 = {4, 0}, x = {1, 2};
  double d1 = L2Distance(x, x1), d2 = L2Distance(x, x2);
  double proj = PivotProjection(d1, d2, 4.0);
  EXPECT_NEAR(proj, 1.0, 1e-12);  // x's first coordinate.
}

TEST(Embedding1DTest, ReferenceValueIsRowOfCandTrain) {
  auto oracle = test::MakePlaneOracle(12, 5);
  TrainingContext ctx =
      TrainingContext::Build(oracle, test::Iota(4), test::Iota(8, 4));
  Embedding1DSpec spec;
  spec.type = Embedding1DSpec::Type::kReference;
  spec.c1 = 2;
  for (size_t o = 0; o < 8; ++o) {
    EXPECT_DOUBLE_EQ(Eval1DOnTrainObject(spec, ctx, o), ctx.CandTrain(2, o));
  }
}

TEST(Embedding1DTest, PivotValueMatchesFormula) {
  auto oracle = test::MakePlaneOracle(12, 6);
  TrainingContext ctx =
      TrainingContext::Build(oracle, test::Iota(4), test::Iota(8, 4));
  Embedding1DSpec spec;
  spec.type = Embedding1DSpec::Type::kPivot;
  spec.c1 = 0;
  spec.c2 = 3;
  double d12 = ctx.CandCand(0, 3);
  for (size_t o = 0; o < 8; ++o) {
    double expected =
        PivotProjection(ctx.CandTrain(0, o), ctx.CandTrain(3, o), d12);
    EXPECT_NEAR(Eval1DOnTrainObject(spec, ctx, o), expected, 1e-12);
  }
}

TEST(Embedding1DTest, BatchEvalMatchesScalarEval) {
  auto oracle = test::MakePlaneOracle(16, 7);
  TrainingContext ctx =
      TrainingContext::Build(oracle, test::Iota(6), test::Iota(10, 6));
  for (auto type :
       {Embedding1DSpec::Type::kReference, Embedding1DSpec::Type::kPivot}) {
    Embedding1DSpec spec;
    spec.type = type;
    spec.c1 = 1;
    spec.c2 = 4;
    std::vector<double> batch(ctx.num_train_objects());
    Eval1DOnAllTrainObjects(spec, ctx, batch.data());
    for (size_t o = 0; o < batch.size(); ++o) {
      EXPECT_NEAR(batch[o], Eval1DOnTrainObject(spec, ctx, o), 1e-12);
    }
  }
}

TEST(Embedding1DTest, SpecEquality) {
  Embedding1DSpec a{Embedding1DSpec::Type::kReference, 1, 0};
  Embedding1DSpec b{Embedding1DSpec::Type::kReference, 1, 99};
  EXPECT_EQ(a, b);  // c2 ignored for reference type.
  Embedding1DSpec c{Embedding1DSpec::Type::kPivot, 1, 0};
  Embedding1DSpec d{Embedding1DSpec::Type::kPivot, 1, 99};
  EXPECT_FALSE(c == d);
}

}  // namespace
}  // namespace qse
