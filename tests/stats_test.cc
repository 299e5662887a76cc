#include "src/util/stats.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/util/matrix.h"
#include "src/util/top_k.h"

namespace qse {
namespace {

TEST(StatsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(StatsTest, QuantileNearestRankMatchesPaperSemantics) {
  // With p set to the B-quantile of per-query required p values, at least
  // B of the queries must succeed.
  std::vector<double> req = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(QuantileNearestRank(req, 0.9), 9.0);
  EXPECT_DOUBLE_EQ(QuantileNearestRank(req, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(QuantileNearestRank(req, 0.05), 1.0);
  EXPECT_DOUBLE_EQ(QuantileNearestRank(req, 0.0), 1.0);
}

TEST(StatsTest, QuantileOnUnsortedInput) {
  EXPECT_DOUBLE_EQ(QuantileNearestRank({9, 1, 5}, 0.5), 5.0);
}

TEST(StatsTest, QuantileCountGuarantee) {
  // Property: at least ceil(q * n) values are <= the returned quantile.
  std::vector<double> xs = {0.3, 0.1, 0.9, 0.5, 0.2, 0.8, 0.4};
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    double v = QuantileNearestRank(xs, q);
    size_t count = 0;
    for (double x : xs) {
      if (x <= v) ++count;
    }
    EXPECT_GE(count, static_cast<size_t>(
                         std::ceil(q * static_cast<double>(xs.size()))))
        << "q=" << q;
  }
}

TEST(StatsTest, MedianMinMax) {
  std::vector<double> xs = {3, 1, 2};
  EXPECT_DOUBLE_EQ(Min(xs), 1.0);
  EXPECT_DOUBLE_EQ(Max(xs), 3.0);
}

TEST(TopKTest, SmallestKReturnsSortedSmallest) {
  std::vector<double> scores = {5.0, 1.0, 4.0, 2.0, 3.0};
  auto top = SmallestK(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].index, 1u);
  EXPECT_EQ(top[1].index, 3u);
  EXPECT_EQ(top[2].index, 4u);
}

TEST(TopKTest, SmallestKClampsK) {
  auto top = SmallestK({1.0, 2.0}, 10);
  EXPECT_EQ(top.size(), 2u);
}

TEST(TopKTest, DeterministicTieBreakByIndex) {
  std::vector<double> scores = {1.0, 1.0, 1.0};
  auto top = SmallestK(scores, 2);
  EXPECT_EQ(top[0].index, 0u);
  EXPECT_EQ(top[1].index, 1u);
}

TEST(TopKTest, ArgsortAscending) {
  auto order = ArgsortAscending({3.0, 1.0, 2.0});
  EXPECT_EQ(order, (std::vector<size_t>{1, 2, 0}));
}

TEST(MatrixTest, StorageAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
  EXPECT_DOUBLE_EQ(m.Row(1)[2], 7.0);
}

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

}  // namespace
}  // namespace qse
