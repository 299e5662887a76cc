#include "src/util/random.h"

#include <algorithm>
#include <random>
#include <set>

#include <gtest/gtest.h>

namespace qse {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 20; ++i) {
    if (a.UniformInt(0, 1 << 30) != b.UniformInt(0, 1 << 30)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, IndexCoversRange) {
  Rng rng(7);
  std::set<size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(RngTest, UniformInHalfOpenRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian(1.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, GaussianStreamMatchesStdNormalDistribution) {
  // The draw that keeps stddev == 0 legal must not move any stream with
  // stddev > 0: a fresh std::normal_distribution per call, as before.
  Rng rng(17);
  std::mt19937_64 engine(17);
  for (int i = 0; i < 1000; ++i) {
    const double mean = 0.25 * (i % 7) - 0.5;
    const double stddev = 0.01 + 0.5 * (i % 5);
    std::normal_distribution<double> dist(mean, stddev);
    const double want = dist(engine);
    EXPECT_EQ(rng.Gaussian(mean, stddev), want) << "draw " << i;
  }
}

TEST(RngTest, GaussianZeroStddevReturnsMean) {
  Rng rng(19);
  for (double mean : {0.0, 1.5, -3.0}) {
    EXPECT_EQ(rng.Gaussian(mean, 0.0), mean);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(17);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(19);
  auto sample = rng.SampleWithoutReplacement(5, 5);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(sample, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace qse
