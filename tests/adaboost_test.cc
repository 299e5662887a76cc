#include "src/core/adaboost.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/core/triple_sampler.h"
#include "tests/test_util.h"

namespace qse {
namespace {

/// True unless the splitter interval [lo, hi] is the whole line.
bool HasSplitter(const WeakClassifier& wc) {
  return wc.lo != -INFINITY || wc.hi != INFINITY;
}

struct BoostFixture {
  ObjectOracle<Vector> oracle;
  TrainingContext ctx;
  std::vector<Triple> triples;
};

BoostFixture MakeSetup(size_t n_cand, size_t n_train, size_t n_triples,
                uint64_t seed, bool selective = false) {
  auto oracle = test::MakePlaneOracle(n_cand + n_train, seed);
  TrainingContext ctx = TrainingContext::Build(
      oracle, test::Iota(n_cand), test::Iota(n_train, n_cand));
  Rng rng(seed + 1);
  auto triples =
      selective
          ? SampleSelectiveTriples(ctx.train_train_matrix(), n_triples, 3,
                                   &rng)
          : SampleRandomTriples(ctx.train_train_matrix(), n_triples, &rng);
  return {std::move(oracle), std::move(ctx), std::move(triples)};
}

TEST(MinimizeZTest, PerfectClassifierGetsLargePositiveAlpha) {
  // All margins positive: alpha should hit the numeric cap and Z ~ 0.
  std::vector<double> w = {0.5, 0.5};
  std::vector<double> s = {1.0, 2.0};
  double z = 1.0;
  double alpha = MinimizeZ(w, s, 0.0, &z);
  EXPECT_GT(alpha, 1.0);
  EXPECT_LT(z, 0.01);
}

TEST(MinimizeZTest, AntiClassifierGetsNegativeAlpha) {
  std::vector<double> w = {0.5, 0.5};
  std::vector<double> s = {-1.0, -2.0};
  double z = 1.0;
  double alpha = MinimizeZ(w, s, 0.0, &z);
  EXPECT_LT(alpha, -1.0);
  EXPECT_LT(z, 0.01);
}

TEST(MinimizeZTest, BalancedMarginsGiveZeroAlpha) {
  std::vector<double> w = {0.5, 0.5};
  std::vector<double> s = {1.0, -1.0};
  double z = 0.0;
  double alpha = MinimizeZ(w, s, 0.0, &z);
  EXPECT_NEAR(alpha, 0.0, 1e-9);
  EXPECT_NEAR(z, 1.0, 1e-9);
}

TEST(MinimizeZTest, AttainsAnalyticOptimumForBinaryMargins) {
  // For +-1 margins, the optimal alpha = 0.5 ln((1-e)/e) with weighted
  // error e, and Z = 2 sqrt(e (1-e)) (Schapire-Singer).
  std::vector<double> w = {0.2, 0.2, 0.2, 0.2, 0.2};
  std::vector<double> s = {1, 1, 1, 1, -1};  // e = 0.2.
  double z = 0.0;
  double alpha = MinimizeZ(w, s, 0.0, &z);
  EXPECT_NEAR(alpha, 0.5 * std::log(0.8 / 0.2), 1e-6);
  EXPECT_NEAR(z, 2.0 * std::sqrt(0.2 * 0.8), 1e-9);
}

TEST(MinimizeZTest, PassiveMassIsAdditive) {
  std::vector<double> w = {0.25, 0.25};
  std::vector<double> s = {1, -1};
  double z = 0.0;
  MinimizeZ(w, s, 0.5, &z);
  EXPECT_NEAR(z, 1.0, 1e-9);  // 0.5 active at alpha=0 plus 0.5 passive.
}

TEST(MinimizeZTest, EmptyActiveSetIsNeutral) {
  double z = 0.0;
  double alpha = MinimizeZ({}, {}, 1.0, &z);
  EXPECT_DOUBLE_EQ(alpha, 0.0);
  EXPECT_DOUBLE_EQ(z, 1.0);
}

TEST(MinimizeZTest, ZIsAtMostValueAtZero) {
  // The minimizer can never be worse than not using the classifier.
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    size_t n = 1 + rng.Index(20);
    std::vector<double> w(n), s(n);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      w[i] = rng.Uniform(0.01, 1.0);
      s[i] = rng.Uniform(-2.0, 2.0);
      total += w[i];
    }
    for (double& x : w) x /= total;
    double z = 0.0;
    MinimizeZ(w, s, 0.0, &z);
    EXPECT_LE(z, 1.0 + 1e-9);
  }
}

TEST(AdaBoostTest, TrainingErrorDecreasesOnPlaneData) {
  BoostFixture setup = MakeSetup(15, 40, 800, 42);
  AdaBoostOptions options;
  options.rounds = 30;
  options.embeddings_per_round = 16;
  AdaBoostResult result = TrainAdaBoost(setup.ctx, setup.triples, options);
  ASSERT_GE(result.history.size(), 5u);
  double first = result.history.front().training_error;
  double last = result.history.back().training_error;
  EXPECT_LT(last, first);
  EXPECT_LT(last, 0.2);  // L2 plane data is easy to embed.
}

TEST(AdaBoostTest, EveryRoundHasZBelowOne) {
  BoostFixture setup = MakeSetup(12, 30, 500, 43);
  AdaBoostOptions options;
  options.rounds = 20;
  options.embeddings_per_round = 12;
  AdaBoostResult result = TrainAdaBoost(setup.ctx, setup.triples, options);
  for (const RoundInfo& info : result.history) {
    EXPECT_LT(info.z, 1.0) << "round " << info.round;
    EXPECT_NE(info.chosen.alpha, 0.0);
  }
}

TEST(AdaBoostTest, QueryInsensitiveModeUsesFullIntervals) {
  BoostFixture setup = MakeSetup(12, 30, 400, 44);
  AdaBoostOptions options;
  options.rounds = 10;
  options.query_sensitive = false;
  AdaBoostResult result = TrainAdaBoost(setup.ctx, setup.triples, options);
  for (const WeakClassifier& wc : result.rounds) {
    EXPECT_FALSE(HasSplitter(wc));
  }
}

TEST(AdaBoostTest, QuerySensitiveModeProducesSomeSplitters) {
  BoostFixture setup = MakeSetup(12, 40, 800, 45);
  AdaBoostOptions options;
  options.rounds = 25;
  options.query_sensitive = true;
  AdaBoostResult result = TrainAdaBoost(setup.ctx, setup.triples, options);
  size_t with_splitter = 0;
  for (const WeakClassifier& wc : result.rounds) {
    if (HasSplitter(wc)) ++with_splitter;
  }
  EXPECT_GT(with_splitter, 0u);
}

TEST(AdaBoostTest, DeterministicGivenSeed) {
  BoostFixture a = MakeSetup(10, 25, 300, 46);
  BoostFixture b = MakeSetup(10, 25, 300, 46);
  AdaBoostOptions options;
  options.rounds = 8;
  options.seed = 5;
  AdaBoostResult ra = TrainAdaBoost(a.ctx, a.triples, options);
  AdaBoostResult rb = TrainAdaBoost(b.ctx, b.triples, options);
  ASSERT_EQ(ra.rounds.size(), rb.rounds.size());
  for (size_t i = 0; i < ra.rounds.size(); ++i) {
    EXPECT_EQ(ra.rounds[i].spec.c1, rb.rounds[i].spec.c1);
    EXPECT_DOUBLE_EQ(ra.rounds[i].alpha, rb.rounds[i].alpha);
    EXPECT_DOUBLE_EQ(ra.rounds[i].lo, rb.rounds[i].lo);
  }
}

TEST(AdaBoostTest, SelectiveTriplesAlsoTrain) {
  BoostFixture setup = MakeSetup(12, 40, 600, 47, /*selective=*/true);
  AdaBoostOptions options;
  options.rounds = 15;
  AdaBoostResult result = TrainAdaBoost(setup.ctx, setup.triples, options);
  EXPECT_GE(result.rounds.size(), 5u);
  EXPECT_LT(result.final_training_error, 0.3);
}

TEST(AdaBoostTest, WeightedErrorOfChosenClassifierBelowHalf) {
  BoostFixture setup = MakeSetup(12, 30, 500, 48);
  AdaBoostOptions options;
  options.rounds = 15;
  AdaBoostResult result = TrainAdaBoost(setup.ctx, setup.triples, options);
  for (const RoundInfo& info : result.history) {
    // Weak-learner contract: better than random on the weighted sample
    // it accepted (allowing negative-alpha flips to count as such).
    double err = info.weighted_error;
    EXPECT_TRUE(err < 0.5 || info.chosen.alpha < 0.0)
        << "round " << info.round << " err " << err;
  }
}

TEST(WeakClassifierTest, EvaluateAndAccepts) {
  WeakClassifier wc;
  wc.lo = 0.0;
  wc.hi = 1.0;
  EXPECT_TRUE(wc.Accepts(0.5));
  EXPECT_TRUE(wc.Accepts(0.0));
  EXPECT_TRUE(wc.Accepts(1.0));
  EXPECT_FALSE(wc.Accepts(-0.1));
  EXPECT_FALSE(wc.Accepts(1.1));
  // F(q)=0.5, F(a)=0.6, F(b)=0.1: |0.5-0.1| - |0.5-0.6| = 0.3.
  EXPECT_NEAR(wc.Evaluate(0.5, 0.6, 0.1), 0.3, 1e-12);
  // Rejected query -> neutral 0 (Eq. 5).
  EXPECT_DOUBLE_EQ(wc.Evaluate(2.0, 0.6, 0.1), 0.0);
}

TEST(WeakClassifierTest, DefaultIsQueryInsensitive) {
  WeakClassifier wc;
  EXPECT_FALSE(HasSplitter(wc));
  EXPECT_TRUE(wc.Accepts(1e18));
  WeakClassifier split;
  split.hi = 5.0;
  EXPECT_TRUE(HasSplitter(split));
}

}  // namespace
}  // namespace qse
