#include "src/core/qs_embedding.h"

#include <cmath>
#include <cstdio>

#include <gtest/gtest.h>

#include "src/core/triple_sampler.h"
#include "tests/test_util.h"

namespace qse {
namespace {

struct Trained {
  ObjectOracle<Vector> oracle;
  TrainingContext ctx;
  std::vector<Triple> triples;
  AdaBoostResult boost;
  QuerySensitiveEmbedding model;
};

Trained TrainSmallModel(bool query_sensitive, uint64_t seed,
                        size_t rounds = 20) {
  auto oracle = test::MakePlaneOracle(50, seed);
  TrainingContext ctx =
      TrainingContext::Build(oracle, test::Iota(15), test::Iota(35, 15));
  Rng rng(seed + 1);
  auto triples = SampleRandomTriples(ctx.train_train_matrix(), 600, &rng);
  AdaBoostOptions options;
  options.rounds = rounds;
  options.embeddings_per_round = 12;
  options.query_sensitive = query_sensitive;
  options.seed = seed + 2;
  AdaBoostResult boost = TrainAdaBoost(ctx, triples, options);
  QuerySensitiveEmbedding model =
      QuerySensitiveEmbedding::FromTraining(ctx, boost.rounds,
                                            query_sensitive);
  return {std::move(oracle), std::move(ctx), std::move(triples),
          std::move(boost), std::move(model)};
}

/// Embeds training object `o` of `t` through the oracle.
Vector EmbedTrainObject(const Trained& t, size_t o) {
  size_t db_id = t.ctx.train_ids()[o];
  return t.model.Embed([&](size_t other) {
    return db_id == other ? 0.0 : t.oracle.Distance(db_id, other);
  });
}

/// Direct evaluation of the boosted ensemble H(q,a,b) from the weak
/// classifiers (Eq. 9), for comparison against the embedding+distance
/// formulation.
double EnsembleH(const Trained& t, size_t q, size_t a, size_t b) {
  double h = 0.0;
  std::vector<double> values(t.ctx.num_train_objects());
  for (const WeakClassifier& wc : t.boost.rounds) {
    Eval1DOnAllTrainObjects(wc.spec, t.ctx, values.data());
    h += wc.alpha * wc.Evaluate(values[q], values[a], values[b]);
  }
  return h;
}

TEST(QsEmbeddingTest, Proposition1EquivalenceQuerySensitive) {
  // The paper's central identity (Proposition 1): the classifier induced
  // by (F_out, D_out) equals the AdaBoost ensemble H.
  Trained t = TrainSmallModel(/*query_sensitive=*/true, 100);
  ASSERT_GT(t.model.dims(), 0u);
  Rng rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    size_t q = rng.Index(35), a = rng.Index(35), b = rng.Index(35);
    if (q == a || q == b || a == b) continue;
    Vector fq = EmbedTrainObject(t, q);
    Vector fa = EmbedTrainObject(t, a);
    Vector fb = EmbedTrainObject(t, b);
    double margin = t.model.TripleMargin(fq, fa, fb);
    double h = EnsembleH(t, q, a, b);
    EXPECT_NEAR(margin, h, 1e-9 * (1.0 + std::fabs(h)))
        << "triple (" << q << "," << a << "," << b << ")";
  }
}

TEST(QsEmbeddingTest, Proposition1EquivalenceQueryInsensitive) {
  Trained t = TrainSmallModel(/*query_sensitive=*/false, 101);
  Rng rng(8);
  for (int trial = 0; trial < 40; ++trial) {
    size_t q = rng.Index(35), a = rng.Index(35), b = rng.Index(35);
    if (q == a || q == b || a == b) continue;
    Vector fq = EmbedTrainObject(t, q);
    Vector fa = EmbedTrainObject(t, a);
    Vector fb = EmbedTrainObject(t, b);
    EXPECT_NEAR(t.model.TripleMargin(fq, fa, fb), EnsembleH(t, q, a, b),
                1e-9);
  }
}

TEST(QsEmbeddingTest, DimsIsNumberOfUniqueEmbeddings) {
  Trained t = TrainSmallModel(true, 102);
  EXPECT_LE(t.model.dims(), t.model.num_rounds());
  EXPECT_GT(t.model.dims(), 0u);
  size_t total_terms = 0;
  for (const auto& coord : t.model.coordinates()) {
    total_terms += coord.terms.size();
  }
  EXPECT_EQ(total_terms, t.model.num_rounds());
}

TEST(QsEmbeddingTest, QueryInsensitiveWeightsAreConstant) {
  Trained t = TrainSmallModel(false, 103);
  Rng rng(9);
  Vector w_first;
  for (int trial = 0; trial < 10; ++trial) {
    Vector fq = EmbedTrainObject(t, rng.Index(35));
    Vector w = t.model.QueryWeights(fq);
    if (trial == 0) {
      w_first = w;
    } else {
      for (size_t i = 0; i < w.size(); ++i) {
        EXPECT_DOUBLE_EQ(w[i], w_first[i]);
      }
    }
  }
}

TEST(QsEmbeddingTest, QuerySensitiveWeightsVaryAcrossQueries) {
  Trained t = TrainSmallModel(true, 104, 30);
  Rng rng(10);
  bool varied = false;
  Vector w_first;
  for (int trial = 0; trial < 20 && !varied; ++trial) {
    Vector fq = EmbedTrainObject(t, rng.Index(35));
    Vector w = t.model.QueryWeights(fq);
    if (trial == 0) {
      w_first = w;
    } else {
      for (size_t i = 0; i < w.size(); ++i) {
        if (w[i] != w_first[i]) varied = true;
      }
    }
  }
  EXPECT_TRUE(varied);
}

TEST(QsEmbeddingTest, EmbeddingCostAtMostTwoPerCoordinate) {
  Trained t = TrainSmallModel(true, 105);
  EXPECT_LE(t.model.EmbeddingCost(), 2 * t.model.dims());
  EXPECT_GE(t.model.EmbeddingCost(), 1u);
}

TEST(QsEmbeddingTest, EmbedReportsUniqueExactDistances) {
  Trained t = TrainSmallModel(true, 106);
  size_t count = 0;
  size_t calls = 0;
  size_t db_id = t.ctx.train_ids()[0];
  t.model.Embed(
      [&](size_t other) {
        ++calls;
        return t.oracle.Distance(db_id, other);
      },
      &count);
  EXPECT_EQ(count, calls);  // The model deduplicates internally.
  EXPECT_EQ(count, t.model.EmbeddingCost());
}

TEST(QsEmbeddingTest, PrefixReducesRoundsAndDims) {
  Trained t = TrainSmallModel(true, 107, 24);
  ASSERT_GE(t.model.num_rounds(), 8u);
  QuerySensitiveEmbedding p4 = t.model.Prefix(4);
  EXPECT_EQ(p4.num_rounds(), 4u);
  EXPECT_LE(p4.dims(), 4u);
  QuerySensitiveEmbedding huge = t.model.Prefix(10000);
  EXPECT_EQ(huge.num_rounds(), t.model.num_rounds());
}

TEST(QsEmbeddingTest, PrefixMatchesRetrainedEquivalence) {
  // The prefix model's margins must equal the partial ensemble's margins.
  Trained t = TrainSmallModel(true, 108, 16);
  size_t j = 5;
  QuerySensitiveEmbedding prefix = t.model.Prefix(j);
  Trained partial = t;  // Copy; reuse oracle/ctx.
  partial.boost.rounds.resize(j);
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    size_t q = rng.Index(35), a = rng.Index(35), b = rng.Index(35);
    if (q == a || q == b || a == b) continue;
    auto embed = [&](size_t o) {
      size_t db_id = partial.ctx.train_ids()[o];
      return prefix.Embed([&](size_t other) {
        return db_id == other ? 0.0 : partial.oracle.Distance(db_id, other);
      });
    };
    EXPECT_NEAR(prefix.TripleMargin(embed(q), embed(a), embed(b)),
                EnsembleH(partial, q, a, b), 1e-9);
  }
}

TEST(QsEmbeddingTest, SaveLoadRoundTrip) {
  Trained t = TrainSmallModel(true, 109);
  std::string path = testing::TempDir() + "/qse_model_test.bin";
  ASSERT_TRUE(t.model.Save(path).ok());
  auto loaded = QuerySensitiveEmbedding::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dims(), t.model.dims());
  EXPECT_EQ(loaded->num_rounds(), t.model.num_rounds());
  EXPECT_EQ(loaded->query_sensitive(), t.model.query_sensitive());
  // Same embedding values.
  size_t db_id = t.ctx.train_ids()[3];
  auto dx = [&](size_t other) {
    return db_id == other ? 0.0 : t.oracle.Distance(db_id, other);
  };
  Vector a = t.model.Embed(dx);
  Vector b = loaded->Embed(dx);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  std::remove(path.c_str());
}

TEST(QsEmbeddingTest, LoadMissingFileFails) {
  auto loaded = QuerySensitiveEmbedding::Load("/nonexistent/model.bin");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(QsEmbeddingTest, DistanceIsNonNegativeWithPositiveAlphas) {
  Trained t = TrainSmallModel(true, 110);
  bool all_alpha_positive = true;
  for (const auto& coord : t.model.coordinates()) {
    for (const auto& term : coord.terms) {
      if (term.alpha < 0) all_alpha_positive = false;
    }
  }
  if (all_alpha_positive) {
    Rng rng(12);
    for (int trial = 0; trial < 10; ++trial) {
      Vector fq = EmbedTrainObject(t, rng.Index(35));
      Vector fx = EmbedTrainObject(t, rng.Index(35));
      EXPECT_GE(test::QuerySensitiveDistance(t.model, fq, fx), 0.0);
    }
  }
}

TEST(QsEmbeddingTest, SelfDistanceIsZero) {
  Trained t = TrainSmallModel(true, 111);
  Vector fq = EmbedTrainObject(t, 5);
  EXPECT_DOUBLE_EQ(test::QuerySensitiveDistance(t.model, fq, fq), 0.0);
}

}  // namespace
}  // namespace qse
