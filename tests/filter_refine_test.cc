#include "src/retrieval/filter_refine.h"

#include <gtest/gtest.h>

#include "src/core/trainer.h"
#include "src/embedding/fastmap.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/exact_knn.h"
#include "tests/test_util.h"

namespace qse {
namespace {

struct Pipeline {
  ObjectOracle<Vector> oracle;
  QuerySensitiveEmbedding model;
  EmbeddedDatabase db;
  std::vector<size_t> db_ids;
};

Pipeline MakePipeline(uint64_t seed) {
  auto oracle = test::MakePlaneOracle(80, seed);
  BoostMapConfig config;
  config.num_triples = 500;
  config.k1 = 3;
  config.boost.rounds = 16;
  config.boost.embeddings_per_round = 12;
  auto artifacts = TrainBoostMap(oracle, test::Iota(20),
                                 test::Iota(30, 20), config);
  EXPECT_TRUE(artifacts.ok());
  std::vector<size_t> db_ids = test::Iota(60);  // First 60 objects = db.
  QseEmbedderAdapter adapter(&artifacts->model);
  EmbeddedDatabase db = EmbedDatabase(adapter, oracle, db_ids);
  return {std::move(oracle), std::move(artifacts->model), std::move(db),
          std::move(db_ids)};
}

TEST(ExactKnnTest, MatchesNaiveScan) {
  auto oracle = test::MakePlaneOracle(30, 1);
  std::vector<size_t> db_ids = test::Iota(25);
  auto knn = ExactKnn(oracle, 28, db_ids, 5);
  ASSERT_EQ(knn.size(), 5u);
  for (size_t i = 1; i < knn.size(); ++i) {
    EXPECT_LE(knn[i - 1].score, knn[i].score);
  }
  // Every non-returned object is at least as far as the 5th neighbor.
  for (size_t pos = 0; pos < db_ids.size(); ++pos) {
    bool in_result = false;
    for (const auto& r : knn) {
      if (r.index == pos) in_result = true;
    }
    if (!in_result) {
      EXPECT_GE(oracle.Distance(28, db_ids[pos]), knn.back().score);
    }
  }
}

TEST(ExactKnnTest, ExternalQueryVariant) {
  auto oracle = test::MakePlaneOracle(20, 2);
  Vector query = {0.5, 0.5};
  std::vector<size_t> db_ids = test::Iota(20);
  auto knn = ExactKnnExternal(
      [&](size_t id) { return L2Distance(query, oracle.object(id)); }, db_ids,
      3);
  ASSERT_EQ(knn.size(), 3u);
  EXPECT_LE(knn[0].score, knn[1].score);
}

TEST(EmbedDatabaseTest, RowsMatchDirectEmbedding) {
  Pipeline p = MakePipeline(10);
  for (size_t i : {0u, 7u, 59u}) {
    Vector direct = p.model.Embed([&](size_t o) {
      return o == p.db_ids[i] ? 0.0 : p.oracle.Distance(p.db_ids[i], o);
    });
    Vector row = p.db.RowVector(i);
    ASSERT_EQ(row.size(), direct.size());
    for (size_t d = 0; d < direct.size(); ++d) {
      EXPECT_DOUBLE_EQ(row[d], direct[d]);
    }
  }
}

TEST(EmbedDatabaseTest, ParallelEmbeddingMatchesSerial) {
  Pipeline p = MakePipeline(10);
  QseEmbedderAdapter adapter(&p.model);
  EmbeddedDatabase serial =
      EmbedDatabase(adapter, p.oracle, p.db_ids, /*num_threads=*/1);
  EmbeddedDatabase parallel =
      EmbedDatabase(adapter, p.oracle, p.db_ids, /*num_threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.dims(), parallel.dims());
  EXPECT_EQ(serial.data(), parallel.data());
}

TEST(FilterRefineTest, FullCandidateSetIsExact) {
  // With p = |db| the refine step sees every object: results must equal
  // brute-force exact k-NN regardless of embedding quality.
  Pipeline p = MakePipeline(11);
  QseEmbedderAdapter adapter(&p.model);
  QuerySensitiveScorer scorer(&p.model);
  RetrievalEngine retriever(&adapter, &scorer, &p.db, p.db_ids);
  for (size_t query_id = 70; query_id < 75; ++query_id) {
    auto dx = [&](size_t id) { return p.oracle.Distance(query_id, id); };
    auto result =
        retriever.Retrieve({dx, RetrievalOptions(5, p.db_ids.size())});
    ASSERT_TRUE(result.ok()) << result.status();
    auto exact = ExactKnn(p.oracle, query_id, p.db_ids, 5);
    ASSERT_EQ(result->neighbors.size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(result->neighbors[i].index, exact[i].index);
      EXPECT_DOUBLE_EQ(result->neighbors[i].score, exact[i].score);
    }
  }
}

TEST(FilterRefineTest, LargerPImprovesOrKeepsAccuracy) {
  Pipeline p = MakePipeline(13);
  QseEmbedderAdapter adapter(&p.model);
  QuerySensitiveScorer scorer(&p.model);
  RetrievalEngine retriever(&adapter, &scorer, &p.db, p.db_ids);
  size_t hits_small = 0, hits_large = 0;
  for (size_t query_id = 65; query_id < 80; ++query_id) {
    auto dx = [&](size_t id) { return p.oracle.Distance(query_id, id); };
    auto exact = ExactKnn(p.oracle, query_id, p.db_ids, 1);
    auto small = retriever.Retrieve({dx, RetrievalOptions(1, 3)});
    auto large = retriever.Retrieve({dx, RetrievalOptions(1, 30)});
    ASSERT_TRUE(small.ok() && large.ok());
    if (!small->neighbors.empty() &&
        small->neighbors[0].index == exact[0].index) {
      ++hits_small;
    }
    if (!large->neighbors.empty() &&
        large->neighbors[0].index == exact[0].index) {
      ++hits_large;
    }
  }
  EXPECT_GE(hits_large, hits_small);
  EXPECT_GE(hits_large, 13u);  // p = half the db on easy 2D data.
}

// p = 0 / oversized-p validation for this pipeline lives in the
// cross-surface parameterized suite: tests/request_validation_test.cc.

TEST(ScorerTest, L2ScorerMatchesSquaredEuclidean) {
  EmbeddedDatabase db = test::FromRows({{0, 0}, {1, 1}, {3, 4}});
  L2Scorer scorer;
  std::vector<double> scores;
  scorer.Score({0, 0}, db, &scores);
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_DOUBLE_EQ(scores[0], 0.0);
  EXPECT_DOUBLE_EQ(scores[1], 2.0);
  EXPECT_DOUBLE_EQ(scores[2], 25.0);
}

TEST(ScorerTest, L1ScorerMatchesManhattan) {
  // The query-sensitive scorer over unit weights is the L1 scorer.
  EmbeddedDatabase db = test::FromRows({{0, 0}, {1, 1}, {3, 4}});
  const ObjectOracle<Vector> oracle = test::MakePlaneOracle(3, 1);
  const QuerySensitiveEmbedding model =
      test::MakeFixedWeightModel(oracle, {1.0, 1.0});
  QuerySensitiveScorer scorer(&model);
  std::vector<double> scores;
  scorer.Score({0, 0}, db, &scores);
  EXPECT_DOUBLE_EQ(scores[1], 2.0);
  EXPECT_DOUBLE_EQ(scores[2], 7.0);
}

TEST(ScorerTest, QuerySensitiveScorerMatchesModelDistance) {
  Pipeline p = MakePipeline(15);
  QuerySensitiveScorer scorer(&p.model);
  Vector fq = p.db.RowVector(0);
  std::vector<double> scores;
  scorer.Score(fq, p.db, &scores);
  for (size_t i = 0; i < p.db.size(); ++i) {
    EXPECT_NEAR(scores[i],
                test::QuerySensitiveDistance(p.model, fq, p.db.RowVector(i)),
                1e-12);
  }
}

TEST(FilterRefineTest, FastMapPipelineWorksToo) {
  auto oracle = test::MakePlaneOracle(60, 16);
  FastMapOptions options;
  options.dims = 2;
  std::vector<size_t> db_ids = test::Iota(50);
  FastMapModel model = BuildFastMap(oracle, db_ids, options);
  EmbeddedDatabase db = EmbedDatabase(model, oracle, db_ids);
  L2Scorer scorer;
  RetrievalEngine retriever(&model, &scorer, &db, db_ids);
  size_t hits = 0;
  for (size_t query_id = 50; query_id < 60; ++query_id) {
    auto dx = [&](size_t id) { return oracle.Distance(query_id, id); };
    auto exact = ExactKnn(oracle, query_id, db_ids, 1);
    auto result = retriever.Retrieve({dx, RetrievalOptions(1, 10)});
    ASSERT_TRUE(result.ok()) << result.status();
    if (result->neighbors[0].index == exact[0].index) ++hits;
  }
  EXPECT_GE(hits, 8u);  // FastMap is near-exact on true 2D data.
}

}  // namespace
}  // namespace qse
