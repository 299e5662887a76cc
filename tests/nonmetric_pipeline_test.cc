// End-to-end coverage on a genuinely NON-METRIC distance (Shape Context
// over synthetic digits) — the regime the paper targets.  The other
// integration tests run on the metric plane; these verify that nothing in
// the pipeline silently assumes the triangle inequality.
#include <gtest/gtest.h>

#include "src/core/trainer.h"
#include "src/data/digit_generator.h"
#include "src/matching/shape_context_distance.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/evaluation.h"
#include "src/retrieval/exact_knn.h"
#include "src/retrieval/filter_refine.h"
#include "tests/test_util.h"

namespace qse {
namespace {

struct DigitsBench {
  ObjectOracle<PointSet> oracle;
  std::vector<size_t> db_ids;
  std::vector<size_t> query_ids;
};

DigitsBench MakeDigitsBench(size_t n_db, size_t n_query, uint64_t seed) {
  DigitGeneratorParams params;
  params.points_per_digit = 16;  // Small shapes keep the test fast.
  DigitGenerator gen(params, seed);
  std::vector<PointSet> shapes;
  for (auto& s : gen.Generate(n_db + n_query)) {
    shapes.push_back(std::move(s.shape));
  }
  ObjectOracle<PointSet> oracle(std::move(shapes),
                                [](const PointSet& a, const PointSet& b) {
                                  return ShapeContextDistance(a, b);
                                });
  return {std::move(oracle), test::Iota(n_db), test::Iota(n_query, n_db)};
}

BoostMapConfig SmallConfig() {
  BoostMapConfig config;
  config.sampling = TripleSampling::kSelective;
  config.num_triples = 800;
  config.k1 = 3;
  config.boost.rounds = 16;
  config.boost.embeddings_per_round = 12;
  config.boost.query_sensitive = true;
  return config;
}

TEST(NonMetricPipelineTest, Proposition1HoldsUnderShapeContext) {
  // H == F̃_out must hold regardless of DX's metric properties — the
  // proof of Proposition 1 never invokes the triangle inequality.
  DigitsBench b = MakeDigitsBench(60, 0, 1);
  std::vector<size_t> sample(b.db_ids.begin(), b.db_ids.begin() + 40);
  auto artifacts = TrainBoostMap(b.oracle, sample, sample, SmallConfig());
  ASSERT_TRUE(artifacts.ok()) << artifacts.status();
  const QuerySensitiveEmbedding& model = artifacts->model;

  auto embed = [&](size_t id) {
    return model.Embed([&](size_t o) {
      return o == id ? 0.0 : b.oracle.Distance(id, o);
    });
  };
  // Margins via the embedding+distance formulation must rank triples
  // consistently with directly re-deriving D_out from the coordinates.
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    size_t q = rng.Index(60), x = rng.Index(60), y = rng.Index(60);
    if (q == x || q == y || x == y) continue;
    Vector fq = embed(q), fx = embed(x), fy = embed(y);
    double manual = test::QuerySensitiveDistance(model, fq, fy) -
                    test::QuerySensitiveDistance(model, fq, fx);
    EXPECT_NEAR(model.TripleMargin(fq, fx, fy), manual, 1e-9);
  }
}

TEST(NonMetricPipelineTest, FilterRecallBeatsRandomFiltering) {
  DigitsBench b = MakeDigitsBench(120, 15, 3);
  std::vector<size_t> sample(b.db_ids.begin(), b.db_ids.begin() + 50);
  auto artifacts = TrainBoostMap(b.oracle, sample, sample, SmallConfig());
  ASSERT_TRUE(artifacts.ok());
  QseEmbedderAdapter embedder(&artifacts->model);
  QuerySensitiveScorer scorer(&artifacts->model);
  EmbeddedDatabase db = EmbedDatabase(embedder, b.oracle, b.db_ids);
  GroundTruth gt = ComputeGroundTruth(b.oracle, b.db_ids, b.query_ids, 1);
  LadderPoint point = EvaluateLadderPoint(embedder, scorer, db, b.oracle,
                                          b.db_ids, b.query_ids, gt, 0);
  // Random filtering would need p ~ n/2 on average to cover the true NN;
  // the embedding must do far better for most queries.
  size_t within_quarter = 0;
  for (const auto& req : point.required_p) {
    if (req[0] <= b.db_ids.size() / 4) ++within_quarter;
  }
  EXPECT_GE(within_quarter, b.query_ids.size() * 3 / 4);
}

TEST(NonMetricPipelineTest, RetrievalExactWhenPCoversDatabase) {
  // Even under a non-metric DX, p = n degenerates to brute force and the
  // results must match exact k-NN bit for bit.
  DigitsBench b = MakeDigitsBench(50, 5, 5);
  std::vector<size_t> sample(b.db_ids.begin(), b.db_ids.begin() + 30);
  auto artifacts = TrainBoostMap(b.oracle, sample, sample, SmallConfig());
  ASSERT_TRUE(artifacts.ok());
  QseEmbedderAdapter embedder(&artifacts->model);
  QuerySensitiveScorer scorer(&artifacts->model);
  EmbeddedDatabase db = EmbedDatabase(embedder, b.oracle, b.db_ids);
  RetrievalEngine retriever(&embedder, &scorer, &db, b.db_ids);
  for (size_t q : b.query_ids) {
    auto dx = [&](size_t id) { return b.oracle.Distance(q, id); };
    auto r = retriever.Retrieve({dx, RetrievalOptions(3, b.db_ids.size())});
    ASSERT_TRUE(r.ok()) << r.status();
    auto exact = ExactKnn(b.oracle, q, b.db_ids, 3);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(r->neighbors[i].index, exact[i].index);
    }
  }
}

TEST(NonMetricPipelineTest, AsymmetricDistanceIsAccepted) {
  // DX may be asymmetric (KL-style); the trainer must run and produce a
  // usable model without assuming DX(a,b) == DX(b,a).
  Rng rng(7);
  std::vector<Vector> points;
  for (int i = 0; i < 60; ++i) {
    points.push_back({rng.Uniform(0.1, 1), rng.Uniform(0.1, 1)});
  }
  // Asymmetric toy distance: weighted by the first argument's mass.
  ObjectOracle<Vector> oracle(std::move(points),
                              [](const Vector& a, const Vector& b) {
                                double l1 = std::fabs(a[0] - b[0]) +
                                            std::fabs(a[1] - b[1]);
                                return l1 * (1.0 + a[0]);
                              });
  auto artifacts = TrainBoostMap(oracle, test::Iota(30), test::Iota(30),
                                 SmallConfig());
  ASSERT_TRUE(artifacts.ok()) << artifacts.status();
  EXPECT_GT(artifacts->model.dims(), 0u);
}

}  // namespace
}  // namespace qse
