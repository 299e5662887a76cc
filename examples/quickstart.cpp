// Quickstart: train a query-sensitive embedding on a toy 2D dataset and
// use it for filter-and-refine nearest neighbor retrieval.
//
//   1. Wrap your objects + distance measure in an ObjectOracle.
//   2. TrainBoostMap -> QuerySensitiveEmbedding (the paper's F_out/D_out).
//   3. EmbedDatabase once offline (parallel across cores).
//   4. RetrievalEngine answers each query with a handful of exact
//      distance computations instead of a full scan.
//
// Build: cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <numeric>
#include <vector>

#include "src/core/trainer.h"
#include "src/data/dataset.h"
#include "src/distance/lp.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/exact_knn.h"
#include "src/retrieval/filter_refine.h"
#include "src/util/random.h"

int main() {
  using namespace qse;

  // --- 1. The "database": 2,000 random points in the unit square, with
  // Euclidean distance standing in for an expensive black-box DX.
  Rng rng(42);
  std::vector<Vector> points;
  for (int i = 0; i < 2000; ++i) {
    points.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  ObjectOracle<Vector> oracle(std::move(points), L2Distance);

  std::vector<size_t> db_ids(1900);
  std::iota(db_ids.begin(), db_ids.end(), 0);  // Objects 0..1899 = db.
  // Objects 1900..1999 act as previously-unseen queries.

  // --- 2. Train the proposed method (Se-QS): selective triples +
  // query-sensitive distance.
  BoostMapConfig config;
  config.sampling = TripleSampling::kSelective;
  config.num_triples = 5000;
  config.k1 = 5;
  config.boost.rounds = 32;
  config.boost.embeddings_per_round = 24;
  config.boost.query_sensitive = true;

  // C and Xtr: a 200-object sample of the database.
  std::vector<size_t> sample(db_ids.begin(), db_ids.begin() + 200);
  auto artifacts = TrainBoostMap(oracle, sample, sample, config);
  if (!artifacts.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 artifacts.status().ToString().c_str());
    return 1;
  }
  const QuerySensitiveEmbedding& model = artifacts->model;
  std::printf("trained Se-QS model: %zu dims, %zu boosting rounds, "
              "embedding a query costs %zu exact distances\n",
              model.dims(), model.num_rounds(), model.EmbeddingCost());

  // --- 3. Offline: embed the database.
  QseEmbedderAdapter embedder(&model);
  EmbeddedDatabase embedded = EmbedDatabase(embedder, oracle, db_ids);

  // --- 4. Online: filter-and-refine retrieval for unseen queries.  Each
  // query costs only an embedding plus p exact distances.
  QuerySensitiveScorer scorer(&model);
  RetrievalEngine engine(&embedder, &scorer, &embedded, db_ids);

  const size_t k = 3, p = 60;
  std::vector<DxToDatabaseFn> queries;
  for (size_t query_id = 1900; query_id < 2000; ++query_id) {
    queries.push_back([&oracle, query_id](size_t id) {
      return oracle.Distance(query_id, id);
    });
  }
  size_t correct = 0, total_cost = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto retrieved = engine.Retrieve({queries[qi], RetrievalOptions(k, p)});
    if (!retrieved.ok()) {
      std::fprintf(stderr, "retrieval failed: %s\n",
                   retrieved.status().ToString().c_str());
      return 1;
    }
    const RetrievalResponse& result = *retrieved;
    total_cost += result.exact_distances;
    // Compare against brute force.
    auto exact = ExactKnn(oracle, 1900 + qi, db_ids, k);
    bool all_found = true;
    for (size_t i = 0; i < k; ++i) {
      if (result.neighbors[i].index != exact[i].index) all_found = false;
    }
    if (all_found) ++correct;
  }
  std::printf("retrieved all %zu nearest neighbors correctly for %zu/100 "
              "queries\n",
              k, correct);
  std::printf("average exact distances per query: %zu (brute force: %zu)\n",
              total_cost / 100, db_ids.size());
  std::printf("=> speed-up factor ~%.1fx\n",
              static_cast<double>(db_ids.size()) /
                  (static_cast<double>(total_cost) / 100.0));
  return 0;
}
