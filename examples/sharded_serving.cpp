// Sharded serving: one RetrievalEngine scattered over S shards.
//
// A single-shard engine scans all n embedded vectors serially, so
// single-query latency grows with the database.  Over S shards the
// engine partitions the database, fans one query's filter step out
// across them in parallel, merges the per-shard top-p lists with a
// k-way heap merge, and refines the merged candidates once — bit-identical
// results to the single-shard engine at equal p, at a fraction of the
// single-query latency on multi-core hardware.
//
// Both implement RetrievalBackend, so serving code is written once and
// the shard count is swapped behind the interface.
//
// Build: cmake --build build && ./build/examples/sharded_serving
#include <cstdio>
#include <numeric>
#include <vector>

#include "src/data/dataset.h"
#include "src/distance/lp.h"
#include "src/embedding/fastmap.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/util/random.h"
#include "src/util/timer.h"

namespace {

/// Serving code written once against the interface: retrieve every query,
/// return (db id of best neighbor, total exact-distance cost).
std::pair<std::vector<size_t>, size_t> Serve(
    const qse::RetrievalBackend& backend,
    const std::vector<qse::DxToDatabaseFn>& queries, size_t k, size_t p) {
  std::vector<size_t> best;
  size_t cost = 0;
  for (const qse::DxToDatabaseFn& dx : queries) {
    auto r = backend.Retrieve({dx, qse::RetrievalOptions(k, p)});
    if (!r.ok()) {
      std::fprintf(stderr, "retrieval failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    best.push_back(r->neighbors[0].index);
    cost += r->exact_distances;
  }
  return {std::move(best), cost};
}

}  // namespace

int main() {
  using namespace qse;

  // --- Data: 30,000 random points in the unit square, embedded with
  // FastMap into 8 dims (any Embedder/FilterScorer pair works the same).
  const size_t n = 30000, num_queries = 64, k = 3, p = 300;
  Rng rng(42);
  std::vector<Vector> points;
  for (size_t i = 0; i < n + num_queries; ++i) {
    points.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  ObjectOracle<Vector> oracle(std::move(points), L2Distance);
  std::vector<size_t> db_ids(n);
  std::iota(db_ids.begin(), db_ids.end(), 0);

  FastMapOptions fm;
  fm.dims = 8;
  FastMapModel model = BuildFastMap(oracle, db_ids, fm);
  EmbeddedDatabase embedded = EmbedDatabase(model, oracle, db_ids);
  L2Scorer scorer;

  std::vector<DxToDatabaseFn> queries;
  for (size_t q = n; q < n + num_queries; ++q) {
    queries.push_back(
        [&oracle, q](size_t id) { return oracle.Distance(q, id); });
  }

  // --- Backend 1: the monolithic engine.
  RetrievalEngine mono(&model, &scorer, &embedded, db_ids);

  // --- Backend 2: the same database partitioned across 8 shards by id
  // hash (deterministic: any process sharding these ids agrees).
  ShardedEngineOptions options;
  options.num_shards = 8;
  RetrievalEngine sharded(&model, &scorer, embedded, db_ids, options);

  std::printf("database: n=%zu, d=%zu, %zu shards, sizes:", n,
              embedded.dims(), sharded.num_shards());
  for (size_t s : sharded.shard_sizes()) std::printf(" %zu", s);
  std::printf("\n");

  // --- Same serving code, either backend, identical answers.
  Timer t_mono;
  auto [mono_best, mono_cost] = Serve(mono, queries, k, p);
  double ms_mono = t_mono.Millis();
  Timer t_sharded;
  auto [sharded_best, sharded_cost] = Serve(sharded, queries, k, p);
  double ms_sharded = t_sharded.Millis();

  size_t agree = 0;
  for (size_t i = 0; i < mono_best.size(); ++i) {
    if (mono_best[i] == sharded_best[i]) ++agree;
  }
  std::printf("parity: %zu/%zu identical nearest neighbors, identical cost: "
              "%s (%zu exact distances)\n",
              agree, mono_best.size(),
              mono_cost == sharded_cost ? "yes" : "NO", sharded_cost);
  std::printf("%zu queries: monolithic %.1f ms, sharded %.1f ms\n",
              num_queries, ms_mono, ms_sharded);

  // --- Per-shard scan stats: the load-balancing signal.  A shard that
  // keeps winning most of the merged top-p holds a hot region.  Stats
  // ride on the one request envelope: set want_stats, read shard_stats.
  RetrievalOptions with_stats(k, p);
  with_stats.want_stats = true;
  auto one = sharded.Retrieve({queries[0], with_stats});
  if (one.ok()) {
    std::printf("per-shard top-%zu contributions for one query:", p);
    for (const ShardScanStats& s : one->shard_stats) {
      std::printf(" %zu/%zu", s.candidates, s.rows);
    }
    std::printf("\n");
  }

  // --- Mutations route through the same interface: inserts land on a
  // shard chosen by the assignment policy, removes find their shard.
  RetrievalBackend& backend = sharded;
  Status st = backend.Remove(7);
  std::printf("Remove(7) through the interface: %s; size now %zu\n",
              st.ok() ? "ok" : st.ToString().c_str(), backend.size());
  return 0;
}
