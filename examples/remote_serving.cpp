// Multi-node serving: a 2-shard x 2-replica cluster over TCP.
//
// RetrievalEngine's shards may be any RetrievalBackend, and
// RemoteRetrievalBackend is a backend whose filter scan happens in
// another process: the embedded query ships over a length-prefixed
// binary protocol, the server scans its shard and returns the sorted
// top-p (db id, filter score) list, and the caller merges and refines
// exactly as it would over local shards — bit-identical answers to the
// in-process engine at equal p.
//
// Each shard is served by N replicas of the same data behind a
// HedgedReplicaBackend: reads go to one replica round-robin and are
// raced against a backup when the first is slow (the hedge delay is the
// replica's own observed p95 latency), and a replica that dies is
// failed over transparently.
//
// This example wires the full topology inside one process — four
// RetrievalServers on ephemeral ports with real sockets between them —
// so it runs anywhere without fork/exec.  The multi-process version of
// the same topology (child servers spawned via fork/exec, replica
// killed with SIGKILL mid-run) is the SL_Remote scenario in
// bench/server_load.cc.
//
// Build: cmake --build build && ./build/examples/remote_serving
#include <cstdio>
#include <memory>
#include <numeric>
#include <vector>

#include "src/data/dataset.h"
#include "src/distance/lp.h"
#include "src/embedding/fastmap.h"
#include "src/net/hedged_backend.h"
#include "src/net/remote_backend.h"
#include "src/net/retrieval_server.h"
#include "src/obs/metric_registry.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/util/random.h"

int main() {
  using namespace qse;
  const size_t n = 20000, num_queries = 64, k = 3, p = 200;
  const size_t kShards = 2, kReplicas = 2;

  // --- Data: random points in the unit square, embedded with FastMap.
  Rng rng(7);
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
  L2Scorer scorer;

  // --- Partition by id hash.  HashShardOf is a free function so any
  // process sharding these ids — here, the "servers" — agrees with the
  // router without coordination.
  std::vector<std::vector<size_t>> shard_ids(kShards);
  for (size_t id : db_ids) shard_ids[HashShardOf(id, kShards)].push_back(id);

  // --- Servers: per shard, kReplicas engines over the same shard data,
  // each behind its own RetrievalServer on an ephemeral port.  Replica 1
  // of shard 0 is degraded (every 8th scan sleeps 50 ms) so hedging has
  // something to race.
  std::vector<std::unique_ptr<EmbeddedDatabase>> dbs;
  std::vector<std::unique_ptr<RetrievalEngine>> engines;
  std::vector<std::unique_ptr<net::RetrievalServer>> servers;
  std::vector<std::shared_ptr<RetrievalBackend>> shards;
  for (size_t s = 0; s < kShards; ++s) {
    std::vector<std::shared_ptr<RetrievalBackend>> replicas;
    for (size_t r = 0; r < kReplicas; ++r) {
      dbs.push_back(std::make_unique<EmbeddedDatabase>(
          EmbedDatabase(model, oracle, shard_ids[s])));
      engines.push_back(std::make_unique<RetrievalEngine>(
          &model, &scorer, dbs.back().get(), shard_ids[s]));
      net::RetrievalServerOptions options;
      if (s == 0 && r == 1) {
        options.debug_delay_every_n = 8;
        options.debug_delay = std::chrono::milliseconds(50);
      }
      servers.push_back(std::make_unique<net::RetrievalServer>(
          engines.back().get(), options));
      Status st = servers.back()->Start(0);  // 0: pick an ephemeral port.
      if (!st.ok()) {
        std::fprintf(stderr, "server start: %s\n", st.ToString().c_str());
        return 1;
      }
      // Client stub: embeds queries locally, ships them over TCP.
      replicas.push_back(std::make_shared<net::RemoteRetrievalBackend>(
          &model, "127.0.0.1", servers.back()->port()));
      std::printf("shard %zu replica %zu: 127.0.0.1:%u (%zu rows)%s\n", s, r,
                  servers.back()->port(), shard_ids[s].size(),
                  s == 0 && r == 1 ? "  [degraded]" : "");
    }
    shards.push_back(std::make_shared<net::HedgedReplicaBackend>(
        replicas, net::HedgedBackendOptions{}));
  }

  // --- The router: the same sharded engine used for in-process
  // serving, composed over remote shards instead of local ones.
  RetrievalEngine cluster(&model, shards);

  // --- Parity: the cluster answers bit-identically to an in-process
  // sharded engine over the same data at equal p.
  EmbeddedDatabase full = EmbedDatabase(model, oracle, db_ids);
  ShardedEngineOptions ref_options;
  ref_options.num_shards = kShards;
  RetrievalEngine reference(&model, &scorer, full, db_ids, ref_options);

  auto& registry = obs::MetricRegistry::Global();
  uint64_t fired0 = registry.GetCounter("qse_hedged_fired_total")->Value();
  uint64_t wins0 = registry.GetCounter("qse_hedged_wins_total")->Value();

  size_t identical = 0;
  RetrievalOptions options(k, p);
  for (size_t q = n; q < n + num_queries; ++q) {
    DxToDatabaseFn dx = [&oracle, q](size_t id) {
      return oracle.Distance(q, id);
    };
    auto want = reference.Retrieve({dx, options});
    auto got = cluster.Retrieve({dx, options});
    if (!want.ok() || !got.ok()) {
      std::fprintf(stderr, "retrieve failed\n");
      return 1;
    }
    bool same = want->neighbors.size() == got->neighbors.size();
    for (size_t i = 0; same && i < want->neighbors.size(); ++i) {
      same = want->neighbors[i].index == got->neighbors[i].index &&
             want->neighbors[i].score == got->neighbors[i].score;
    }
    identical += same;
  }
  std::printf("parity: %zu/%zu queries bit-identical to the in-process "
              "sharded engine\n",
              identical, num_queries);
  std::printf("hedging: %llu backup attempts fired, %llu won their race\n",
              static_cast<unsigned long long>(
                  registry.GetCounter("qse_hedged_fired_total")->Value() -
                  fired0),
              static_cast<unsigned long long>(
                  registry.GetCounter("qse_hedged_wins_total")->Value() -
                  wins0));

  // --- Kill a replica: stop shard 0's degraded replica outright.  The
  // hedged backend fails over to the survivor, so every request still
  // succeeds.
  servers[1]->Stop();
  size_t succeeded = 0;
  for (size_t q = n; q < n + num_queries; ++q) {
    DxToDatabaseFn dx = [&oracle, q](size_t id) {
      return oracle.Distance(q, id);
    };
    succeeded += cluster.Retrieve({dx, options}).ok();
  }
  std::printf("after killing shard 0 replica 1: %zu/%zu requests "
              "succeeded\n",
              succeeded, num_queries);
  return 0;
}
