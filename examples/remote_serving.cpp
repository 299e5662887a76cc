// Multi-node serving: a 2-shard cluster over TCP.
//
// RetrievalEngine's shards may be any RetrievalBackend, and
// RemoteRetrievalBackend is a backend whose filter scan happens in
// another process: the embedded query ships over a length-prefixed
// binary protocol, the server scans its shard and returns the sorted
// top-p (db id, filter score) list, and the caller merges and refines
// exactly as it would over local shards — bit-identical answers to the
// in-process engine at equal p.  Each shard is one server behind one
// RemoteRetrievalBackend.
//
// Deadlines cross the wire as the remaining budget, so a slow shard
// turns a late answer into kDeadlineExceeded instead of a stall; shard
// 0's server here is deliberately slow on every 4th scan to show it.
//
// This example wires the full topology inside one process — two
// RetrievalServers on ephemeral ports with real sockets between them —
// so it runs anywhere without fork/exec.  The multi-process version of
// the same topology (child servers spawned via fork/exec) is the
// SL_Remote scenario in bench/server_load.cc.
//
// Build: cmake --build build && ./build/examples/remote_serving
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <vector>

#include "src/data/dataset.h"
#include "src/distance/lp.h"
#include "src/embedding/fastmap.h"
#include "src/net/remote_backend.h"
#include "src/net/retrieval_server.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/util/random.h"

int main() {
  using namespace qse;
  const size_t n = 20000, num_queries = 64, k = 3, p = 200;
  const size_t kShards = 2;

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

  // --- Servers: one engine per shard, each behind its own
  // RetrievalServer on an ephemeral port.  Shard 0's server is slow:
  // every 4th scan sleeps 50 ms.
  std::vector<std::unique_ptr<EmbeddedDatabase>> dbs;
  std::vector<std::unique_ptr<RetrievalEngine>> engines;
  std::vector<std::unique_ptr<net::RetrievalServer>> servers;
  std::vector<std::shared_ptr<RetrievalBackend>> shards;
  for (size_t s = 0; s < kShards; ++s) {
    dbs.push_back(std::make_unique<EmbeddedDatabase>(
        EmbedDatabase(model, oracle, shard_ids[s])));
    engines.push_back(std::make_unique<RetrievalEngine>(
        &model, &scorer, dbs.back().get(), shard_ids[s]));
    net::RetrievalServerOptions options;
    if (s == 0) {
      options.debug_delay_every_n = 4;
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
    shards.push_back(std::make_shared<net::RemoteRetrievalBackend>(
        &model, "127.0.0.1", servers.back()->port()));
    std::printf("shard %zu: 127.0.0.1:%u (%zu rows)%s\n", s,
                servers.back()->port(), shard_ids[s].size(),
                s == 0 ? "  [slow every 4th scan]" : "");
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

  auto query_dx = [&oracle](size_t q) -> DxToDatabaseFn {
    return [&oracle, q](size_t id) { return oracle.Distance(q, id); };
  };
  size_t identical = 0;
  RetrievalOptions options(k, p);
  for (size_t q = n; q < n + num_queries; ++q) {
    auto want = reference.Retrieve({query_dx(q), options});
    auto got = cluster.Retrieve({query_dx(q), options});
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

  // --- Deadlines: with a 20 ms budget, the requests whose shard-0 scan
  // lands on a slow turn come back kDeadlineExceeded; the rest answer.
  size_t answered = 0, expired = 0;
  for (size_t q = n; q < n + 16; ++q) {
    RetrievalOptions tight(k, p);
    tight.deadline =
        RetrievalOptions::DeadlineIn(std::chrono::milliseconds(20));
    auto got = cluster.Retrieve({query_dx(q), tight});
    if (got.ok()) {
      ++answered;
    } else if (got.status().code() == StatusCode::kDeadlineExceeded) {
      ++expired;
    }
  }
  std::printf("20 ms deadline: %zu/16 answered, %zu deadline exceeded\n",
              answered, expired);
  return 0;
}
