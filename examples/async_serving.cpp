// Async serving: the request-queue front end over RetrievalBackend.
//
// The engines answer caller-driven batches; nothing shapes *traffic*.
// AsyncRetrievalServer owns a backend behind Submit -> Future: a bounded
// FIFO admission queue refuses overload with kResourceExhausted,
// per-request deadlines turn late answers into kDeadlineExceeded
// (checked at dequeue and again before the refine step — never silently
// dropped), and each worker pops straight from that queue, coalesces
// concurrent submitters into an adaptive micro-batch and executes it
// itself — RetrieveBatch spreads the batch across cores.  Results for
// admitted, non-expired requests are bit-identical to calling the
// backend directly.
//
// Everything rides on one envelope: RetrievalRequest{dx,
// RetrievalOptions{k, p, deadline, want_stats}}.
//
// Build: cmake --build build && ./build/examples/async_serving
#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <thread>
#include <vector>

#include "src/data/dataset.h"
#include "src/distance/lp.h"
#include "src/embedding/fastmap.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/server/async_retrieval_server.h"
#include "src/util/random.h"

int main() {
  using namespace qse;
  using namespace std::chrono_literals;

  // --- Data: random points in the unit square, FastMap into 8 dims,
  // served through the sharded engine (any RetrievalBackend works).
  const size_t n = 20000, num_queries = 48, k = 3, p = 200;
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
  RetrievalEngine backend(&model, &scorer, embedded, db_ids, {});

  auto query_dx = [&oracle, n](size_t q) -> DxToDatabaseFn {
    size_t query_id = n + q;
    return [&oracle, query_id](size_t id) {
      return oracle.Distance(query_id, id);
    };
  };

  // --- The server: bounded admission, micro-batches up to 32, one
  // worker driving RetrieveBatch across all cores.
  AsyncServerOptions options;
  options.queue_capacity = 256;
  options.max_batch = 32;
  AsyncRetrievalServer server(&backend, options);

  // --- A burst of concurrent submitters; futures resolve as batches
  // complete.  OnReady shows the callback API.
  std::printf("submitting %zu queries from 4 threads...\n", num_queries);
  std::atomic<size_t> callbacks{0};
  std::vector<Future<StatusOr<RetrievalResponse>>> futures(num_queries);
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t q = t; q < num_queries; q += 4) {
        RetrievalOptions ro(k, p);
        ro.deadline = RetrievalOptions::DeadlineIn(500ms);
        futures[q] = server.Submit({query_dx(q), ro});
        futures[q].OnReady(
            [&callbacks](const StatusOr<RetrievalResponse>&) {
              callbacks.fetch_add(1);
            });
      }
    });
  }
  for (auto& t : submitters) t.join();

  // Blocking Wait API: consume results and verify against the backend.
  size_t identical = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    const StatusOr<RetrievalResponse>& got = futures[q].Get();
    auto want = backend.Retrieve({query_dx(q), RetrievalOptions(k, p)});
    if (got.ok() && want.ok() &&
        got->neighbors[0].index == want->neighbors[0].index &&
        got->neighbors[0].score == want->neighbors[0].score) {
      ++identical;
    }
  }
  std::printf("parity: %zu/%zu async answers bit-identical to direct "
              "Retrieve; %zu completion callbacks fired\n",
              identical, num_queries, callbacks.load());

  // --- Deadlines: a request that cannot be answered in time comes back
  // kDeadlineExceeded (here: already expired on arrival).
  RetrievalOptions tight(k, p);
  tight.deadline = RetrievalClock::now() - 1ms;
  auto late = server.Submit({query_dx(0), tight});
  std::printf("expired request -> %s\n",
              late.Get().status().ToString().c_str());

  // --- Stats: admission counters and the micro-batch size histogram
  // (the adaptivity signal: idle traffic batches at 1, bursts
  // coalesce).
  ServerStats stats = server.stats();
  std::printf("stats: submitted %zu, admitted %zu, completed %zu, "
              "rejected %zu, expired %zu\n",
              stats.submitted, stats.admitted, stats.completed,
              stats.rejected, stats.expired);
  std::printf("batch sizes:");
  for (size_t i = 0; i < stats.batch_size_histogram.size(); ++i) {
    if (stats.batch_size_histogram[i] > 0) {
      std::printf(" %zux%zu", stats.batch_size_histogram[i], i + 1);
    }
  }
  std::printf("  (count x size)\n");

  // --- Graceful shutdown: drains admitted work, then rejects new
  // submits with FAILED_PRECONDITION.
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  auto after = server.Submit({query_dx(0), tight});
  std::printf("submit after shutdown -> %s\n",
              after.Get().status().ToString().c_str());
  return 0;
}
