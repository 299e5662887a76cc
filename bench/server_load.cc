// Load generator for the async serving front end: how does the server
// behave under traffic, against clients calling the backend directly?
//
// Two generators over both backends (monolithic + sharded):
//
//  * Closed loop: C client threads, each submits one request and blocks
//    on its future before the next (classic concurrency-limited load).
//    Modes: "async" (the server, one worker per core, each popping one
//    request and calling Retrieve) and "direct" (clients call
//    backend->Retrieve themselves, no server at all).
//
//  * Open loop: requests arrive on a Poisson process at an offered QPS
//    regardless of completions (the arrival pattern a public endpoint
//    actually sees), swept over fractions of the measured closed-loop
//    capacity.  Reports achieved QPS, shed/expired counts, and sojourn
//    percentiles.
//
// Output: a human table plus a google-benchmark-shaped JSON artifact
// (bench_results/server_load.json by default, --out to override) with
// p50/p95/p99 tail latency per configuration;
// tools/check_bench_regressions.py gates p99 ratios against the untraced
// "async" closed loop, among others.
//
// Run: ./build/bench/server_load [--n=20000] [--clients=8]
//        [--requests=2000] [--open_seconds=1.0] [--out=path.json]
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench/drift_scenarios.h"
#include "bench/harness.h"
#include "src/data/dataset.h"
#include "src/data/drift_generator.h"
#include "src/obs/exposition.h"
#include "src/obs/quality_monitor.h"
#include "src/obs/trace.h"
#include "src/distance/lp.h"
#include "src/embedding/fastmap.h"
#include "src/net/remote_backend.h"
#include "src/net/retrieval_server.h"
#include "src/net/socket_transport.h"
#include "src/persist/durability.h"
#include "src/persist/durable_backend.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/server/async_retrieval_server.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/random.h"
#include "src/util/stats.h"
#include "src/util/timer.h"

namespace qse {
namespace {

using bench::BenchJsonEntry;
using bench::ComputeLatencyPercentiles;
using bench::LatencyPercentiles;

struct LoadStack {
  ObjectOracle<Vector> oracle;
  std::vector<size_t> db_ids;
  FastMapModel model;
  L2Scorer scorer;
  EmbeddedDatabase db;
  std::unique_ptr<RetrievalEngine> mono;
  std::unique_ptr<RetrievalEngine> sharded;
  std::vector<DxToDatabaseFn> queries;

  LoadStack(size_t n, size_t num_queries, size_t dims, uint64_t seed)
      : oracle(MakeOracle(n + num_queries, seed)),
        db_ids(Iota(n)),
        model(BuildModel(oracle, db_ids, dims, seed)),
        db(EmbedDatabase(model, oracle, db_ids)) {
    mono = std::make_unique<RetrievalEngine>(&model, &scorer, &db, db_ids);
    ShardedEngineOptions options;
    options.num_shards = std::max<size_t>(DefaultParallelism(), 2);
    sharded = std::make_unique<RetrievalEngine>(&model, &scorer, db, db_ids,
                                                options);
    for (size_t q = n; q < n + num_queries; ++q) {
      queries.push_back(
          [this, q](size_t id) { return oracle.Distance(q, id); });
    }
  }

  static ObjectOracle<Vector> MakeOracle(size_t total, uint64_t seed) {
    Rng rng(seed);
    std::vector<Vector> points;
    points.reserve(total);
    for (size_t i = 0; i < total; ++i) {
      points.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
    }
    return ObjectOracle<Vector>(std::move(points), L2Distance);
  }

  static FastMapModel BuildModel(const ObjectOracle<Vector>& oracle,
                                 const std::vector<size_t>& db_ids,
                                 size_t dims, uint64_t seed) {
    FastMapOptions options;
    options.dims = dims;
    options.seed = seed + 1;
    return BuildFastMap(oracle, db_ids, options);
  }

  static std::vector<size_t> Iota(size_t n) {
    std::vector<size_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0);
    return ids;
  }
};

struct RunResult {
  double seconds = 0;
  double qps = 0;
  double mean_ns = 0;
  LatencyPercentiles percentiles;  // ns
  size_t completed = 0;
  size_t rejected = 0;
  size_t expired = 0;
};

RunResult Summarize(const std::vector<double>& latencies_ns, double seconds,
                    size_t rejected, size_t expired) {
  RunResult r;
  r.seconds = seconds;
  r.completed = latencies_ns.size();
  r.qps = seconds > 0 ? r.completed / seconds : 0;
  r.mean_ns = Mean(latencies_ns);
  r.percentiles = ComputeLatencyPercentiles(latencies_ns);
  r.rejected = rejected;
  r.expired = expired;
  return r;
}

/// Closed loop against a submit-and-wait function: `clients` threads each
/// issue `requests / clients` sequential requests over the query set.
template <typename SubmitWaitFn>
RunResult RunClosedLoop(size_t clients, size_t requests,
                        const std::vector<DxToDatabaseFn>& queries,
                        const SubmitWaitFn& submit_and_wait) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  size_t per_client = requests / clients;
  Timer wall;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      latencies[c].reserve(per_client);
      for (size_t i = 0; i < per_client; ++i) {
        const DxToDatabaseFn& dx =
            queries[(c * per_client + i) % queries.size()];
        Timer t;
        submit_and_wait(dx);
        latencies[c].push_back(t.Seconds() * 1e9);
      }
    });
  }
  for (auto& t : threads) t.join();
  double seconds = wall.Seconds();
  std::vector<double> all;
  for (const auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
  return Summarize(all, seconds, 0, 0);
}

/// Open loop: Poisson arrivals at `offered_qps` for `seconds`, submitted
/// from one pacing thread; latencies recorded by completion callbacks.
RunResult RunOpenLoop(AsyncRetrievalServer* server, size_t k, size_t p,
                      const std::vector<DxToDatabaseFn>& queries,
                      double offered_qps, double seconds, uint64_t seed,
                      std::chrono::microseconds deadline_budget) {
  struct Completion {
    std::mutex mu;
    std::vector<double> latencies_ns;
    std::atomic<size_t> rejected{0};
    std::atomic<size_t> expired{0};
    std::atomic<size_t> outstanding{0};
  };
  auto state = std::make_shared<Completion>();
  Rng rng(seed);
  Timer wall;
  double next_arrival = 0;  // Seconds since wall start.
  size_t submitted = 0;
  while (next_arrival < seconds) {
    double now = wall.Seconds();
    if (now < next_arrival) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(next_arrival - now, 0.001)));
      continue;
    }
    RetrievalOptions ro(k, p);
    if (deadline_budget.count() > 0) {
      ro.deadline = RetrievalOptions::DeadlineIn(deadline_budget);
    }
    auto submit_time = RetrievalClock::now();
    state->outstanding.fetch_add(1);
    server->Submit({queries[submitted % queries.size()], ro})
        .OnReady([state, submit_time](const StatusOr<RetrievalResponse>& r) {
          double ns = std::chrono::duration<double, std::nano>(
                          RetrievalClock::now() - submit_time)
                          .count();
          if (r.ok()) {
            std::lock_guard<std::mutex> lock(state->mu);
            state->latencies_ns.push_back(ns);
          } else if (r.status().code() == StatusCode::kResourceExhausted) {
            state->rejected.fetch_add(1);
          } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
            state->expired.fetch_add(1);
          }
          state->outstanding.fetch_sub(1);
        });
    ++submitted;
    // Poisson process: exponential inter-arrival at rate offered_qps.
    next_arrival += -std::log(1.0 - rng.Uniform(0, 1)) / offered_qps;
  }
  while (state->outstanding.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  double elapsed = wall.Seconds();
  std::lock_guard<std::mutex> lock(state->mu);
  return Summarize(state->latencies_ns, elapsed, state->rejected.load(),
                   state->expired.load());
}

void Report(const std::string& name, const RunResult& r,
            std::vector<BenchJsonEntry>* json,
            std::vector<std::pair<std::string, double>> extra_fields = {}) {
  std::printf(
      "%-36s %9.0f qps   mean %8.1f us   p50 %8.1f  p95 %8.1f  p99 %8.1f "
      "us   completed %6zu  shed %5zu  expired %5zu\n",
      name.c_str(), r.qps, r.mean_ns / 1e3, r.percentiles.p50 / 1e3,
      r.percentiles.p95 / 1e3, r.percentiles.p99 / 1e3, r.completed,
      r.rejected, r.expired);
  BenchJsonEntry entry;
  entry.name = name;
  entry.real_time_ns = r.mean_ns;
  entry.AddPercentiles(r.percentiles);
  entry.extras.emplace_back("qps", r.qps);
  entry.extras.emplace_back("completed", static_cast<double>(r.completed));
  entry.extras.emplace_back("shed", static_cast<double>(r.rejected));
  entry.extras.emplace_back("expired", static_cast<double>(r.expired));
  for (auto& kv : extra_fields) entry.extras.push_back(std::move(kv));
  json->push_back(std::move(entry));
}

/// The drift workload: a small database whose TRUE distances drift on a
/// schedule while its embeddings stay frozen at step 0 — the frozen-
/// model staleness a production retrieval system actually suffers.
/// Shared by the abrupt-drift alarm-latency run and the p = n
/// no-drift verification run.
struct DriftStack {
  DriftingPointOracle oracle;
  std::vector<size_t> db_ids;
  FastMapModel model;
  L2Scorer scorer;
  EmbeddedDatabase db;
  std::unique_ptr<RetrievalEngine> mono;
  std::unique_ptr<RetrievalEngine> sharded;
  std::vector<DxToDatabaseFn> queries;

  DriftStack(size_t n, size_t num_queries, size_t dims,
             DriftSchedule schedule, uint64_t seed)
      : oracle(n + num_queries, /*point dims=*/2, schedule, seed),
        db_ids(LoadStack::Iota(n)),
        model([&] {
          FastMapOptions options;
          options.dims = dims;
          options.seed = seed + 1;
          return BuildFastMap(oracle, db_ids, options);
        }()),
        db(EmbedDatabase(model, oracle, db_ids)) {
    mono = std::make_unique<RetrievalEngine>(&model, &scorer, &db, db_ids);
    ShardedEngineOptions options;
    options.num_shards = 4;
    sharded = std::make_unique<RetrievalEngine>(&model, &scorer, db, db_ids,
                                                options);
    for (size_t q = n; q < n + num_queries; ++q) {
      queries.push_back(
          [this, q](size_t id) { return oracle.Distance(q, id); });
    }
  }
};

// --- SL_Remote: the multi-process shard cluster ---------------------
//
// The bench binary doubles as its own shard server: the parent
// fork/execs itself with --shard_server=1, and each child rebuilds the
// identical deterministic stack (same flags, same seed), carves out its
// shard by the engine's own hash partition, and serves it over TCP
// until the parent kills the process.

/// Child mode.  Never returns normally — serves until SIGKILLed.
int RunShardServer(const bench::Flags& flags) {
  const size_t n = flags.GetSize("n", 20000);
  const size_t dims = flags.GetSize("dims", 8);
  const size_t num_queries = flags.GetSize("queries", 256);
  const size_t shard = flags.GetSize("shard", 0);
  const size_t num_shards = flags.GetSize("num_shards", 2);
  const uint16_t port = static_cast<uint16_t>(flags.GetSize("port", 0));

  auto oracle = LoadStack::MakeOracle(n + num_queries, 2005);
  std::vector<size_t> db_ids = LoadStack::Iota(n);
  FastMapModel model = LoadStack::BuildModel(oracle, db_ids, dims, 2005);
  std::vector<size_t> shard_ids;
  for (size_t id : db_ids) {
    if (HashShardOf(id, num_shards) == shard) shard_ids.push_back(id);
  }
  EmbeddedDatabase shard_db = EmbedDatabase(model, oracle, shard_ids);
  L2Scorer scorer;
  RetrievalEngine engine(&model, &scorer, &shard_db, shard_ids);

  net::RetrievalServerOptions options;
  net::RetrievalServer server(&engine, options);
  Status s = server.Start(port);
  QSE_CHECK_MSG(s.ok(), s.ToString());
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(60));
}

/// Picks a currently-free loopback port by binding an ephemeral one and
/// closing it — a bind race the single-host cluster tolerates.
uint16_t PickFreePort() {
  auto listener = net::ServerSocket::Listen(0, {});
  QSE_CHECK_MSG(listener.ok(), listener.status().ToString());
  return listener.value().port();
}

pid_t SpawnShardServer(const char* self, size_t shard, size_t num_shards,
                       uint16_t port, size_t n, size_t dims,
                       size_t num_queries) {
  std::vector<std::string> args = {
      self,
      "--shard_server=1",
      "--shard=" + std::to_string(shard),
      "--num_shards=" + std::to_string(num_shards),
      "--port=" + std::to_string(port),
      "--n=" + std::to_string(n),
      "--dims=" + std::to_string(dims),
      "--queries=" + std::to_string(num_queries),
  };
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = fork();
  QSE_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    execv(self, argv.data());
    _exit(127);  // exec failed; async-signal-safe exit only
  }
  return pid;
}

/// Polls until the child's server accepts connections (it first has to
/// rebuild the embedding model, which takes a moment).
bool WaitForServer(uint16_t port, double timeout_seconds) {
  net::TransportOptions options;
  options.connect_timeout = std::chrono::milliseconds(250);
  Timer t;
  while (t.Seconds() < timeout_seconds) {
    if (net::Socket::Connect("127.0.0.1", port, options).ok()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

}  // namespace
}  // namespace qse

int main(int argc, char** argv) {
  using namespace qse;
  bench::Flags flags(argc, argv);
  if (flags.GetSize("shard_server", 0) != 0) return RunShardServer(flags);
  const size_t n = flags.GetSize("n", 20000);
  const size_t dims = flags.GetSize("dims", 8);
  const size_t num_queries = flags.GetSize("queries", 256);
  const size_t k = flags.GetSize("k", 3);
  const size_t p = flags.GetSize("p", 200);
  const size_t clients = flags.GetSize("clients", 8);
  const size_t requests = flags.GetSize("requests", 2000);
  const double open_seconds = flags.GetDouble("open_seconds", 1.0);
  std::string out = flags.GetString("out", "");
  if (out.empty()) {
    // ResultsPath ensures bench_results/ exists; swap the extension.
    out = bench::ResultsPath("server_load");
    out.replace(out.size() - 4, 4, ".json");
  }

  std::printf("server_load: n=%zu dims=%zu k=%zu p=%zu clients=%zu "
              "requests=%zu cores=%zu\n\n",
              n, dims, k, p, clients, requests, DefaultParallelism());
  LoadStack stack(n, num_queries, dims, 2005);
  const RetrievalOptions base_options(k, p);

  std::vector<BenchJsonEntry> json;
  double async_capacity_qps = 0;

  struct Backend {
    const char* name;
    const RetrievalBackend* backend;
  };
  const Backend backends[] = {{"mono", stack.mono.get()},
                              {"sharded", stack.sharded.get()}};

  for (const Backend& b : backends) {
    std::printf("--- backend: %s ---\n", b.name);

    // Closed loop, direct: clients call the backend themselves.
    {
      RunResult res = RunClosedLoop(
          clients, requests, stack.queries, [&](const DxToDatabaseFn& dx) {
            auto r = b.backend->Retrieve({dx, base_options});
            QSE_CHECK_MSG(r.ok(), r.status().ToString());
          });
      Report(std::string("SL_Closed/") + b.name + "/direct", res, &json);
    }

    // Closed loop through the server: one worker per core, each popping
    // one request and calling Retrieve.
    {
      AsyncServerOptions options;
      options.queue_capacity = 4096;
      options.num_workers = DefaultParallelism();
      AsyncRetrievalServer server(b.backend, options);
      RunResult res = RunClosedLoop(
          clients, requests, stack.queries, [&](const DxToDatabaseFn& dx) {
            // Keep the future alive across Get(): its shared state owns
            // the result the reference points into.
            Future<StatusOr<RetrievalResponse>> f =
                server.Submit({dx, base_options});
            const auto& r = f.Get();
            QSE_CHECK_MSG(r.ok(), r.status().ToString());
          });
      server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
      Report(std::string("SL_Closed/") + b.name + "/async", res, &json);
      if (std::string(b.name) == "mono") async_capacity_qps = res.qps;
    }

    // Observability overhead: the identical async configuration with
    // 1-in-64 trace sampling and metrics flowing into the global
    // registry (the exported snapshot below).  The regression gate
    // compares this run's p99 against the untraced async run —
    // sampling must not buy visibility with a tail blowup.  With
    // QSE_DISABLE_TRACING the sampling block compiles out and this
    // measures the bare instrumented server.
    if (std::string(b.name) == "mono") {
      AsyncServerOptions options;
      options.queue_capacity = 4096;
      options.num_workers = DefaultParallelism();
      options.trace_every_n = 64;
      options.registry = &obs::MetricRegistry::Global();
      AsyncRetrievalServer server(b.backend, options);
      RunResult res = RunClosedLoop(
          clients, requests, stack.queries, [&](const DxToDatabaseFn& dx) {
            Future<StatusOr<RetrievalResponse>> f =
                server.Submit({dx, base_options});
            const auto& r = f.Get();
            QSE_CHECK_MSG(r.ok(), r.status().ToString());
          });
      server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
      server.metrics();  // Refresh the queue-depth gauges for export.
      Report("SL_Closed/mono/async_traced", res, &json);
    }
  }

  // Open loop over the monolithic backend: sweep offered load as
  // fractions of the measured async closed-loop capacity, with a
  // deadline so overload sheds instead of queueing without bound.
  std::printf("--- open loop (mono, async, deadline 50ms) ---\n");
  for (double fraction : {0.5, 0.9, 1.2}) {
    double offered = std::max(async_capacity_qps * fraction, 50.0);
    AsyncServerOptions options;
    options.queue_capacity = 1024;
    options.num_workers = DefaultParallelism();
    AsyncRetrievalServer server(stack.mono.get(), options);
    RunResult res =
        RunOpenLoop(&server, k, p, stack.queries, offered, open_seconds,
                    7 + size_t(fraction * 10),
                    std::chrono::milliseconds(50));
    server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
    char name[64];
    std::snprintf(name, sizeof(name), "SL_Open/mono/load%02d",
                  int(fraction * 100));
    Report(name, res, &json, {{"offered_qps", offered}});
  }

  // Mutation under load: the same closed-loop configuration as
  // SL_Closed/mono/async, with a background thread removing and
  // re-inserting database objects through the server at a fixed rate —
  // the epoch/RCU concurrent-mutation path.  The regression gate
  // compares this run's p99 against the mutation-free closed loop:
  // mutation must not blow the query tail.
  {
    const auto mutate_interval = std::chrono::microseconds(
        flags.GetSize("mutate_interval_us", 5000));
    std::printf("--- mutation under load (mono, async, one remove+insert "
                "per %lld us) ---\n",
                static_cast<long long>(mutate_interval.count()));
    AsyncServerOptions options;
    options.queue_capacity = 4096;
    options.num_workers = DefaultParallelism();
    AsyncRetrievalServer server(stack.mono.get(), options);

    std::atomic<bool> stop{false};
    std::atomic<size_t> mutations{0};
    std::thread mutator([&] {
      Rng rng(909);
      while (!stop.load(std::memory_order_relaxed)) {
        // Remove a random object and re-insert it (re-embedding is
        // deterministic, so the quiescent content is unchanged; the
        // interior remove exercises the copy-on-write path).
        size_t id = rng.Index(n);
        if (server.Remove(id).ok()) {
          mutations.fetch_add(1, std::memory_order_relaxed);
          auto dx = [&stack, id](size_t other) {
            return id == other ? 0.0 : stack.oracle.Distance(id, other);
          };
          Status st = server.Insert(id, dx);
          QSE_CHECK_MSG(st.ok(), st.ToString());
          mutations.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(mutate_interval);
      }
    });
    RunResult res = RunClosedLoop(
        clients, requests, stack.queries, [&](const DxToDatabaseFn& dx) {
          Future<StatusOr<RetrievalResponse>> f =
              server.Submit({dx, base_options});
          const auto& r = f.Get();
          QSE_CHECK_MSG(r.ok(), r.status().ToString());
        });
    stop.store(true, std::memory_order_relaxed);
    mutator.join();
    server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
    QSE_CHECK_MSG(stack.mono->size() == n,
                  "mutation loop did not restore the database");
    Report("SL_Mutate/mono/async", res, &json,
           {{"mutations", static_cast<double>(mutations.load())}});
  }

  // --- SL_Remote: 2-shard multi-process serving ----------------------
  //
  // Two child processes (fork/exec of this binary in --shard_server
  // mode) serve the hash-partitioned database over TCP; the parent
  // composes RetrievalEngine over one RemoteRetrievalBackend per shard.
  //
  // Phases, each gated by tools/check_bench_regressions.py:
  //  * parity: the cluster answers bit-identically to the in-process
  //    2-shard engine (zero mismatches);
  //  * cluster: a closed loop whose p99 must stay within a bounded
  //    multiple of in-process sharded serving.
  {
    constexpr size_t kRemoteShards = 2;
    const size_t remote_requests = flags.GetSize("remote_requests", 600);
    const size_t parity_queries = std::min<size_t>(64, stack.queries.size());
    std::printf("--- remote cluster (%zu shards, multi-process) ---\n",
                kRemoteShards);

    uint16_t ports[kRemoteShards];
    pid_t pids[kRemoteShards];
    for (size_t s = 0; s < kRemoteShards; ++s) {
      ports[s] = PickFreePort();
      pids[s] = SpawnShardServer(argv[0], s, kRemoteShards, ports[s], n, dims,
                                 num_queries);
    }
    for (size_t s = 0; s < kRemoteShards; ++s) {
      QSE_CHECK_MSG(WaitForServer(ports[s], 120.0),
                    "shard server did not come up");
    }

    std::vector<std::shared_ptr<RetrievalBackend>> shards;
    for (size_t s = 0; s < kRemoteShards; ++s) {
      shards.push_back(std::make_shared<net::RemoteRetrievalBackend>(
          &stack.model, "127.0.0.1", ports[s]));
    }
    RetrievalEngine cluster(&stack.model, shards);

    // Parity against an in-process engine with the same shard count
    // (and therefore, via the shared hash partition, the same shards).
    // Embed a fresh database rather than reusing stack.db: SL_Mutate's
    // remove/re-insert churn permutes the physical row order, and the
    // partitioning constructor pairs db_ids[row] with row(row)
    // positionally — it needs a database whose row order matches
    // db_ids, exactly as the shard servers rebuilt theirs.
    EmbeddedDatabase pristine_db =
        EmbedDatabase(stack.model, stack.oracle, stack.db_ids);
    ShardedEngineOptions ref_options;
    ref_options.num_shards = kRemoteShards;
    RetrievalEngine reference(&stack.model, &stack.scorer, pristine_db,
                              stack.db_ids, ref_options);
    size_t mismatches = 0;
    for (size_t q = 0; q < parity_queries; ++q) {
      auto want = reference.Retrieve({stack.queries[q], base_options});
      auto got = cluster.Retrieve({stack.queries[q], base_options});
      QSE_CHECK_MSG(want.ok(), want.status().ToString());
      QSE_CHECK_MSG(got.ok(), got.status().ToString());
      bool same = want->neighbors.size() == got->neighbors.size();
      for (size_t i = 0; same && i < want->neighbors.size(); ++i) {
        same = want->neighbors[i].index == got->neighbors[i].index &&
               want->neighbors[i].score == got->neighbors[i].score;
      }
      if (!same) ++mismatches;
    }
    std::printf("parity: %zu/%zu queries bit-identical to the in-process "
                "2-shard engine\n",
                parity_queries - mismatches, parity_queries);
    BenchJsonEntry parity;
    parity.name = "SL_Remote/parity";
    parity.real_time_ns = 0;
    parity.extras.emplace_back("parity_queries",
                               static_cast<double>(parity_queries));
    parity.extras.emplace_back("parity_mismatches",
                               static_cast<double>(mismatches));
    json.push_back(std::move(parity));

    RunResult res =
        RunClosedLoop(clients, remote_requests, stack.queries,
                      [&](const DxToDatabaseFn& dx) {
                        auto r = cluster.Retrieve({dx, base_options});
                        QSE_CHECK_MSG(r.ok(), r.status().ToString());
                      });
    Report("SL_Remote/cluster", res, &json);

    for (pid_t pid : pids) {
      kill(pid, SIGKILL);
      int wstatus = 0;
      waitpid(pid, &wstatus, 0);
    }
  }

  const std::string stem =
      out.size() > 5 && out.compare(out.size() - 5, 5, ".json") == 0
          ? out.substr(0, out.size() - 5)
          : out;

#ifndef QSE_DISABLE_TRACING
  // The observability acceptance path: one explicitly traced request
  // over the SHARDED server, its spans written as Chrome trace_event
  // JSON (load in Perfetto / chrome://tracing) and its span coverage —
  // the fraction of admit-to-completion wall-clock the spans account
  // for — gated at >= 0.95 by tools/check_bench_regressions.py.  A
  // sub-millisecond request can lose more than 5% to one unlucky OS
  // preemption between stamps, so take the best of a few attempts.
  {
    AsyncServerOptions options;
    options.registry = &obs::MetricRegistry::Global();
    AsyncRetrievalServer server(stack.sharded.get(), options);
    double best_coverage = 0;
    size_t num_spans = 0;
    std::string chrome_json;
    for (int attempt = 0; attempt < 5 && best_coverage < 0.95; ++attempt) {
      RetrievalRequest req{stack.queries[attempt % stack.queries.size()],
                           base_options};
      req.trace = std::make_shared<obs::RequestTrace>();
      Future<StatusOr<RetrievalResponse>> f = server.Submit(std::move(req));
      const auto& r = f.Get();
      QSE_CHECK_MSG(r.ok(), r.status().ToString());
      QSE_CHECK_MSG(r.value().trace != nullptr,
                    "traced request lost its trace");
      std::vector<obs::TraceSpan> spans = r.value().trace->spans();
      double coverage = obs::SpanCoverage(spans);
      if (coverage > best_coverage || chrome_json.empty()) {
        best_coverage = coverage;
        num_spans = spans.size();
        chrome_json = r.value().trace->ChromeTraceJson();
      }
    }
    server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);

    const std::string trace_path = stem + "_trace.json";
    std::ofstream trace_out(trace_path);
    QSE_CHECK_MSG(trace_out.good(), "cannot open " + trace_path);
    trace_out << chrome_json;
    trace_out.flush();
    QSE_CHECK_MSG(trace_out.good(), "failed writing " + trace_path);
    std::printf("--- trace (sharded, 1 sampled request) ---\n"
                "spans %zu, coverage %.3f of admit-to-completion; wrote %s\n",
                num_spans, best_coverage, trace_path.c_str());
    BenchJsonEntry entry;
    entry.name = "SL_Trace/sharded";
    entry.real_time_ns = 0;
    entry.extras.emplace_back("trace_coverage", best_coverage);
    entry.extras.emplace_back("trace_spans", static_cast<double>(num_spans));
    json.push_back(std::move(entry));
  }
#endif  // QSE_DISABLE_TRACING

  // --- SL_Drift: background quality auditing + drift detection ------
  //
  // (a) Control: the async closed loop again, now with a
  // QualityMonitor sampling 1-in-16 completed responses into background
  // exact-kNN audits.  Gates: audit overhead keeps p99 within a small
  // factor of the audit-free async run, ZERO false drift alarms on
  // this stationary workload, and the shed ratio stays bounded.  The
  // monitor publishes into the global registry, so the exported
  // server_load_metrics.{json,prom} carry the qse_quality_* series.
  std::printf("--- quality audits + drift (control: no drift) ---\n");
  {
    obs::QualityMonitorOptions qopts;
    qopts.sample_every_n = 16;
    qopts.registry = &obs::MetricRegistry::Global();
    obs::QualityMonitor monitor(qopts);
    AsyncServerOptions options;
    options.queue_capacity = 4096;
    options.num_workers = DefaultParallelism();
    options.quality_monitor = &monitor;
    AsyncRetrievalServer server(stack.mono.get(), options);
    RunResult res = RunClosedLoop(
        clients, requests, stack.queries, [&](const DxToDatabaseFn& dx) {
          Future<StatusOr<RetrievalResponse>> f =
              server.Submit({dx, base_options});
          const auto& r = f.Get();
          QSE_CHECK_MSG(r.ok(), r.status().ToString());
        });
    server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
    monitor.Flush();
    obs::QualityMonitorStats ms = monitor.stats();
    monitor.Shutdown();
    const double shed_ratio =
        ms.sampled > 0 ? double(ms.shed) / double(ms.sampled) : 0.0;
    std::printf("audits: sampled %llu completed %llu shed %llu "
                "(ratio %.3f); recall@k %.3f; false alarms %llu\n",
                static_cast<unsigned long long>(ms.sampled),
                static_cast<unsigned long long>(ms.completed),
                static_cast<unsigned long long>(ms.shed), shed_ratio,
                ms.recall_at_k,
                static_cast<unsigned long long>(ms.alarms));
    Report("SL_Drift/mono/control", res, &json,
           {{"audits_completed", static_cast<double>(ms.completed)},
            {"audits_shed", static_cast<double>(ms.shed)},
            {"audit_shed_ratio", shed_ratio},
            {"false_alarms", static_cast<double>(ms.alarms)},
            {"audited_recall", ms.recall_at_k}});
  }

  // (b) Abrupt drift: a small frozen-embedding stack whose true
  // distances step-change at a known onset, audited on EVERY query so
  // alarm latency is measured in audits deterministically.  Gates:
  // the alarm must raise, within a bounded number of audits past the
  // onset, and the audited recall must actually have degraded (the
  // alarm fired for a real reason).  Metrics go to a private registry
  // exported as <stem>_drift_metrics.{json,prom}.
  {
    const size_t drift_n = flags.GetSize("drift_n", 4000);
    const size_t drift_onset = 64;
    const size_t drift_max_steps = 512;
    obs::MetricRegistry drift_registry;
    DriftStack drift(drift_n, 128, dims,
                     bench::AbruptDrift(drift_onset), 1907);
    obs::QualityMonitorOptions qopts;
    qopts.sample_every_n = 1;  // Audit everything: deterministic latency.
    qopts.window = 16;
    qopts.registry = &drift_registry;
    obs::QualityMonitor monitor(qopts);
    RetrievalOptions dro(/*k=*/10, /*p=*/50);
    dro.audit_monitor = &monitor;

    double recall_before = 0.0, recall_after = 0.0;
    size_t audits_to_alarm = 0;
    bool alarm_raised = false;
    for (size_t step = 0; step < drift_max_steps; ++step) {
      drift.oracle.SetStep(step);
      auto r = drift.mono->Retrieve(
          {drift.queries[step % drift.queries.size()], dro});
      QSE_CHECK_MSG(r.ok(), r.status().ToString());
      monitor.Flush();
      obs::QualityMonitorStats ms = monitor.stats();
      if (step + 1 == drift_onset) recall_before = ms.recall_at_k;
      if (!alarm_raised && ms.drift_alarm) {
        alarm_raised = true;
        audits_to_alarm =
            ms.completed > drift_onset ? ms.completed - drift_onset : 0;
        recall_after = ms.recall_at_k;
        break;
      }
    }
    monitor.Shutdown();
    std::printf("--- drift (abrupt at audit %zu, mono, audit-every-query) "
                "---\nalarm %s after %zu post-onset audits; recall %.3f -> "
                "%.3f\n",
                drift_onset, alarm_raised ? "RAISED" : "missed",
                audits_to_alarm, recall_before, recall_after);
    BenchJsonEntry entry;
    entry.name = "SL_Drift/mono/abrupt";
    entry.real_time_ns = 0;
    entry.extras.emplace_back("alarm_raised", alarm_raised ? 1.0 : 0.0);
    entry.extras.emplace_back("audits_to_alarm",
                              static_cast<double>(audits_to_alarm));
    entry.extras.emplace_back("recall_before", recall_before);
    entry.extras.emplace_back("recall_after", recall_after);
    entry.extras.emplace_back("recall_degradation",
                              recall_before - recall_after);
    json.push_back(std::move(entry));

    Status ds = bench::WriteMetricsJson(stem + "_drift_metrics.json",
                                        drift_registry);
    QSE_CHECK_MSG(ds.ok(), ds.ToString());
    ds = bench::WriteMetricsPrometheus(stem + "_drift_metrics.prom",
                                       drift_registry);
    QSE_CHECK_MSG(ds.ok(), ds.ToString());
  }

  // (c) p = n, no drift: the degenerate-to-brute-force configuration in
  // which filter-and-refine provably returns the exact answer — every
  // audit must find a bit-identical neighbor set (zero mismatches,
  // recall exactly 1).  Runs over the SHARDED engine so the scatter/
  // gather audit path is the one verified.
  {
    const size_t verify_n = 1500;
    obs::MetricRegistry verify_registry;
    DriftStack verify(verify_n, 32, dims, DriftSchedule{}, 2317);
    obs::QualityMonitorOptions qopts;
    qopts.sample_every_n = 1;
    qopts.registry = &verify_registry;
    obs::QualityMonitor monitor(qopts);
    RetrievalOptions vro(/*k=*/10, /*p=*/verify_n);
    vro.audit_monitor = &monitor;
    for (size_t i = 0; i < verify.queries.size(); ++i) {
      auto r = verify.sharded->Retrieve({verify.queries[i], vro});
      QSE_CHECK_MSG(r.ok(), r.status().ToString());
    }
    monitor.Flush();
    obs::QualityMonitorStats ms = monitor.stats();
    monitor.Shutdown();
    std::printf("--- verify (sharded, p = n, no drift) ---\n"
                "%llu audits, %llu mismatches (must be 0), recall %.3f\n",
                static_cast<unsigned long long>(ms.completed),
                static_cast<unsigned long long>(ms.mismatches),
                ms.recall_at_k);
    BenchJsonEntry entry;
    entry.name = "SL_Drift/sharded/verify_pn";
    entry.real_time_ns = 0;
    entry.extras.emplace_back("audits_completed",
                              static_cast<double>(ms.completed));
    entry.extras.emplace_back("audit_mismatches",
                              static_cast<double>(ms.mismatches));
    entry.extras.emplace_back("exact_recall", ms.recall_at_k);
    json.push_back(std::move(entry));
  }

  // --- SL_Recover: durability — WAL tail cost + warm restart --------
  //
  // The same closed-loop-with-background-mutator workload as SL_Mutate,
  // run twice over two identically-built engines: once bare (WAL off,
  // the baseline) and once behind the DurableBackend with fsync-every-N
  // and auto-snapshots (WAL on).  Then a warm restart: recover a THIRD
  // engine from the directory the WAL-on run left behind and verify it
  // bit-identical (memcmp over rows + ids) and answer-identical to the
  // live engine.  Gates in tools/check_bench_regressions.py: zero
  // parity mismatches, at least one record actually replayed, and the
  // WAL-on p99 within a host-adaptive factor of WAL-off.
  {
    const size_t recover_n =
        flags.GetSize("recover_n", std::min<size_t>(n, 4000));
    const std::string dur_dir = stem + "_durability";
    ::mkdir(dur_dir.c_str(), 0755);
    for (const char* f : {"/wal.qse", "/snapshot.qse", "/snapshot.qse.tmp"}) {
      std::remove((dur_dir + f).c_str());
    }
    std::printf("--- durability (mono, n=%zu, fsync every 64, dir %s) ---\n",
                recover_n, dur_dir.c_str());

    const auto dx_of = [&](size_t id) {
      return [&stack, id](size_t other) {
        return id == other ? 0.0 : stack.oracle.Distance(id, other);
      };
    };
    // Closed loop + mutator over any backend, SL_Mutate's shape.
    const auto run_mutating_loop = [&](RetrievalBackend* backend) {
      AsyncServerOptions options;
      options.queue_capacity = 4096;
      options.num_workers = DefaultParallelism();
      AsyncRetrievalServer server(backend, options);
      std::atomic<bool> stop{false};
      std::thread mutator([&] {
        Rng rng(911);
        while (!stop.load(std::memory_order_relaxed)) {
          size_t id = rng.Index(recover_n);
          if (server.Remove(id).ok()) {
            Status st = server.Insert(id, dx_of(id));
            QSE_CHECK_MSG(st.ok(), st.ToString());
          }
          std::this_thread::sleep_for(std::chrono::microseconds(5000));
        }
      });
      RunResult res = RunClosedLoop(
          clients, requests, stack.queries, [&](const DxToDatabaseFn& dx) {
            Future<StatusOr<RetrievalResponse>> f =
                server.Submit({dx, base_options});
            const auto& r = f.Get();
            QSE_CHECK_MSG(r.ok(), r.status().ToString());
          });
      stop.store(true, std::memory_order_relaxed);
      mutator.join();
      server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
      return res;
    };

    // (a) WAL off: bare engine, same content, same churn.
    EmbeddedDatabase off_db(dims);
    RetrievalEngine off_engine(&stack.model, &stack.scorer, &off_db, {});
    for (size_t id = 0; id < recover_n; ++id) {
      QSE_CHECK(off_engine.Insert(id, dx_of(id)).ok());
    }
    RunResult res_off = run_mutating_loop(&off_engine);
    Report("SL_Recover/mono/wal_off", res_off, &json);

    // (b) WAL on: every mutation logged, snapshots compacting mid-run.
    persist::DurabilityOptions dopts;
    dopts.dir = dur_dir;
    dopts.fsync = persist::FsyncPolicy::kEveryN;
    dopts.fsync_every_n = 64;
    dopts.snapshot_every_records = recover_n / 2;
    auto opened = persist::DurabilityManager::Open(dopts);
    QSE_CHECK_MSG(opened.ok(), opened.status().ToString());
    persist::DurabilityManager* manager = opened.value().get();
    EmbeddedDatabase wal_db(dims);
    RetrievalEngine wal_engine(&stack.model, &stack.scorer, &wal_db, {});
    persist::DurableBackend durable(&wal_engine, &stack.model, manager,
                                    {&wal_db});
    for (size_t id = 0; id < recover_n; ++id) {
      QSE_CHECK(durable.Insert(id, dx_of(id)).ok());
    }
    RunResult res_on = run_mutating_loop(&durable);
    // Two more logged mutations so the WAL always has a live tail past
    // the last auto-snapshot — recovery below must have records to
    // replay even if a snapshot happened to fire on the loop's final
    // mutation.
    QSE_CHECK(durable.Remove(0).ok());
    QSE_CHECK(durable.Insert(0, dx_of(0)).ok());
    const uint64_t wal_last_seq = manager->last_seq();
    Report("SL_Recover/mono/wal_on", res_on, &json,
           {{"wal_last_seq", static_cast<double>(wal_last_seq)}});

    // (c) Warm restart: recover a fresh engine from the directory the
    // WAL-on run just left (snapshot + live tail; the process conveniently
    // did not crash, but recovery cannot tell).
    Timer recover_timer;
    auto reopened = persist::DurabilityManager::Open(dopts);
    QSE_CHECK_MSG(reopened.ok(), reopened.status().ToString());
    persist::DurabilityManager* rec_manager = reopened.value().get();
    EmbeddedDatabase rec_db(dims);
    RetrievalEngine rec_engine(&stack.model, &stack.scorer, &rec_db, {});
    QSE_CHECK(rec_manager->InstallSnapshot({&rec_db}).ok());
    rec_engine.RebuildIdIndex();
    auto replayed = rec_manager->Replay(&rec_engine);
    QSE_CHECK_MSG(replayed.ok(), replayed.status().ToString());
    const double recovery_ms = recover_timer.Seconds() * 1e3;

    // Parity: the recovered database must be memcmp-identical to the
    // live one (the WAL is the exact successful mutation sequence), and
    // answer-identically on queries.
    size_t parity_mismatches = 0;
    {
      EmbeddedDatabase::Snapshot live_pin = wal_db.snapshot();
      EmbeddedDatabase::Snapshot rec_pin = rec_db.snapshot();
      const EmbeddedDatabase::View& lv = live_pin.view();
      const EmbeddedDatabase::View& rv = rec_pin.view();
      if (lv.size() != rv.size() ||
          std::memcmp(lv.data(), rv.data(),
                      lv.size() * lv.dims() * sizeof(double)) != 0 ||
          std::memcmp(lv.ids(), rv.ids(), lv.size() * sizeof(size_t)) != 0) {
        ++parity_mismatches;
      }
    }
    const size_t parity_queries = std::min<size_t>(64, stack.queries.size());
    for (size_t q = 0; q < parity_queries; ++q) {
      auto want = wal_engine.Retrieve({stack.queries[q], base_options});
      auto got = rec_engine.Retrieve({stack.queries[q], base_options});
      QSE_CHECK_MSG(want.ok(), want.status().ToString());
      QSE_CHECK_MSG(got.ok(), got.status().ToString());
      bool same = want->neighbors.size() == got->neighbors.size();
      for (size_t i = 0; same && i < want->neighbors.size(); ++i) {
        same = want->neighbors[i].index == got->neighbors[i].index &&
               want->neighbors[i].score == got->neighbors[i].score;
      }
      if (!same) ++parity_mismatches;
    }
    std::printf("recovery: %.1f ms to warm-restart (%llu records replayed "
                "over a snapshot at seq %llu); %zu parity mismatches "
                "(must be 0)\n",
                recovery_ms,
                static_cast<unsigned long long>(replayed.value()),
                static_cast<unsigned long long>(
                    rec_manager->recovery().snapshot_cut_seq),
                parity_mismatches);
    BenchJsonEntry recover;
    recover.name = "SL_Recover/mono/recovery";
    recover.real_time_ns = recovery_ms * 1e6;
    recover.extras.emplace_back("recovery_ms", recovery_ms);
    recover.extras.emplace_back("replayed_records",
                                static_cast<double>(replayed.value()));
    recover.extras.emplace_back(
        "snapshot_cut_seq",
        static_cast<double>(rec_manager->recovery().snapshot_cut_seq));
    recover.extras.emplace_back("parity_mismatches",
                                static_cast<double>(parity_mismatches));
    json.push_back(std::move(recover));
  }

  Status s = bench::WriteBenchJson(out, json);
  QSE_CHECK_MSG(s.ok(), s.ToString());

  // The metrics snapshot artifact: every engine counter/histogram plus
  // the servers that ran against the global registry, as machine-
  // diffable JSON (presence floors in check_bench_regressions.py) and
  // Prometheus text exposition.
  s = bench::WriteMetricsJson(stem + "_metrics.json",
                              obs::MetricRegistry::Global());
  QSE_CHECK_MSG(s.ok(), s.ToString());
  s = bench::WriteMetricsPrometheus(stem + "_metrics.prom",
                                    obs::MetricRegistry::Global());
  QSE_CHECK_MSG(s.ok(), s.ToString());
  std::printf("\nwrote %s (%zu benchmark entries), %s_metrics.{json,prom}\n",
              out.c_str(), json.size(), stem.c_str());
  return 0;
}
