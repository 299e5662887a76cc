// Tests of the async serving front end: every admitted, non-expired
// request must come back bit-identical to a direct
// RetrievalBackend::Retrieve — over both engines, multiple worker counts
// and randomized multi-threaded submit interleavings —
// and every rejected/expired/cancelled request must surface the right
// status code.  Nothing is ever silently dropped.  Admission is one FIFO
// queue (arrival order in, the incoming request refused when full),
// asserted deterministically below.
#include "src/server/async_retrieval_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/embedding/fastmap.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace qse {
namespace {

using namespace std::chrono_literals;

/// One workload shared by all server tests: plane points under L2,
/// FastMap-embedded, served monolithic and sharded.
struct ServingStack {
  ObjectOracle<Vector> oracle;
  std::vector<size_t> db_ids;
  std::vector<size_t> query_ids;
  FastMapModel model;
  L2Scorer scorer;
  EmbeddedDatabase db;
  RetrievalEngine mono;
  RetrievalEngine sharded;

  static FastMapModel BuildModel(const ObjectOracle<Vector>& oracle,
                                 const std::vector<size_t>& db_ids) {
    FastMapOptions options;
    options.dims = 3;
    return BuildFastMap(oracle, db_ids, options);
  }

  static ShardedEngineOptions ShardOptions() {
    ShardedEngineOptions options;
    options.num_shards = 3;
    options.scatter_threads = 1;
    return options;
  }

  explicit ServingStack(size_t n_db = 60, size_t n_query = 10,
                        uint64_t seed = 41)
      : oracle(test::MakePlaneOracle(n_db + n_query, seed)),
        db_ids(test::Iota(n_db)),
        query_ids(test::Iota(n_query, n_db)),
        model(BuildModel(oracle, db_ids)),
        db(EmbedDatabase(model, oracle, db_ids)),
        mono(&model, &scorer, &db, db_ids),
        sharded(&model, &scorer, db, db_ids, ShardOptions()) {}

  DxToDatabaseFn QueryDx(size_t query_id) const {
    return [this, query_id](size_t id) {
      return oracle.Distance(query_id, id);
    };
  }
};

void ExpectSameResult(const RetrievalResponse& want,
                      const RetrievalResponse& got,
                      const std::string& context) {
  EXPECT_EQ(want.exact_distances, got.exact_distances) << context;
  EXPECT_EQ(want.embedding_distances, got.embedding_distances) << context;
  EXPECT_EQ(want.neighbors, got.neighbors) << context;
}

/// A dx wrapper that blocks inside the backend until released — pins a
/// worker deterministically so queueing behavior can be observed.
struct WorkerGate {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  std::atomic<size_t> entered{0};

  DxToDatabaseFn Gated(DxToDatabaseFn inner) {
    return [this, inner](size_t id) {
      if (entered.fetch_add(1) == 0) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return released; });
      }
      return inner(id);
    };
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
};

/// Pins the single worker inside the backend with a gated request: the
/// worker is the whole pipeline between admission and execution, so
/// every subsequent Submit stays in the admission queue until the gate
/// releases.  Requires num_workers = 1.  Returns once the gated request
/// is inside the backend and the admission queue is observably empty.
struct PinnedPipeline {
  WorkerGate gate;
  Future<StatusOr<RetrievalResponse>> gated;

  PinnedPipeline(AsyncRetrievalServer* server, const ServingStack& s,
                 RetrievalOptions options) {
    gated = server->Submit({gate.Gated(s.QueryDx(s.query_ids[0])), options});
    while (gate.entered.load() == 0) std::this_thread::sleep_for(1ms);
    while (server->stats().queue_depth > 0) std::this_thread::sleep_for(1ms);
  }
};

// --- The tentpole guarantee: bit-identical to direct Retrieve ----------

TEST(AsyncServerParityTest, RandomizedInterleavingsOverBothEngines) {
  ServingStack s;
  const size_t k = 3;
  struct Backend {
    const char* name;
    const RetrievalBackend* backend;
  };
  const Backend backends[] = {{"mono", &s.mono}, {"sharded", &s.sharded}};

  for (const Backend& b : backends) {
    for (size_t num_workers : {1u, 2u, 4u}) {
      AsyncServerOptions options;
      options.num_workers = num_workers;
      options.queue_capacity = 256;
      AsyncRetrievalServer server(b.backend, options);

      // 3 submitter threads, each submitting every query at a shuffled
      // (query, p) order with jittered pacing: the admission queue
      // sees a different interleaving every config.
      struct Expectation {
        size_t query_id;
        size_t p;
        Future<StatusOr<RetrievalResponse>> future;
      };
      std::mutex mu;
      std::vector<Expectation> pending;
      std::vector<std::thread> submitters;
      for (size_t t = 0; t < 3; ++t) {
        submitters.emplace_back([&, t] {
          Rng rng(1000 * num_workers + t);
          std::vector<std::pair<size_t, size_t>> work;
          for (size_t query_id : s.query_ids) {
            for (size_t p : {size_t{1}, size_t{7}, s.db_ids.size()}) {
              work.emplace_back(query_id, p);
            }
          }
          for (size_t i = work.size(); i > 1; --i) {
            std::swap(work[i - 1], work[rng.UniformInt(0, i - 1)]);
          }
          for (const auto& [query_id, p] : work) {
            RetrievalOptions ro(k, p);
            auto future = server.Submit({s.QueryDx(query_id), ro});
            {
              std::lock_guard<std::mutex> lock(mu);
              pending.push_back({query_id, p, std::move(future)});
            }
            if (rng.UniformInt(0, 3) == 0) {
              std::this_thread::sleep_for(
                  std::chrono::microseconds(rng.UniformInt(0, 200)));
            }
          }
        });
      }
      for (auto& t : submitters) t.join();
      server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);

      for (const Expectation& e : pending) {
        auto want = b.backend->Retrieve(
            {s.QueryDx(e.query_id), RetrievalOptions(k, e.p)});
        ASSERT_TRUE(want.ok());
        const StatusOr<RetrievalResponse>& got = e.future.Get();
        ASSERT_TRUE(got.ok()) << got.status();
        ExpectSameResult(*want, *got,
                         std::string(b.name) +
                             " workers=" + std::to_string(num_workers) +
                             " q=" + std::to_string(e.query_id) +
                             " p=" + std::to_string(e.p));
      }
      ServerStats stats = server.stats();
      EXPECT_EQ(stats.submitted, pending.size());
      EXPECT_EQ(stats.admitted, pending.size());
      EXPECT_EQ(stats.completed, pending.size());
      EXPECT_EQ(stats.rejected, 0u);
      EXPECT_EQ(stats.shed, 0u);
      EXPECT_EQ(stats.expired, 0u);
      EXPECT_EQ(stats.cancelled, 0u);
    }
  }
}

TEST(AsyncServerParityTest, BlockingRetrieveMatchesBackend) {
  ServingStack s;
  AsyncRetrievalServer server(&s.mono);
  auto want =
      s.mono.Retrieve({s.QueryDx(s.query_ids[0]), RetrievalOptions(2, 10)});
  auto got =
      server.Retrieve({s.QueryDx(s.query_ids[0]), RetrievalOptions(2, 10)});
  ASSERT_TRUE(want.ok() && got.ok());
  ExpectSameResult(*want, *got, "blocking");
}

/// Forwards reads to `inner`'s Retrieve but refuses RetrieveBatch: a
/// server that batched any request would surface the refusal.
class RetrieveOnlyBackend : public RetrievalBackend {
 public:
  explicit RetrieveOnlyBackend(const RetrievalBackend* inner) : inner_(inner) {}

  StatusOr<RetrievalResponse> Retrieve(
      const RetrievalRequest& request) const override {
    return inner_->Retrieve(request);
  }
  StatusOr<std::vector<RetrievalResponse>> RetrieveBatch(
      const std::vector<DxToDatabaseFn>&,
      const RetrievalOptions&) const override {
    return Status::Internal("the server must not call RetrieveBatch");
  }
  StatusOr<ScanCandidatesResult> ScanCandidates(
      const Vector& embedded_query,
      const RetrievalOptions& options) const override {
    return inner_->ScanCandidates(embedded_query, options);
  }
  Status Insert(size_t, const DxToDatabaseFn&) override {
    return Status::FailedPrecondition("read-only");
  }
  Status InsertEmbedded(size_t, const Vector&) override {
    return Status::FailedPrecondition("read-only");
  }
  Status Remove(size_t) override {
    return Status::FailedPrecondition("read-only");
  }
  size_t size() const override { return inner_->size(); }

 private:
  const RetrievalBackend* inner_;
};

TEST(AsyncServerTest, EveryRequestRunsThroughRetrieve) {
  // Traced and untraced requests alike take the backend's Retrieve: a
  // burst over two workers, half of it carrying a trace, all succeeds
  // bit-identically even though RetrieveBatch fails.
  ServingStack s;
  RetrieveOnlyBackend backend(&s.sharded);
  AsyncServerOptions options;
  options.num_workers = 2;
  AsyncRetrievalServer server(&backend, options);
  RetrievalOptions ro(3, 10);
  std::vector<Future<StatusOr<RetrievalResponse>>> futures;
  for (size_t i = 0; i < 2 * s.query_ids.size(); ++i) {
    RetrievalRequest request{s.QueryDx(s.query_ids[i / 2]), ro};
    if (i % 2 == 1) request.trace = std::make_shared<obs::RequestTrace>();
    futures.push_back(server.Submit(std::move(request)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    auto want = s.sharded.Retrieve({s.QueryDx(s.query_ids[i / 2]), ro});
    ASSERT_TRUE(want.ok());
    const auto& got = futures[i].Get();
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameResult(*want, *got, "request " + std::to_string(i));
    EXPECT_EQ(got->trace != nullptr, i % 2 == 1) << i;
  }
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, futures.size());
  EXPECT_EQ(stats.batch_size_histogram, std::vector<size_t>{stats.completed});
  EXPECT_TRUE(CheckServerStatsInvariant(stats));
}

TEST(AsyncServerParityTest, MixedOptionsInOneBurstStayExact) {
  // Requests with different (k, p, want_stats, deadline) in one burst,
  // spread over two workers, each come back exactly as a direct
  // Retrieve with the same options.
  ServingStack s;
  AsyncServerOptions options;
  options.num_workers = 2;
  AsyncRetrievalServer server(&s.sharded, options);
  struct Case {
    size_t query_id;
    RetrievalOptions ro;
    Future<StatusOr<RetrievalResponse>> future;
  };
  std::vector<Case> cases;
  size_t i = 0;
  for (size_t query_id : s.query_ids) {
    RetrievalOptions ro(1 + i % 3, 5 + 7 * (i % 2));
    ro.want_stats = i % 4 == 0;
    ro.deadline = RetrievalOptions::DeadlineIn(10s);
    cases.push_back({query_id, ro, server.Submit({s.QueryDx(query_id), ro})});
    ++i;
  }
  for (Case& c : cases) {
    auto want = s.sharded.Retrieve({s.QueryDx(c.query_id), c.ro});
    ASSERT_TRUE(want.ok());
    const auto& got = c.future.Get();
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameResult(*want, *got, "mixed q=" + std::to_string(c.query_id));
    ASSERT_EQ(got->shard_stats.size(), want->shard_stats.size());
    for (size_t sh = 0; sh < got->shard_stats.size(); ++sh) {
      EXPECT_EQ(got->shard_stats[sh].rows, want->shard_stats[sh].rows);
      EXPECT_EQ(got->shard_stats[sh].candidates,
                want->shard_stats[sh].candidates);
    }
    if (c.ro.want_stats) {
      EXPECT_EQ(got->shard_stats.size(), s.sharded.num_shards());
    } else {
      EXPECT_TRUE(got->shard_stats.empty());
    }
  }
}

// --- Admission control --------------------------------------------------

TEST(AsyncServerTest, OverflowRejectsWithResourceExhausted) {
  ServingStack s;
  AsyncServerOptions options;
  options.queue_capacity = 2;
  options.num_workers = 1;
  AsyncRetrievalServer server(&s.mono, options);

  WorkerGate gate;
  RetrievalOptions ro(1, 5);
  // First request pins the single worker inside the backend; the 2-slot
  // admission queue fills up behind it.  Overflow refuses the incoming
  // request.
  auto gated =
      server.Submit({gate.Gated(s.QueryDx(s.query_ids[0])), ro});
  std::vector<Future<StatusOr<RetrievalResponse>>> rest;
  const size_t kExtra = 12;
  for (size_t i = 0; i < kExtra; ++i) {
    rest.push_back(server.Submit({s.QueryDx(s.query_ids[1]), ro}));
    std::this_thread::sleep_for(2ms);  // Let the worker pop what it can.
  }
  size_t rejected = 0;
  for (const auto& f : rest) {
    if (f.ready() && !f.Get().ok()) {
      EXPECT_EQ(f.Get().status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u) << "a 2-slot queue must shed a 12-request burst";
  EXPECT_EQ(server.stats().rejected, rejected);

  gate.Release();
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  // Everyone admitted completed fine; everyone rejected saw the status.
  ASSERT_TRUE(gated.Get().ok());
  auto want =
      s.mono.Retrieve({s.QueryDx(s.query_ids[1]), RetrievalOptions(1, 5)});
  ASSERT_TRUE(want.ok());
  for (const auto& f : rest) {
    const auto& got = f.Get();
    if (got.ok()) {
      ExpectSameResult(*want, *got, "admitted after overflow");
    } else {
      EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
    }
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
  EXPECT_EQ(stats.admitted, stats.completed);
  EXPECT_EQ(stats.shed, 0u);  // A full FIFO never evicts.
}

TEST(AsyncServerTest, FullQueueRefusesArrivalsAndServesInArrivalOrder) {
  ServingStack s;
  AsyncServerOptions options;
  options.queue_capacity = 4;
  options.num_workers = 1;
  AsyncRetrievalServer server(&s.mono, options);
  RetrievalOptions ro(1, 5);
  PinnedPipeline pinned(&server, s, ro);

  // With the worker pinned, fill the 4-slot queue; each request
  // records its submission index when it completes.
  std::mutex mu;
  std::vector<size_t> completion_order;
  std::vector<Future<StatusOr<RetrievalResponse>>> queued;
  for (size_t i = 0; i < 4; ++i) {
    queued.push_back(server.Submit({s.QueryDx(s.query_ids[2]), ro}));
    queued.back().OnReady(
        [&mu, &completion_order, i](const StatusOr<RetrievalResponse>& r) {
          ASSERT_TRUE(r.ok()) << r.status();
          std::lock_guard<std::mutex> lock(mu);
          completion_order.push_back(i);
        });
  }
  for (const auto& f : queued) EXPECT_FALSE(f.ready());

  // The fifth arrival is refused; nothing queued is displaced.
  auto refused = server.Submit({s.QueryDx(s.query_ids[3]), ro});
  ASSERT_TRUE(refused.ready());
  EXPECT_EQ(refused.Get().status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.Get().status().message().find("queue full"),
            std::string::npos);
  for (const auto& f : queued) EXPECT_FALSE(f.ready());
  EXPECT_EQ(server.stats().rejected, 1u);

  pinned.gate.Release();
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  EXPECT_EQ(completion_order, (std::vector<size_t>{0, 1, 2, 3}));
  ServerStats stats = server.stats();
  EXPECT_TRUE(CheckServerStatsInvariant(stats));
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// --- Deadlines ----------------------------------------------------------

TEST(AsyncServerTest, ExpiredInQueueGetsDeadlineExceededAtDequeue) {
  ServingStack s;
  AsyncRetrievalServer server(&s.mono);
  RetrievalOptions ro(1, 5);
  ro.deadline = RetrievalClock::now() - 1ms;  // Already dead on arrival.
  auto f = server.Submit({s.QueryDx(s.query_ids[0]), ro});
  const auto& got = f.Get();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(got.status().message().find("admission queue"),
            std::string::npos);
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  EXPECT_EQ(server.stats().expired, 1u);
  EXPECT_EQ(server.stats().completed, 0u);
}

TEST(AsyncServerTest, PinnedWorkerDoesNotStallTheOther) {
  // Every worker pops from the admission queue itself, so one worker
  // that is busy inside the backend must not keep the others, or
  // Submit, from the queue.
  ServingStack s;
  RetrievalOptions ro(1, 5);
  AsyncServerOptions options;
  options.num_workers = 2;
  AsyncRetrievalServer server(&s.mono, options);
  WorkerGate gate;
  auto gated = server.Submit({gate.Gated(s.QueryDx(s.query_ids[0])), ro});
  while (gate.entered.load() == 0) std::this_thread::sleep_for(1ms);
  auto other = server.Submit({s.QueryDx(s.query_ids[1]), ro});
  EXPECT_TRUE(other.WaitFor(30s))
      << "the free worker must serve while the other is pinned";
  gate.Release();
  ASSERT_TRUE(gated.Get().ok());
  ASSERT_TRUE(other.Get().ok());
}

// --- Shutdown -----------------------------------------------------------

TEST(AsyncServerTest, DrainCompletesEverythingThenRejectsNewWork) {
  ServingStack s;
  AsyncServerOptions options;
  options.num_workers = 2;
  AsyncRetrievalServer server(&s.mono, options);
  RetrievalOptions ro(2, 10);
  std::vector<Future<StatusOr<RetrievalResponse>>> futures;
  for (size_t query_id : s.query_ids) {
    futures.push_back(server.Submit({s.QueryDx(query_id), ro}));
  }
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  for (const auto& f : futures) {
    ASSERT_TRUE(f.ready()) << "Shutdown must resolve every future";
    EXPECT_TRUE(f.Get().ok());
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, futures.size());
  EXPECT_EQ(stats.queue_depth, 0u);

  auto late = server.Submit({s.QueryDx(s.query_ids[0]), ro});
  ASSERT_TRUE(late.ready());
  EXPECT_EQ(late.Get().status().code(), StatusCode::kFailedPrecondition);
}

TEST(AsyncServerTest, CancelAnswersQueuedWorkWithoutExecutingIt) {
  ServingStack s;
  AsyncServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 32;
  AsyncRetrievalServer server(&s.mono, options);

  WorkerGate gate;
  RetrievalOptions ro(1, 5);
  auto in_flight = server.Submit({gate.Gated(s.QueryDx(s.query_ids[0])), ro});
  while (gate.entered.load() == 0) std::this_thread::sleep_for(1ms);
  std::vector<Future<StatusOr<RetrievalResponse>>> queued;
  for (size_t i = 0; i < 8; ++i) {
    queued.push_back(server.Submit({s.QueryDx(s.query_ids[1]), ro}));
  }

  std::thread shutdown(
      [&] { server.Shutdown(AsyncRetrievalServer::DrainMode::kCancel); });
  std::this_thread::sleep_for(20ms);
  gate.Release();  // Unpin the worker so Shutdown can join.
  shutdown.join();

  // The in-flight request finished normally; everything queued behind it
  // was answered with the shutdown status, deterministically.
  EXPECT_TRUE(in_flight.Get().ok());
  for (const auto& f : queued) {
    ASSERT_TRUE(f.ready());
    EXPECT_EQ(f.Get().status().code(), StatusCode::kFailedPrecondition);
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.cancelled, queued.size());
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_TRUE(CheckServerStatsInvariant(stats));
}

TEST(AsyncServerTest, DestructorDrains) {
  ServingStack s;
  Future<StatusOr<RetrievalResponse>> future;
  {
    AsyncRetrievalServer server(&s.mono);
    future =
        server.Submit({s.QueryDx(s.query_ids[0]), RetrievalOptions(1, 5)});
  }
  ASSERT_TRUE(future.ready());
  EXPECT_TRUE(future.Get().ok());
}

// --- Error propagation and stats ---------------------------------------

TEST(AsyncServerTest, BackendErrorsPropagateAsCompleted) {
  // An empty backend fails FailedPrecondition inside Retrieve; the
  // server delivers that status and counts the request as completed (the
  // backend answered — it is not an admission failure).
  ServingStack s;
  ShardedEngineOptions shard_options;
  shard_options.num_shards = 2;
  RetrievalEngine empty(&s.model, &s.scorer, shard_options);
  AsyncRetrievalServer server(&empty);
  auto got =
      server.Retrieve({s.QueryDx(s.query_ids[0]), RetrievalOptions(1, 5)});
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  EXPECT_EQ(server.stats().completed, 1u);
}

TEST(AsyncServerTest, StatsInvariantsHoldAfterMixedTraffic) {
  ServingStack s;
  AsyncServerOptions options;
  options.queue_capacity = 16;  // Roomy: only the invalid submit rejects.
  AsyncRetrievalServer server(&s.mono, options);
  RetrievalOptions ok(1, 5);
  RetrievalOptions dead = ok;
  dead.deadline = RetrievalClock::now() - 1ms;
  RetrievalOptions invalid(0, 5);

  std::vector<Future<StatusOr<RetrievalResponse>>> futures;
  for (size_t i = 0; i < 6; ++i) {
    futures.push_back(server.Submit(
        {s.QueryDx(s.query_ids[i % 4]), i % 3 == 2 ? dead : ok}));
  }
  futures.push_back(server.Submit({s.QueryDx(s.query_ids[0]), invalid}));
  for (const auto& f : futures) f.Wait();
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, futures.size());
  EXPECT_TRUE(CheckServerStatsInvariant(stats));
  EXPECT_EQ(stats.rejected, 1u);   // The invalid submit.
  EXPECT_EQ(stats.expired, 2u);    // i = 2 and i = 5.
  EXPECT_EQ(stats.queue_depth, 0u);
}

}  // namespace
}  // namespace qse
