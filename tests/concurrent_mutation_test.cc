// Randomized stress suite for epoch-based concurrent mutation: mutator
// threads Insert/Remove while retriever threads query — over one shard
// and three, batched and single-query, and through the async server — and
// every response is checked for consistency with *some* serializable
// snapshot of the applied mutations.  A golden-parity half additionally
// verifies that a quiescent post-mutation database is bit-identical to
// one built by replaying the same operations serially.
//
// How responses are made checkable: the test universe is a line.  Object
// `id` sits at the deterministic coordinate XOf(id) in [0, 1), the exact
// distance is |x_q - XOf(id)|, and LineEmbedder embeds every object as
// its own coordinate (it reads the query's coordinate out of the dx
// callback through the reserved kProbe pseudo-id).  The L2 filter score
// (x_q - x)^2 is monotone in the exact distance, so with p >= n the
// filter keeps everything and every retrieval is the EXACT top-k of the
// snapshot it served.  Each response is then checked against an
// interval-stamped mutation history:
//
//   * every returned score must be the distance to some object that was
//     possibly visible during the query window (insert began before the
//     window closed, removal had not completed before it opened);
//   * every object surely visible for the whole window (insert completed
//     before it opened, removal began after it closed) whose distance is
//     strictly below the k-th returned score must appear in the result.
//
// Those two conditions hold iff the result is the exact top-k of some
// set S with surely-visible ⊆ S ⊆ possibly-visible — i.e. of a
// serializable snapshot.
//
// Scale knobs (the CI stress jobs turn them up):
//   QSE_STRESS_ITERS  multiplies op/query counts (default 1)
//   QSE_STRESS_SEED   pins the master seed (logged on every run so any
//                     failure is reproducible)
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/embedding/embedder.h"
#include "src/persist/durability.h"
#include "src/persist/durable_backend.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/filter_scorer.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/server/async_retrieval_server.h"
#include "src/util/random.h"
#include "tests/line_universe.h"
#include "tests/test_util.h"

namespace qse {
namespace {

// Deterministic line geometry — shared with the durability and
// crash-recovery suites.
using test::Dist;
using test::DxOfObject;
using test::kLineDims;
using test::LineEmbedder;
using test::MakeDx;
using test::Mix64;
using test::XOf;

// --- scale / seed knobs --------------------------------------------------

size_t StressScale() {
  if (const char* env = std::getenv("QSE_STRESS_ITERS")) {
    long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 1;
}

uint64_t StressSeed() {
  if (const char* env = std::getenv("QSE_STRESS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  std::random_device rd;
  return (static_cast<uint64_t>(rd()) << 32) | rd();
}

/// Every stress test logs its seed up front (stdout survives even a
/// crash) and scopes it into any gtest failure message.
#define QSE_LOG_STRESS_SEED(seed)                                       \
  std::printf("[ stress ] rerun with QSE_STRESS_SEED=%llu\n",           \
              static_cast<unsigned long long>(seed));                   \
  SCOPED_TRACE(::testing::Message() << "QSE_STRESS_SEED=" << (seed))

// --- mutation history ----------------------------------------------------

constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

/// Interval stamps of one object's lifecycle.  Each id is inserted at
/// most once and removed at most once (retired ids are never reused), so
/// four stamps fully describe it.
struct IdTimeline {
  std::atomic<uint64_t> insert_begin{kNever};
  std::atomic<uint64_t> insert_end{kNever};
  std::atomic<uint64_t> remove_begin{kNever};
  std::atomic<uint64_t> remove_end{kNever};
};

/// Global event clock plus per-id timelines.  All stamp accesses are
/// seq_cst: the checker's visibility reasoning happens in the single
/// total order over clock increments and stamp stores.
struct History {
  explicit History(size_t universe) : timelines(universe) {}
  uint64_t Stamp() { return clock.fetch_add(1, std::memory_order_seq_cst); }

  std::atomic<uint64_t> clock{0};
  std::vector<IdTimeline> timelines;
};

struct QueryWindow {
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Insert completed before the window opened and removal (if any) began
/// after it closed: the object was in EVERY state the query could serve.
bool SurelyVisible(const IdTimeline& t, const QueryWindow& w) {
  uint64_t insert_end = t.insert_end.load(std::memory_order_seq_cst);
  uint64_t remove_begin = t.remove_begin.load(std::memory_order_seq_cst);
  return insert_end != kNever && insert_end < w.begin &&
         (remove_begin == kNever || remove_begin > w.end);
}

/// Insert began before the window closed and removal had not completed
/// before it opened: the object was in SOME state the query could serve.
bool PossiblyVisible(const IdTimeline& t, const QueryWindow& w) {
  uint64_t insert_begin = t.insert_begin.load(std::memory_order_seq_cst);
  uint64_t remove_end = t.remove_end.load(std::memory_order_seq_cst);
  return insert_begin != kNever && insert_begin < w.end &&
         (remove_end == kNever || remove_end > w.begin);
}

/// Thread-safe failure collector: gtest assertions are not safe from
/// worker threads, so threads record and the main thread reports.
class FailureLog {
 public:
  void Add(const std::string& message) {
    std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 25) messages_.push_back(message);
    ++total_;
  }
  void ReportAll() const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& m : messages_) ADD_FAILURE() << m;
    if (total_ > messages_.size()) {
      ADD_FAILURE() << (total_ - messages_.size()) << " further failures "
                    << "suppressed";
    }
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
  size_t total_ = 0;
};

/// The snapshot-consistency oracle described in the file comment.
/// Neighbor indices are database ids.
void CheckSnapshotConsistent(const History& h, const QueryWindow& w,
                             double xq, const RetrievalResponse& r, size_t k,
                             FailureLog* log) {
  if (r.neighbors.size() != k) {
    std::ostringstream os;
    os << "expected " << k << " neighbors, got " << r.neighbors.size();
    log->Add(os.str());
    return;
  }
  for (size_t i = 1; i < r.neighbors.size(); ++i) {
    if (r.neighbors[i].score < r.neighbors[i - 1].score) {
      log->Add("neighbors not sorted by ascending exact distance");
      return;
    }
  }
  const double kth = r.neighbors.back().score;

  // (a) Every returned id must be a possibly-visible object at exactly
  // the claimed distance.
  for (const ScoredIndex& nb : r.neighbors) {
    if (nb.index >= h.timelines.size() ||
        !PossiblyVisible(h.timelines[nb.index], w) ||
        nb.score != Dist(xq, nb.index)) {
      std::ostringstream os;
      os << "returned id " << nb.index << " (score " << nb.score
         << ") was not visible in any state of window [" << w.begin << ", "
         << w.end << "] at that distance";
      log->Add(os.str());
    }
  }

  // (b) Every object surely visible for the whole window and strictly
  // closer than the k-th returned neighbor must have been returned.
  for (size_t id = 0; id < h.timelines.size(); ++id) {
    if (!SurelyVisible(h.timelines[id], w)) continue;
    double d = Dist(xq, id);
    if (d >= kth) continue;
    bool found = false;
    for (const ScoredIndex& nb : r.neighbors) {
      if (nb.index == id) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::ostringstream os;
      os << "object " << id << " (distance " << d
         << ") was visible for the whole window [" << w.begin << ", "
         << w.end << "] and beats the k-th score " << kth
         << " but is missing from the result";
      log->Add(os.str());
    }
  }
}

// --- workload threads ----------------------------------------------------

constexpr size_t kNeighbors = 8;
constexpr size_t kAllCandidates = std::numeric_limits<size_t>::max();

RetrievalOptions StressOptions() {
  // p = n: the filter keeps everything, so retrieval is exact k-NN of
  // the served snapshot and the oracle above is airtight.
  return RetrievalOptions(kNeighbors, kAllCandidates);
}

struct MutatorPlan {
  size_t id_begin = 0;   ///< Private id range [id_begin, id_end):
  size_t id_end = 0;     ///< no cross-thread conflicts, ids never reused.
  size_t initial_live = 0;  ///< Pre-populated prefix of the range.
  size_t ops = 0;
  size_t min_live = 0;   ///< Never remove below this (keeps size >= k).
  uint64_t seed = 0;
};

/// Cross-thread progress counters: mutators keep mutating until the
/// retrievers hit their query quota (so queries and mutations genuinely
/// overlap in time), and retrievers count how many of their windows saw
/// a mutation land mid-query.
struct StressProgress {
  std::atomic<size_t> queries_done{0};
  size_t query_goal = 0;
  std::atomic<size_t> mutation_ops{0};
  std::atomic<size_t> overlapped_queries{0};
};

/// Applies random Insert/Remove through `insert`/`remove` (a backend or
/// server surface), stamping every operation into the history.  Runs at
/// least plan.ops operations and then keeps going — while ids last —
/// until the retrievers reach their goal.
template <typename InsertFn, typename RemoveFn>
void RunMutator(const MutatorPlan& plan, History* h, StressProgress* progress,
                FailureLog* log, const InsertFn& insert,
                const RemoveFn& remove) {
  Rng rng(plan.seed);
  std::vector<size_t> live;
  for (size_t i = 0; i < plan.initial_live; ++i) {
    live.push_back(plan.id_begin + i);
  }
  size_t next_fresh = plan.id_begin + plan.initial_live;
  for (size_t op = 0;
       op < plan.ops ||
       progress->queries_done.load(std::memory_order_acquire) <
           progress->query_goal;
       ++op) {
    bool can_insert = next_fresh < plan.id_end;
    bool must_insert = live.size() <= plan.min_live;
    if (!can_insert && live.size() <= plan.min_live) break;  // Ids spent.
    bool do_insert = can_insert && (must_insert || rng.Bernoulli(0.5));
    if (!do_insert && live.empty()) break;
    progress->mutation_ops.fetch_add(1, std::memory_order_acq_rel);
    if (do_insert) {
      size_t id = next_fresh++;
      IdTimeline& t = h->timelines[id];
      t.insert_begin.store(h->Stamp(), std::memory_order_seq_cst);
      Status s = insert(id);
      t.insert_end.store(h->Stamp(), std::memory_order_seq_cst);
      if (!s.ok()) {
        log->Add("Insert(" + std::to_string(id) + ") failed: " + s.ToString());
        return;
      }
      live.push_back(id);
    } else {
      size_t pick = rng.Index(live.size());
      size_t id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      IdTimeline& t = h->timelines[id];
      t.remove_begin.store(h->Stamp(), std::memory_order_seq_cst);
      Status s = remove(id);
      t.remove_end.store(h->Stamp(), std::memory_order_seq_cst);
      if (!s.ok()) {
        log->Add("Remove(" + std::to_string(id) + ") failed: " + s.ToString());
        return;
      }
    }
  }
}

// --- the consistency stress core -----------------------------------------

struct StressConfig {
  size_t mutators = 2;
  size_t retrievers = 3;
  size_t ids_per_mutator = 4096;
  size_t initial_live = 256;
  size_t min_live = 128;
  size_t ops_per_mutator = 0;      // Filled from StressScale().
  size_t min_queries_per_thread = 0;
  size_t batch_size = 8;
};

StressConfig ScaledConfig() {
  StressConfig c;
  c.ops_per_mutator = 350 * StressScale();
  c.min_queries_per_thread = 120 * StressScale();
  return c;
}

/// What the stress drives: mutations and queries through a backend or
/// through the async server.
struct StressSurface {
  std::function<Status(size_t)> insert;
  std::function<Status(size_t)> remove;
  /// Answers a batch of queries (one entry for single-query surfaces).
  std::function<StatusOr<std::vector<RetrievalResponse>>(
      const std::vector<DxToDatabaseFn>&)>
      retrieve;
  size_t batch_size = 1;
};

StressSurface BackendSurface(RetrievalBackend* backend, bool batched) {
  StressSurface surface;
  surface.insert = [backend](size_t id) {
    return backend->Insert(id, DxOfObject(id));
  };
  surface.remove = [backend](size_t id) { return backend->Remove(id); };
  surface.retrieve = [backend, batched](
                         const std::vector<DxToDatabaseFn>& queries)
      -> StatusOr<std::vector<RetrievalResponse>> {
    if (batched) return backend->RetrieveBatch(queries, StressOptions());
    StatusOr<RetrievalResponse> one =
        backend->Retrieve({queries[0], StressOptions()});
    QSE_RETURN_IF_ERROR(one.status());
    return std::vector<RetrievalResponse>{std::move(one).value()};
  };
  surface.batch_size = batched ? ScaledConfig().batch_size : 1;
  return surface;
}

/// Serially inserts `ids` (stamping the history) — initial population.
void Populate(const StressSurface& surface, History* h,
              const std::vector<size_t>& ids) {
  for (size_t id : ids) {
    IdTimeline& t = h->timelines[id];
    t.insert_begin.store(h->Stamp(), std::memory_order_seq_cst);
    Status s = surface.insert(id);
    ASSERT_TRUE(s.ok()) << s;
    t.insert_end.store(h->Stamp(), std::memory_order_seq_cst);
  }
}

/// Mutators x retrievers against one surface; every response checked
/// against the history oracle.
void RunConsistencyStress(const StressSurface& surface, uint64_t seed,
                          const StressConfig& config) {
  History history(config.mutators * config.ids_per_mutator);
  FailureLog log;

  for (size_t m = 0; m < config.mutators; ++m) {
    std::vector<size_t> initial;
    for (size_t i = 0; i < config.initial_live; ++i) {
      initial.push_back(m * config.ids_per_mutator + i);
    }
    Populate(surface, &history, initial);
  }
  if (::testing::Test::HasFatalFailure()) return;

  StressProgress progress;
  progress.query_goal = config.retrievers * config.min_queries_per_thread;
  std::atomic<size_t> mutators_running{config.mutators};
  std::vector<std::thread> threads;
  for (size_t m = 0; m < config.mutators; ++m) {
    MutatorPlan plan;
    plan.id_begin = m * config.ids_per_mutator;
    plan.id_end = plan.id_begin + config.ids_per_mutator;
    plan.initial_live = config.initial_live;
    plan.ops = config.ops_per_mutator;
    plan.min_live = config.min_live;
    plan.seed = Mix64(seed + m);
    threads.emplace_back([&surface, plan, &history, &log, &progress,
                          &mutators_running] {
      RunMutator(plan, &history, &progress, &log, surface.insert,
                 surface.remove);
      mutators_running.fetch_sub(1, std::memory_order_release);
    });
  }

  for (size_t r = 0; r < config.retrievers; ++r) {
    threads.emplace_back([&surface, r, seed, &history, &log, &progress,
                          &mutators_running, &config] {
      Rng rng(Mix64(seed + 1000 + r));
      size_t done = 0;
      // Keep querying while mutations are in flight (that is the whole
      // point), with a floor so quiet schedules still get coverage and
      // a generous cap so the test always terminates.
      while ((done < config.min_queries_per_thread ||
              mutators_running.load(std::memory_order_acquire) > 0) &&
             done < config.min_queries_per_thread * 50) {
        size_t ops_before =
            progress.mutation_ops.load(std::memory_order_acquire);
        std::vector<double> xs;
        std::vector<DxToDatabaseFn> queries;
        for (size_t b = 0; b < surface.batch_size; ++b) {
          xs.push_back(rng.Uniform(0, 1));
          queries.push_back(MakeDx(xs.back()));
        }
        QueryWindow w;
        w.begin = history.Stamp();
        StatusOr<std::vector<RetrievalResponse>> resp =
            surface.retrieve(queries);
        w.end = history.Stamp();
        if (!resp.ok()) {
          log.Add("retrieval failed: " + resp.status().ToString());
          return;
        }
        for (size_t b = 0; b < resp->size(); ++b) {
          CheckSnapshotConsistent(history, w, xs[b], (*resp)[b], kNeighbors,
                                  &log);
        }
        done += surface.batch_size;
        progress.queries_done.fetch_add(surface.batch_size,
                                        std::memory_order_acq_rel);
        if (progress.mutation_ops.load(std::memory_order_acquire) !=
            ops_before) {
          progress.overlapped_queries.fetch_add(
              1, std::memory_order_acq_rel);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  log.ReportAll();

  // The suite only means something if queries actually raced mutations.
  std::printf("[ stress ] %zu mutation ops, %zu queries, %zu query windows "
              "overlapped a mutation\n",
              progress.mutation_ops.load(), progress.queries_done.load(),
              progress.overlapped_queries.load());
  if (std::thread::hardware_concurrency() >= 2) {
    EXPECT_GT(progress.overlapped_queries.load(), 0u)
        << "no query window overlapped a mutation — the stress schedule "
           "degenerated to quiescent checks";
  }
}

/// An engine over `shards` owned shards of the line universe.
struct Stack {
  explicit Stack(size_t shards)
      : engine(&embedder, &scorer, ShardedEngineOptions{shards, 0}) {}

  std::vector<EmbeddedDatabase*> dbs() { return test::ShardDbs(&engine); }

  LineEmbedder embedder;
  L2Scorer scorer;
  RetrievalEngine engine;
};

void RunEngineStress(size_t shards, bool batched) {
  const uint64_t seed = StressSeed();
  QSE_LOG_STRESS_SEED(seed);
  Stack stack(shards);
  RunConsistencyStress(BackendSurface(&stack.engine, batched), seed,
                       ScaledConfig());
}

TEST(ConcurrentMutationStress, MonoEngineSingleQueries) {
  RunEngineStress(1, /*batched=*/false);
}

TEST(ConcurrentMutationStress, MonoEngineBatchedQueries) {
  RunEngineStress(1, /*batched=*/true);
}

TEST(ConcurrentMutationStress, ShardedEngineSingleQueries) {
  RunEngineStress(3, /*batched=*/false);
}

TEST(ConcurrentMutationStress, ShardedEngineBatchedQueries) {
  RunEngineStress(3, /*batched=*/true);
}

// --- mutation through the async server -----------------------------------

/// Submitters drive the server while mutators mutate THROUGH the server's
/// Insert/Remove surface; every future must resolve OK and every response
/// must pass the same snapshot oracle.
void RunServerStress(size_t shards) {
  const uint64_t seed = StressSeed();
  QSE_LOG_STRESS_SEED(seed);
  Stack stack(shards);
  AsyncServerOptions options;
  options.queue_capacity = 1024;
  options.num_workers = 2;
  AsyncRetrievalServer server(&stack.engine, options);

  StressSurface surface;
  surface.insert = [&server](size_t id) {
    return server.Insert(id, DxOfObject(id));
  };
  surface.remove = [&server](size_t id) { return server.Remove(id); };
  // Two blocking submitters can never overflow a 1024-entry queue and no
  // deadline is set: any failed future is a real bug.
  surface.retrieve = [&server](const std::vector<DxToDatabaseFn>& queries)
      -> StatusOr<std::vector<RetrievalResponse>> {
    StatusOr<RetrievalResponse> one =
        server.Submit({queries[0], StressOptions()}).Get();
    QSE_RETURN_IF_ERROR(one.status());
    return std::vector<RetrievalResponse>{std::move(one).value()};
  };
  StressConfig config = ScaledConfig();
  config.retrievers = 2;
  RunConsistencyStress(surface, seed, config);
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
  EXPECT_EQ(stats.admitted, stats.completed + stats.expired +
                                stats.cancelled + stats.shed);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ConcurrentMutationStress, AsyncServerOverMonoEngine) {
  RunServerStress(1);
}

TEST(ConcurrentMutationStress, AsyncServerOverShardedEngine) {
  RunServerStress(3);
}

TEST(ConcurrentMutationStress, ReadOnlyServerRefusesMutation) {
  Stack stack(1);
  ASSERT_TRUE(stack.engine.Insert(0, DxOfObject(0)).ok());
  const RetrievalBackend* read_only = &stack.engine;
  AsyncRetrievalServer server(read_only, AsyncServerOptions{});
  Status insert = server.Insert(1, DxOfObject(1));
  EXPECT_EQ(insert.code(), StatusCode::kFailedPrecondition);
  Status remove = server.Remove(0);
  EXPECT_EQ(remove.code(), StatusCode::kFailedPrecondition);
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
}

// --- golden parity: concurrent == serial, bit for bit --------------------

struct MutationOp {
  enum Kind { kInsert, kRemove } kind;
  size_t id;
};

constexpr size_t kParityInitial = 128;

/// The randomized op sequence, generated up front: a single mutator
/// thread applies it in program order, so "the ops as applied
/// concurrently" and "the ops as replayed serially" are the same
/// sequence by construction.
std::vector<MutationOp> MakeOpSequence(uint64_t seed, size_t num_ops) {
  Rng rng(Mix64(seed ^ 0x60146011));
  std::vector<MutationOp> ops;
  std::vector<size_t> live;
  for (size_t i = 0; i < kParityInitial; ++i) live.push_back(i);
  size_t next_fresh = kParityInitial;
  for (size_t i = 0; i < num_ops; ++i) {
    bool do_insert = live.size() <= kNeighbors + 8 || rng.Bernoulli(0.5);
    if (do_insert) {
      ops.push_back({MutationOp::kInsert, next_fresh});
      live.push_back(next_fresh++);
    } else {
      size_t pick = rng.Index(live.size());
      ops.push_back({MutationOp::kRemove, live[pick]});
      live[pick] = live.back();
      live.pop_back();
    }
  }
  return ops;
}

Status ApplyOp(RetrievalBackend* backend, const MutationOp& op) {
  return op.kind == MutationOp::kInsert
             ? backend->Insert(op.id, DxOfObject(op.id))
             : backend->Remove(op.id);
}

void PopulateInitial(RetrievalBackend* backend) {
  for (size_t i = 0; i < kParityInitial; ++i) {
    ASSERT_TRUE(backend->Insert(i, DxOfObject(i)).ok());
  }
}

/// Applies `ops` from one mutator thread while retriever threads hammer
/// the backend — the concurrent half of the parity experiment.
void ApplyOpsUnderLoad(RetrievalBackend* backend,
                       const std::vector<MutationOp>& ops, uint64_t seed) {
  FailureLog log;
  std::atomic<bool> mutating{true};
  std::thread mutator([&] {
    for (const MutationOp& op : ops) {
      Status s = ApplyOp(backend, op);
      if (!s.ok()) {
        log.Add("concurrent op failed: " + s.ToString());
        break;
      }
    }
    mutating.store(false, std::memory_order_release);
  });
  std::vector<std::thread> retrievers;
  for (size_t r = 0; r < 2; ++r) {
    retrievers.emplace_back([&, r] {
      Rng rng(Mix64(seed + 3000 + r));
      while (mutating.load(std::memory_order_acquire)) {
        StatusOr<RetrievalResponse> resp = backend->Retrieve(
            {MakeDx(rng.Uniform(0, 1)), StressOptions()});
        if (!resp.ok()) {
          log.Add("retrieve during parity run failed: " +
                  resp.status().ToString());
          return;
        }
      }
    });
  }
  mutator.join();
  for (std::thread& t : retrievers) t.join();
  log.ReportAll();
}

/// Bit-identity of two engines: every shard database, then quiescent
/// retrieval answers.
void ExpectSameEngines(Stack* a, Stack* b, uint64_t seed) {
  ASSERT_EQ(a->engine.num_shards(), b->engine.num_shards());
  for (size_t s = 0; s < a->engine.num_shards(); ++s) {
    test::ExpectDbsIdentical(a->engine.db(s), b->engine.db(s),
                             "shard " + std::to_string(s));
  }
  Rng rng(Mix64(seed + 4000));
  for (size_t q = 0; q < 20; ++q) {
    DxToDatabaseFn dx = MakeDx(rng.Uniform(0, 1));
    StatusOr<RetrievalResponse> ra = a->engine.Retrieve({dx, StressOptions()});
    StatusOr<RetrievalResponse> rb = b->engine.Retrieve({dx, StressOptions()});
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra->neighbors, rb->neighbors) << q;
  }
}

void RunSerialReplayParity(size_t shards) {
  const uint64_t seed = StressSeed();
  QSE_LOG_STRESS_SEED(seed);
  std::vector<MutationOp> ops = MakeOpSequence(seed, 500 * StressScale());

  Stack concurrent(shards);
  PopulateInitial(&concurrent.engine);
  if (::testing::Test::HasFatalFailure()) return;
  ApplyOpsUnderLoad(&concurrent.engine, ops, seed);

  Stack serial(shards);
  PopulateInitial(&serial.engine);
  for (const MutationOp& op : ops) {
    ASSERT_TRUE(ApplyOp(&serial.engine, op).ok());
  }
  ExpectSameEngines(&concurrent, &serial, seed);
}

TEST(GoldenParity, MonoQuiescentStateMatchesSerialReplay) {
  RunSerialReplayParity(1);
}

TEST(GoldenParity, ShardedQuiescentStateMatchesSerialReplay) {
  RunSerialReplayParity(3);
}

// --- WAL-on stress: durability under live retrieval, then recovery -------

persist::DurabilityOptions StressDurabilityOptions(const std::string& dir) {
  persist::DurabilityOptions options;
  options.dir = dir;
  // kEveryN keeps the stress fast while still exercising the fsync
  // batching path; the test harness never loses the page cache.
  options.fsync = persist::FsyncPolicy::kEveryN;
  options.fsync_every_n = 64;
  // Low enough that the stress run compacts the WAL several times, so
  // recovery genuinely exercises snapshot + tail replay.
  options.snapshot_every_records = 300;
  return options;
}

/// The serializable-snapshot oracle, re-run against a QUIESCENT
/// (recovered) backend: every id the database holds has been visible
/// since before any query, nothing else ever existed, so each retrieval
/// must be the exact top-k of exactly that set.
void RerunOracleQuiescent(RetrievalBackend* backend,
                          const std::vector<size_t>& live_ids, size_t universe,
                          uint64_t seed) {
  History history(universe);
  for (size_t id : live_ids) {
    ASSERT_LT(id, universe);
    history.timelines[id].insert_begin.store(0, std::memory_order_seq_cst);
    history.timelines[id].insert_end.store(0, std::memory_order_seq_cst);
  }
  // Start the clock at 1 so "inserted at stamp 0" precedes every window.
  history.clock.store(1, std::memory_order_seq_cst);
  FailureLog log;
  Rng rng(Mix64(seed + 5000));
  for (size_t q = 0; q < 50; ++q) {
    double xq = rng.Uniform(0, 1);
    QueryWindow w;
    w.begin = history.Stamp();
    StatusOr<RetrievalResponse> resp =
        backend->Retrieve({MakeDx(xq), StressOptions()});
    w.end = history.Stamp();
    ASSERT_TRUE(resp.ok()) << resp.status();
    CheckSnapshotConsistent(history, w, xq, *resp, kNeighbors, &log);
  }
  log.ReportAll();
}

void RunWalStressThenRecover(size_t shards) {
  const uint64_t seed = StressSeed();
  QSE_LOG_STRESS_SEED(seed);
  const persist::DurabilityOptions dopts =
      StressDurabilityOptions(test::FreshDir("stress_durability"));

  Stack live(shards);
  StatusOr<std::unique_ptr<persist::DurabilityManager>> manager =
      persist::DurabilityManager::Open(dopts);
  ASSERT_TRUE(manager.ok()) << manager.status();
  std::vector<EmbeddedDatabase*> dbs = live.dbs();
  persist::DurableBackend durable(&live.engine, &live.embedder,
                                  manager.value().get(),
                                  {dbs.begin(), dbs.end()});

  const StressConfig config = ScaledConfig();
  RunConsistencyStress(BackendSurface(&durable, /*batched=*/false), seed,
                       config);
  if (::testing::Test::HasFailure()) return;

  // Recover into a fresh stack: snapshot + WAL tail must reproduce the
  // live quiescent database bit for bit.
  Stack recovered(shards);
  StatusOr<std::unique_ptr<persist::DurabilityManager>> rec =
      persist::DurabilityManager::Open(dopts);
  ASSERT_TRUE(rec.ok()) << rec.status();
  Status installed = rec.value()->InstallSnapshot(recovered.dbs());
  ASSERT_TRUE(installed.ok()) << installed;
  recovered.engine.RebuildIdIndex();
  StatusOr<uint64_t> replayed = rec.value()->Replay(&recovered.engine);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  std::printf("[ stress ] recovery replayed %llu WAL records\n",
              static_cast<unsigned long long>(replayed.value()));

  ExpectSameEngines(&live, &recovered, seed);
  RerunOracleQuiescent(&recovered.engine, recovered.engine.db_ids(),
                       config.mutators * config.ids_per_mutator, seed);
}

TEST(DurableConcurrentMutationStress, MonoWalOnStressThenRecover) {
  RunWalStressThenRecover(1);
}

TEST(DurableConcurrentMutationStress, ShardedWalOnStressThenRecover) {
  RunWalStressThenRecover(3);
}

}  // namespace
}  // namespace qse
