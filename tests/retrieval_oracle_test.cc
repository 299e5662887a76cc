// The differential oracle: every read surface of the filter-and-refine
// pipeline checked against one brute force.  The paper's answer (Sec. 8)
// is a pure function of the live set, k and p: embed the query, keep the
// p rows with the best filter score, re-rank them by exact distance and
// keep k.  A random Insert / Remove / Retrieve sequence is replayed on
// every surface at once, and each answer must equal the brute force bit
// for bit:
//
//   * the borrowed single-shard engine, mutated through Insert/Remove;
//   * the partitioning constructor, rebuilt from that engine's database
//     (whose rows Remove scrambles) with ids read from its id column;
//   * owned shards filled by Insert, read one query at a time and
//     through RetrieveBatch;
//   * an AsyncRetrievalServer, mutated through the server;
//   * an engine composed over S loopback RetrievalServers;
//   * a DurableBackend, recovered at random points into a fresh engine
//     from its snapshot plus WAL tail, and served on from there.
//
// The brute force keeps a map from id to embedded row.  It scores every
// live row with FilterScorer::Score, keeps the top min(p, n) by (score,
// id), refines them with dx and keeps the top k by (distance, id).  Each
// surface must return those neighbours (ids and score bits), spend
// embed cost + min(p, n) exact distances, and, with want_stats, report
// each shard's rows and its share of the top min(p, n).  An empty
// database is FailedPrecondition everywhere, a duplicate Insert
// InvalidArgument and an unknown Remove NotFound.
//
// Every fourth database object copies an earlier one and every third
// query copies a database object, so filter scores and exact distances
// tie and every tie must break by database id.  Two embedder / scorer
// pairs run: a trained Se-QS model under QuerySensitiveScorer (signed
// weights, the int8-prescreened scan) and FastMap under L2Scorer (the
// plain scan).  Shard counts cycle through 1, 2, 3 and 7 and scatter
// threads through 1, 2 and 4, so every 12 sequences run each pairing.
//
// Scale knobs, shared with the concurrent stress suite:
//   QSE_STRESS_ITERS  multiplies the number of sequences (default 1)
//   QSE_STRESS_SEED   pins the master seed (logged on every run)
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/trainer.h"
#include "src/embedding/fastmap.h"
#include "src/net/remote_backend.h"
#include "src/net/retrieval_server.h"
#include "src/persist/durability.h"
#include "src/persist/durable_backend.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/server/async_retrieval_server.h"
#include "src/util/random.h"
#include "tests/line_universe.h"
#include "tests/test_util.h"

namespace qse {
namespace {

constexpr size_t kObjects = 72;  // database ids [0, kObjects)
constexpr size_t kQueries = 24;  // query ids [kObjects, kObjects + kQueries)
constexpr size_t kOpsPerSequence = 48;
constexpr size_t kMaxK = 12;
constexpr size_t kShardCounts[] = {1, 2, 3, 7};
constexpr size_t kScatterThreads[] = {1, 2, 4};

/// Points in the unit square under L2, with the duplicates that force
/// ties (header comment).  Fixed: the models are trained on it once.
ObjectOracle<Vector> MakeUniverse() {
  Rng rng(29);
  std::vector<Vector> pts;
  for (size_t i = 0; i < kObjects + kQueries; ++i) {
    if (i < kObjects && i % 4 == 3) {
      pts.push_back(pts[rng.Index(i)]);
    } else if (i >= kObjects && i % 3 == 0) {
      pts.push_back(pts[rng.Index(kObjects)]);
    } else {
      pts.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
    }
  }
  return ObjectOracle<Vector>(std::move(pts), L2Distance);
}

/// dx of universe object `id` (a database object or a query).
DxToDatabaseFn DxOf(const ObjectOracle<Vector>& universe, size_t id) {
  return [&universe, id](size_t o) { return universe.Distance(id, o); };
}

/// The brute force: the live rows, and the answer a surface must give.
class BruteForce {
 public:
  struct Answer {
    bool empty = false;  // FailedPrecondition expected
    size_t embed_cost = 0;
    std::vector<size_t> candidates;  // top min(p, n) ids, (score, id) order
    std::vector<ScoredIndex> neighbors;
  };

  BruteForce(const Embedder* embedder, const FilterScorer* scorer)
      : embedder_(embedder), scorer_(scorer) {}

  const std::map<size_t, Vector>& rows() const { return rows_; }
  bool live(size_t id) const { return rows_.count(id) != 0; }
  void Insert(size_t id, const DxToDatabaseFn& dx) {
    rows_[id] = embedder_->Embed(dx, nullptr);
  }
  void Remove(size_t id) { rows_.erase(id); }

  Answer Retrieve(const DxToDatabaseFn& dx, size_t k, size_t p) const {
    Answer a;
    if (rows_.empty()) {
      a.empty = true;
      return a;
    }
    const Vector fq = embedder_->Embed(dx, &a.embed_cost);
    std::vector<Vector> rows;
    std::vector<size_t> ids;
    for (const auto& [id, row] : rows_) {
      ids.push_back(id);
      rows.push_back(row);
    }
    std::vector<double> scores;
    scorer_->Score(fq, test::FromRows(rows), &scores);
    std::vector<ScoredIndex> filtered;
    for (size_t i = 0; i < ids.size(); ++i) {
      filtered.push_back({ids[i], scores[i]});
    }
    std::sort(filtered.begin(), filtered.end());
    filtered.resize(std::min(p, filtered.size()));
    for (const ScoredIndex& c : filtered) {
      a.candidates.push_back(c.index);
      a.neighbors.push_back({c.index, dx(c.index)});
    }
    std::sort(a.neighbors.begin(), a.neighbors.end());
    a.neighbors.resize(std::min(k, a.neighbors.size()));
    return a;
  }

 private:
  const Embedder* embedder_;
  const FilterScorer* scorer_;
  std::map<size_t, Vector> rows_;
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Whether two databases hold the same rows and ids in the same order,
/// bit for bit.
bool SameRows(const EmbeddedDatabase& a, const EmbeddedDatabase& b) {
  const EmbeddedDatabase::Snapshot sa = a.snapshot();
  const EmbeddedDatabase::Snapshot sb = b.snapshot();
  return sa->size() == sb->size() &&
         test::SameBytes(sa->data(), sb->data(),
                         sa->size() * sa->dims() * sizeof(double)) &&
         test::SameBytes(sa->ids(), sb->ids(), sa->size() * sizeof(size_t));
}

/// The first difference between a surface's answer and the brute force's,
/// or "" when they agree.
std::string Diff(const BruteForce::Answer& want,
                 const StatusOr<RetrievalResponse>& got, bool want_stats,
                 size_t num_shards, const BruteForce& oracle) {
  if (want.empty) {
    return got.status().code() == StatusCode::kFailedPrecondition
               ? ""
               : "empty database answered " + got.status().ToString();
  }
  if (!got.ok()) return "failed: " + got.status().ToString();
  const RetrievalResponse& r = got.value();
  if (r.neighbors.size() != want.neighbors.size()) {
    return "neighbour count " + std::to_string(r.neighbors.size()) +
           " != " + std::to_string(want.neighbors.size());
  }
  for (size_t i = 0; i < r.neighbors.size(); ++i) {
    if (r.neighbors[i].index != want.neighbors[i].index ||
        !SameBits(r.neighbors[i].score, want.neighbors[i].score)) {
      return "neighbour " + std::to_string(i) + " is (" +
             std::to_string(r.neighbors[i].index) + ", " +
             std::to_string(r.neighbors[i].score) + "), want (" +
             std::to_string(want.neighbors[i].index) + ", " +
             std::to_string(want.neighbors[i].score) + ")";
    }
  }
  if (r.embedding_distances != want.embed_cost ||
      r.exact_distances != want.embed_cost + want.candidates.size()) {
    return "cost " + std::to_string(r.embedding_distances) + " + " +
           std::to_string(r.exact_distances - r.embedding_distances) +
           ", want " + std::to_string(want.embed_cost) + " + " +
           std::to_string(want.candidates.size());
  }
  if (!want_stats) {
    return r.shard_stats.empty() ? "" : "shard_stats without want_stats";
  }
  if (r.shard_stats.size() != num_shards) {
    return std::to_string(r.shard_stats.size()) + " shard_stats, want " +
           std::to_string(num_shards);
  }
  std::vector<ShardScanStats> stats(num_shards);
  for (const auto& [id, row] : oracle.rows()) {
    ++stats[HashShardOf(id, num_shards)].rows;
  }
  for (size_t id : want.candidates) {
    ++stats[HashShardOf(id, num_shards)].candidates;
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (r.shard_stats[s].rows != stats[s].rows ||
        r.shard_stats[s].candidates != stats[s].candidates) {
      return "shard " + std::to_string(s) + " reports " +
             std::to_string(r.shard_stats[s].rows) + " rows / " +
             std::to_string(r.shard_stats[s].candidates) +
             " candidates, want " + std::to_string(stats[s].rows) + " / " +
             std::to_string(stats[s].candidates);
    }
  }
  return "";
}

/// An embedder / scorer pair and the universe it embeds.
struct Pair {
  const ObjectOracle<Vector>* universe;
  const Embedder* embedder;
  const FilterScorer* scorer;
};

/// Counts of one test's checks, reported at its end.
struct Tally {
  size_t checks = 0;
  size_t mismatches = 0;
};

/// Every surface, replaying one random sequence over S shards.
class Replay {
 public:
  Replay(const Pair& pair, size_t num_shards, size_t scatter_threads,
         uint64_t seed, Tally* tally)
      : pair_(pair),
        num_shards_(num_shards),
        rng_(seed),
        tally_(tally),
        layout_{num_shards, scatter_threads},
        oracle_(pair.embedder, pair.scorer),
        mono_db_(pair.embedder->dims()),
        owned_(pair.embedder, pair.scorer, layout_),
        served_(pair.embedder, pair.scorer, layout_),
        server_(&served_, ServerOptions(seed)) {
    // The initial live set, in shuffled id order.
    const size_t n = rng_.Index(kObjects + 1);
    std::vector<size_t> initial = rng_.SampleWithoutReplacement(kObjects, n);
    rng_.Shuffle(&initial);
    // The borrowed engine's rows are written in place, leaving its int8
    // matrix for the constructor to rebuild.
    mono_db_.Resize(initial.size());
    for (size_t row = 0; row < initial.size(); ++row) {
      const Vector v = pair.embedder->Embed(Dx(initial[row]), nullptr);
      std::copy(v.begin(), v.end(), mono_db_.mutable_row(row));
    }
    mono_ = std::make_unique<RetrievalEngine>(pair.embedder, pair.scorer,
                                              &mono_db_, initial);
    for (size_t s = 0; s < num_shards; ++s) {
      shard_engines_.push_back(std::make_unique<RetrievalEngine>(
          pair.embedder, pair.scorer, ShardedEngineOptions{1, 1}));
      servers_.push_back(std::make_unique<net::RetrievalServer>(
          shard_engines_.back().get(), net::RetrievalServerOptions{}));
      EXPECT_TRUE(servers_.back()->Start(0).ok());
      remotes_.push_back(std::make_shared<net::RemoteRetrievalBackend>(
          pair.embedder, "127.0.0.1", servers_.back()->port()));
    }
    composed_ = std::make_unique<RetrievalEngine>(pair.embedder, remotes_,
                                                  layout_);
    durability_.dir = test::FreshDir("oracle");
    durability_.fsync = persist::FsyncPolicy::kOff;
    durability_.snapshot_every_records = rng_.Index(3) * 7;  // 0, 7 or 14
    Recover();
    if (Stop()) return;
    for (size_t id : initial) {
      oracle_.Insert(id, Dx(id));
      for (const auto& [name, status] : InsertEverywhere(id, false)) {
        EXPECT_TRUE(status.ok()) << name << " " << status;
      }
    }
    CheckSizes("initial");
  }

  /// Runs the sequence: random mutations, reads and recoveries, with one
  /// drain to empty and a partial re-insert at a random point.
  void Run() {
    const size_t drain_at = rng_.Index(kOpsPerSequence);
    for (step_ = 0; step_ < kOpsPerSequence && !Stop(); ++step_) {
      if (step_ == drain_at) Drain();
      const double r = rng_.Uniform();
      if (r < 0.45) {
        RetrieveRandom();
      } else if (r < 0.70) {
        std::vector<size_t> dead = Ids(false);
        if (!dead.empty()) Insert(dead[rng_.Index(dead.size())]);
      } else if (r < 0.88) {
        std::vector<size_t> live = Ids(true);
        if (!live.empty()) Remove(live[rng_.Index(live.size())]);
      } else if (r < 0.94) {
        // Refused mutations: every surface must refuse them alike.
        const size_t id = rng_.Index(kObjects);
        oracle_.live(id) ? Insert(id) : Remove(id);
      } else {
        Recover();
        if (!Stop()) CheckSizes("Recover");
      }
    }
    if (Stop()) return;
    Recover();
    if (Stop()) return;
    CheckSizes("Recover");
    RetrieveRandom();
    // Every read reached the backend: none was refused, expired or
    // cancelled.
    server_.Shutdown();
    const ServerStats stats = server_.stats();
    Report("server stats",
           stats.submitted == server_reads_ && stats.completed == server_reads_
               ? ""
               : std::to_string(stats.completed) + " of " +
                     std::to_string(stats.submitted) + " completed, " +
                     std::to_string(server_reads_) + " submitted");
  }

 private:
  static AsyncServerOptions ServerOptions(uint64_t seed) {
    AsyncServerOptions options;
    options.num_workers = 1 + seed % 2;
    return options;
  }

  DxToDatabaseFn Dx(size_t id) const { return DxOf(*pair_.universe, id); }
  /// After ten mismatches, or a failed recovery that left no durable
  /// surface.
  bool Stop() const {
    return tally_->mismatches >= 10 || ::testing::Test::HasFatalFailure();
  }

  /// Live (or dead) database ids, ascending.
  std::vector<size_t> Ids(bool live) const {
    std::vector<size_t> ids;
    for (size_t id = 0; id < kObjects; ++id) {
      if (oracle_.live(id) == live) ids.push_back(id);
    }
    return ids;
  }

  void Report(const std::string& surface, const std::string& diff) {
    ++tally_->checks;
    if (diff.empty()) return;
    ++tally_->mismatches;
    ADD_FAILURE() << surface << " (S=" << num_shards_ << ", scatter "
                  << layout_.scatter_threads << ", step " << step_
                  << "): " << diff;
  }

  /// Inserts `id` into every surface that mutates (the borrowed engine
  /// too unless `mono` is false), returning each surface's status.
  std::vector<std::pair<const char*, Status>> InsertEverywhere(
      size_t id, bool mono = true) {
    const DxToDatabaseFn dx = Dx(id);
    partitioned_.reset();
    std::vector<std::pair<const char*, Status>> statuses = {
        {"owned", owned_.Insert(id, dx)},
        {"server", server_.Insert(id, dx)},
        {"composed", composed_->Insert(id, dx)},
        {"durable", durable_->Insert(id, dx)}};
    if (mono) statuses.push_back({"mono", mono_->Insert(id, dx)});
    return statuses;
  }

  std::vector<std::pair<const char*, Status>> RemoveEverywhere(size_t id) {
    partitioned_.reset();
    return {{"mono", mono_->Remove(id)},
            {"owned", owned_.Remove(id)},
            {"server", server_.Remove(id)},
            {"composed", composed_->Remove(id)},
            {"durable", durable_->Remove(id)}};
  }

  void Insert(size_t id) {
    const StatusCode want = oracle_.live(id) ? StatusCode::kInvalidArgument
                                             : StatusCode::kOk;
    if (want == StatusCode::kOk) oracle_.Insert(id, Dx(id));
    for (const auto& [name, status] : InsertEverywhere(id)) {
      Report(std::string(name) + " Insert(" + std::to_string(id) + ")",
             status.code() == want ? "" : status.ToString());
    }
    CheckSizes("Insert");
  }

  void Remove(size_t id) {
    const StatusCode want =
        oracle_.live(id) ? StatusCode::kOk : StatusCode::kNotFound;
    oracle_.Remove(id);
    for (const auto& [name, status] : RemoveEverywhere(id)) {
      Report(std::string(name) + " Remove(" + std::to_string(id) + ")",
             status.code() == want ? "" : status.ToString());
    }
    CheckSizes("Remove");
  }

  /// Removes every live id in random order, reads the empty database,
  /// then re-inserts a random subset of the removed ids.
  void Drain() {
    std::vector<size_t> live = Ids(true);
    rng_.Shuffle(&live);
    for (size_t id : live) Remove(id);
    RetrieveRandom();
    for (size_t i = 0, n = rng_.Index(live.size() + 1); i < n; ++i) {
      Insert(live[i]);
    }
  }

  /// Closes the durable surface and recovers it into a fresh engine from
  /// its snapshot (taken now, half the time) plus the WAL tail; the
  /// recovered shards must hold the closed engine's rows in its order.
  void Recover() {
    if (durable_ != nullptr && rng_.Bernoulli(0.5)) {
      EXPECT_TRUE(durable_->WriteSnapshotNow().ok());
    }
    durable_.reset();
    manager_.reset();
    const std::unique_ptr<RetrievalEngine> closed = std::move(durable_engine_);
    durable_engine_ = std::make_unique<RetrievalEngine>(
        pair_.embedder, pair_.scorer, layout_);
    auto manager = persist::DurabilityManager::Open(durability_);
    ASSERT_TRUE(manager.ok()) << manager.status();
    manager_ = std::move(manager).value();
    std::vector<EmbeddedDatabase*> dbs = test::ShardDbs(durable_engine_.get());
    ASSERT_TRUE(manager_->InstallSnapshot(dbs).ok());
    durable_engine_->RebuildIdIndex();
    StatusOr<uint64_t> replayed = manager_->Replay(durable_engine_.get());
    ASSERT_TRUE(replayed.ok()) << replayed.status();
    durable_ = std::make_unique<persist::DurableBackend>(
        durable_engine_.get(), pair_.embedder, manager_.get(),
        std::vector<const EmbeddedDatabase*>(dbs.begin(), dbs.end()));
    for (size_t s = 0; closed != nullptr && s < num_shards_; ++s) {
      Report("recovered shard " + std::to_string(s),
             SameRows(closed->db(s), durable_engine_->db(s))
                 ? ""
                 : "rows differ from the closed engine's");
    }
  }

  /// Every surface holds the live set, shard by shard where it is local.
  void CheckSizes(const char* after) {
    std::vector<size_t> want(num_shards_, 0);
    for (const auto& [id, row] : oracle_.rows()) {
      ++want[HashShardOf(id, num_shards_)];
    }
    const size_t n = oracle_.rows().size();
    auto check = [&](const char* surface, std::vector<size_t> got,
                     const std::vector<size_t>& expected) {
      std::string diff;
      if (got != expected) {
        diff = std::string("shard sizes differ after ") + after;
      }
      Report(surface, diff);
    };
    check("mono size", mono_->shard_sizes(), {n});
    check("owned size", owned_.shard_sizes(), want);
    check("server size", served_.shard_sizes(), want);
    check("composed size", composed_->shard_sizes(), want);
    check("durable size", durable_engine_->shard_sizes(), want);
  }

  /// One read with random options on every surface.
  void RetrieveRandom() {
    const size_t n = oracle_.rows().size();
    RetrievalOptions options(1 + rng_.Index(kMaxK), 1 + rng_.Index(n + 3));
    options.want_stats = rng_.Bernoulli(0.5);
    // A deadline travels with the request (over the wire as a budget)
    // and must not change the answer.
    if (rng_.Bernoulli(0.5)) {
      options.deadline = RetrievalOptions::DeadlineIn(std::chrono::minutes(1));
    }
    const size_t q = kObjects + rng_.Index(kQueries);
    const size_t q2 = kObjects + rng_.Index(kQueries);
    const BruteForce::Answer want = oracle_.Retrieve(Dx(q), options.k,
                                                     options.p);
    const BruteForce::Answer want2 = oracle_.Retrieve(Dx(q2), options.k,
                                                      options.p);
    auto check = [&](const char* surface, size_t query,
                     const BruteForce::Answer& expected,
                     const StatusOr<RetrievalResponse>& got, size_t shards) {
      Report(std::string(surface) + " q=" + std::to_string(query) +
                 " k=" + std::to_string(options.k) +
                 " p=" + std::to_string(options.p) +
                 " n=" + std::to_string(n),
             Diff(expected, got, options.want_stats, shards, oracle_));
    };
    check("mono", q, want, mono_->Retrieve({Dx(q), options}), 1);
    if (num_shards_ == 1) {
      // A remote backend's own Retrieve: an engine composed over it.
      check("remote", q, want, remotes_[0]->Retrieve({Dx(q), options}), 1);
    }
    if (partitioned_ == nullptr) {
      partitioned_ = std::make_unique<RetrievalEngine>(
          pair_.embedder, pair_.scorer, mono_db_, mono_db_.ids(), layout_);
    }
    check("partitioned", q, want, partitioned_->Retrieve({Dx(q), options}),
          num_shards_);
    check("owned", q, want, owned_.Retrieve({Dx(q), options}), num_shards_);
    StatusOr<std::vector<RetrievalResponse>> batch =
        owned_.RetrieveBatch({Dx(q), Dx(q2)}, options);
    if (!batch.ok()) {
      check("batch", q, want, batch.status(), num_shards_);
    } else if (batch->size() != 2) {
      Report("batch", std::to_string(batch->size()) + " answers to 2 queries");
    } else {
      check("batch", q, want, batch.value()[0], num_shards_);
      check("batch", q2, want2, batch.value()[1], num_shards_);
    }
    auto second = server_.Submit({Dx(q2), options});
    check("server", q, want, server_.Retrieve({Dx(q), options}), num_shards_);
    check("server", q2, want2, second.Get(), num_shards_);
    server_reads_ += 2;
    check("composed", q, want, composed_->Retrieve({Dx(q), options}),
          num_shards_);
    check("durable", q, want, durable_->Retrieve({Dx(q), options}),
          num_shards_);
  }

  const Pair pair_;
  const size_t num_shards_;
  Rng rng_;
  Tally* tally_;
  const ShardedEngineOptions layout_;
  size_t step_ = 0;
  size_t server_reads_ = 0;
  BruteForce oracle_;

  EmbeddedDatabase mono_db_;
  std::unique_ptr<RetrievalEngine> mono_;
  /// Built from mono_db_ at the first read after a mutation.
  std::unique_ptr<RetrievalEngine> partitioned_;
  RetrievalEngine owned_;
  RetrievalEngine served_;
  AsyncRetrievalServer server_;

  std::vector<std::unique_ptr<RetrievalEngine>> shard_engines_;
  std::vector<std::unique_ptr<net::RetrievalServer>> servers_;
  std::vector<std::shared_ptr<RetrievalBackend>> remotes_;
  std::unique_ptr<RetrievalEngine> composed_;

  persist::DurabilityOptions durability_;
  std::unique_ptr<RetrievalEngine> durable_engine_;
  std::unique_ptr<persist::DurabilityManager> manager_;
  std::unique_ptr<persist::DurableBackend> durable_;
};

/// Replays 4 * QSE_STRESS_ITERS sequences of one pair, cycling S.
void RunOracle(const Pair& pair) {
  const uint64_t seed = test::StressSeed();
  QSE_LOG_STRESS_SEED(seed);
  Tally tally;
  size_t i = 0;
  for (; i < 4 * test::StressScale() && tally.mismatches == 0; ++i) {
    SCOPED_TRACE(::testing::Message() << "sequence " << i);
    Replay(pair, kShardCounts[i % 4], kScatterThreads[i % 3],
           test::Mix64(seed + i), &tally)
        .Run();
  }
  std::printf("[ oracle ] %zu sequences, %zu checks, %zu mismatches\n", i,
              tally.checks, tally.mismatches);
  EXPECT_EQ(tally.mismatches, 0u);
}

TEST(RetrievalOracle, SeQsUnderQuerySensitiveScorer) {
  const ObjectOracle<Vector> universe = MakeUniverse();
  BoostMapConfig config;
  config.num_triples = 800;
  config.k1 = 3;
  config.boost.rounds = 24;
  config.boost.embeddings_per_round = 12;
  const std::vector<size_t> sample = test::Iota(32);
  auto artifacts = TrainBoostMap(universe, sample, sample, config);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status();
  const QuerySensitiveEmbedding& model = artifacts->model;
  // The signed-weight scan must run: some query weighs a dimension
  // negatively.
  bool signed_weights = false;
  for (size_t q = kObjects; q < kObjects + kQueries; ++q) {
    const Vector w = model.QueryWeights(model.Embed(DxOf(universe, q)));
    signed_weights |= std::any_of(w.begin(), w.end(),
                                  [](double v) { return v < 0.0; });
  }
  ASSERT_TRUE(signed_weights);
  QseEmbedderAdapter embedder(&model);
  QuerySensitiveScorer scorer(&model);
  RunOracle({&universe, &embedder, &scorer});
}

TEST(RetrievalOracle, FastMapUnderL2Scorer) {
  const ObjectOracle<Vector> universe = MakeUniverse();
  FastMapOptions options;
  options.dims = 3;
  FastMapModel model = BuildFastMap(universe, test::Iota(kObjects), options);
  L2Scorer scorer;
  RunOracle({&universe, &model, &scorer});
}

}  // namespace
}  // namespace qse
