// Tests of RetrievalEngine: early-abandon ScoreTopP equivalence with the
// full scan; bit-identical results across shard counts, scatter threads
// and the RetrieveBatch loop (same database ids, scores and cost
// accounting, ties included); stateless routing; and incremental
// Insert/Remove.  Random mutation sequences on every surface are checked
// against the brute force in retrieval_oracle_test.cc.
#include "src/retrieval/retrieval_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "src/core/trainer.h"
#include "src/embedding/fastmap.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/exact_knn.h"
#include "src/retrieval/filter_refine.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace qse {
namespace {

// --- ScoreTopP vs Score + SmallestK parity ------------------------------

EmbeddedDatabase RandomDb(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  EmbeddedDatabase db(d);
  db.Resize(n);
  for (size_t i = 0; i < n; ++i) {
    double* row = db.mutable_row(i);
    for (size_t j = 0; j < d; ++j) row[j] = rng.Uniform(0, 1);
  }
  return db;
}

void ExpectTopPMatchesFullScan(const FilterScorer& scorer,
                               const EmbeddedDatabase& db, const Vector& q,
                               size_t p) {
  std::vector<double> scores;
  scorer.Score(q, db, &scores);
  std::vector<ScoredIndex> expected = SmallestK(scores, p);
  std::vector<ScoredIndex> got = scorer.ScoreTopP(q, db, p);
  ASSERT_EQ(got.size(), expected.size()) << "p=" << p;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, expected[i].index) << "p=" << p << " i=" << i;
    // Bit-identical: the fused kernel accumulates in the same order.
    EXPECT_EQ(got[i].score, expected[i].score) << "p=" << p << " i=" << i;
  }
}

TEST(ScoreTopPTest, L2MatchesFullScanAcrossP) {
  EmbeddedDatabase db = RandomDb(200, 37, 1);  // d not a block multiple.
  Rng rng(2);
  Vector q(37);
  for (double& v : q) v = rng.Uniform(0, 1);
  L2Scorer scorer;
  for (size_t p : {1u, 2u, 7u, 50u, 200u, 500u}) {
    ExpectTopPMatchesFullScan(scorer, db, q, p);
  }
}

/// Plain L1 as a scorer: the weighted-L1 scan with every weight 1.0,
/// prescreened like a trained model's.
struct UnitWeightScorer {
  explicit UnitWeightScorer(size_t d)
      : oracle(test::MakePlaneOracle(d + 1, 5)),
        model(test::MakeFixedWeightModel(oracle, Vector(d, 1.0))),
        scorer(&model) {}
  ObjectOracle<Vector> oracle;
  QuerySensitiveEmbedding model;
  QuerySensitiveScorer scorer;
};

TEST(ScoreTopPTest, L1MatchesFullScanAcrossP) {
  EmbeddedDatabase db = RandomDb(150, 16, 3);
  Rng rng(4);
  Vector q(16);
  for (double& v : q) v = rng.Uniform(0, 1);
  UnitWeightScorer unit(16);
  for (size_t p : {1u, 10u, 150u}) {
    ExpectTopPMatchesFullScan(unit.scorer, db, q, p);
  }
}

TEST(ScoreTopPTest, ExactUnderTiedScores) {
  // Duplicated rows force exact score ties; the early-abandon pass must
  // break them by row index exactly like SmallestK.
  EmbeddedDatabase db = test::FromRows(
      {{1, 1}, {0, 0}, {1, 1}, {0, 0}, {2, 2}, {0, 0}});
  UnitWeightScorer unit(2);
  Vector q = {0, 0};
  std::vector<ScoredIndex> top = unit.scorer.ScoreTopP(q, db, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].index, 1u);
  EXPECT_EQ(top[1].index, 3u);
  EXPECT_EQ(top[2].index, 5u);
  ExpectTopPMatchesFullScan(unit.scorer, db, q, 3);
  ExpectTopPMatchesFullScan(unit.scorer, db, q, 4);
}

TEST(ScoreTopPTest, QuerySensitiveMatchesFullScan) {
  auto oracle = test::MakePlaneOracle(80, 7);
  BoostMapConfig config;
  config.num_triples = 500;
  config.k1 = 3;
  config.boost.rounds = 16;
  config.boost.embeddings_per_round = 12;
  auto artifacts = TrainBoostMap(oracle, test::Iota(20), test::Iota(30, 20),
                                 config);
  ASSERT_TRUE(artifacts.ok());
  QseEmbedderAdapter adapter(&artifacts->model);
  std::vector<size_t> db_ids = test::Iota(60);
  EmbeddedDatabase db = EmbedDatabase(adapter, oracle, db_ids);
  QuerySensitiveScorer scorer(&artifacts->model);
  for (size_t query_id : {70u, 71u, 75u}) {
    Vector fq = artifacts->model.Embed(
        [&](size_t o) { return oracle.Distance(query_id, o); });
    for (size_t p : {1u, 5u, 20u, 60u}) {
      ExpectTopPMatchesFullScan(scorer, db, fq, p);
    }
  }
}

// --- Parity across shard counts, scatter threads and batching ----------

struct Stack {
  ObjectOracle<Vector> oracle;
  std::vector<size_t> db_ids;
  std::vector<size_t> query_ids;
};

Stack MakeStack(size_t n_db, size_t n_query, uint64_t seed) {
  auto oracle = test::MakePlaneOracle(n_db + n_query, seed);
  return {std::move(oracle), test::Iota(n_db), test::Iota(n_query, n_db)};
}

DxToDatabaseFn QueryDx(const Stack& s, size_t query_id) {
  return [&oracle = s.oracle, query_id](size_t id) {
    return oracle.Distance(query_id, id);
  };
}

/// Asserts that two results agree on ids, scores (bit for bit: both
/// refine steps evaluate the same dx on the same candidates) and costs.
void ExpectSameResult(const RetrievalResponse& expected,
                      const RetrievalResponse& got, const char* context) {
  EXPECT_EQ(expected.exact_distances, got.exact_distances) << context;
  EXPECT_EQ(expected.embedding_distances, got.embedding_distances)
      << context;
  EXPECT_EQ(expected.neighbors, got.neighbors) << context;
}

TEST(ShardedParityTest, ExactUnderTiedFilterScores) {
  // Duplicated rows force exact filter-score ties, which every shard
  // count must break the same way: by database id.
  std::vector<Vector> rows = {{0, 0}, {1, 1}, {0, 0}, {1, 1},
                              {0, 0}, {2, 2}, {1, 1}, {0, 0}};
  EmbeddedDatabase db = test::FromRows(rows);
  std::vector<size_t> ids = test::Iota(rows.size());

  // An embedder that maps any query to the origin: every duplicate row
  // also ties in the refine step (dx below is constant per id bucket).
  struct OriginEmbedder : Embedder {
    size_t dims() const override { return 2; }
    size_t EmbeddingCost() const override { return 0; }
    Vector Embed(const DxToDatabaseFn&, size_t* n) const override {
      if (n != nullptr) *n = 0;
      return {0.0, 0.0};
    }
  } embedder;
  UnitWeightScorer unit(2);
  const FilterScorer& scorer = unit.scorer;
  RetrievalEngine mono(&embedder, &scorer, &db, ids);
  DxToDatabaseFn dx = [&](size_t id) { return rows[id][0]; };

  for (size_t num_shards : {2u, 3u, 7u}) {
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    RetrievalEngine sharded(&embedder, &scorer, db, ids, options);
    for (size_t p : {1u, 3u, 4u, 8u}) {
      auto want = mono.Retrieve({dx, RetrievalOptions(p, p)});
      auto got = sharded.Retrieve({dx, RetrievalOptions(p, p)});
      ASSERT_TRUE(want.ok() && got.ok());
      std::string context =
          "S=" + std::to_string(num_shards) + " p=" + std::to_string(p);
      ExpectSameResult(*want, *got, context.c_str());
    }
  }
}

TEST(ShardedParityTest, TiesBreakByIdAfterRemoveScramblesRows) {
  // Remove(0) moves id 3 into row 0 and the re-insert puts id 0 last, so
  // rows no longer ascend with ids.  Ids 0 and 3 tie at filter score 0;
  // every shard count must keep the same one, the smaller id.
  std::vector<Vector> rows = {{0, 0}, {5, 5}, {6, 6}, {0, 0}};
  EmbeddedDatabase db = test::FromRows(rows);
  std::vector<size_t> ids = test::Iota(rows.size());
  struct OriginEmbedder : Embedder {
    size_t dims() const override { return 2; }
    size_t EmbeddingCost() const override { return 0; }
    Vector Embed(const DxToDatabaseFn&, size_t* n) const override {
      if (n != nullptr) *n = 0;
      return {0.0, 0.0};
    }
  } embedder;
  UnitWeightScorer unit(2);
  const FilterScorer& scorer = unit.scorer;
  DxToDatabaseFn dx = [](size_t id) { return 10.0 - static_cast<double>(id); };
  auto expect_id_zero = [&](RetrievalEngine& engine, size_t num_shards) {
    ASSERT_TRUE(engine.Remove(0).ok());
    ASSERT_TRUE(engine.InsertEmbedded(0, {0.0, 0.0}).ok());
    auto got = engine.Retrieve({dx, RetrievalOptions(1, 1)});
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->neighbors.size(), 1u);
    EXPECT_EQ(got->neighbors[0].index, 0u) << "S=" << num_shards;
    EXPECT_EQ(got->neighbors[0].score, 10.0) << "S=" << num_shards;
  };
  RetrievalEngine mono(&embedder, &scorer, &db, ids);
  expect_id_zero(mono, 1);
  for (size_t num_shards : {3u, 4u, 5u}) {
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    RetrievalEngine sharded(&embedder, &scorer,
                            test::FromRows(rows), ids, options);
    expect_id_zero(sharded, num_shards);
  }
}

// --- Routing, validation and stats --------------------------------------

struct ShardedFixture {
  Stack s = MakeStack(40, 4, 35);
  FastMapOptions fm;
  FastMapModel model;
  L2Scorer scorer;
  EmbeddedDatabase db;
  RetrievalEngine engine;

  explicit ShardedFixture(ShardedEngineOptions options = MakeOptions())
      : fm([] {
          FastMapOptions o;
          o.dims = 2;
          return o;
        }()),
        model(BuildFastMap(s.oracle, s.db_ids, fm)),
        db(EmbedDatabase(model, s.oracle, s.db_ids)),
        engine(&model, &scorer, db, s.db_ids, options) {}

  static ShardedEngineOptions MakeOptions() {
    ShardedEngineOptions o;
    o.num_shards = 4;
    return o;
  }
};

TEST(ShardedRetrievalEngineTest, HashRoutingIsDeterministic) {
  ShardedFixture a;
  ShardedFixture b;
  std::vector<size_t> sizes(a.engine.num_shards(), 0);
  for (size_t id : a.s.db_ids) {
    EXPECT_EQ(a.engine.ShardOf(id), b.engine.ShardOf(id)) << id;
    EXPECT_EQ(a.engine.ShardOf(id), HashShardOf(id, a.engine.num_shards()));
    ++sizes[a.engine.ShardOf(id)];
  }
  // Every id lives in the shard ShardOf names.
  EXPECT_EQ(a.engine.shard_sizes(), sizes);
}

TEST(ShardedRetrievalEngineTest,
     ComposedEngineRoutesStatelesslyAndSumsLiveSizes) {
  // Two local engines holding the HashShardOf partition of ids 0..9,
  // composed behind one engine that never routed those ids itself.
  ShardedFixture f;
  constexpr size_t kShards = 2;
  std::vector<std::vector<size_t>> ids(kShards);
  for (size_t id = 0; id < 10; ++id) {
    ids[HashShardOf(id, kShards)].push_back(id);
  }
  std::vector<EmbeddedDatabase> dbs;
  dbs.reserve(kShards);
  std::vector<std::shared_ptr<RetrievalEngine>> engines;
  std::vector<std::shared_ptr<RetrievalBackend>> backends;
  for (size_t s = 0; s < kShards; ++s) {
    dbs.push_back(EmbedDatabase(f.model, f.s.oracle, ids[s]));
    engines.push_back(std::make_shared<RetrievalEngine>(&f.model, &f.scorer,
                                                        &dbs[s], ids[s]));
    backends.push_back(engines[s]);
  }
  RetrievalEngine composed(&f.model, backends);
  ASSERT_EQ(composed.size(), 10u);

  // A row added straight into a shard counts: size() is live.
  const size_t extra = 10;
  const Vector row = dbs[0].RowVector(0);
  ASSERT_TRUE(
      engines[HashShardOf(extra, kShards)]->InsertEmbedded(extra, row).ok());
  EXPECT_EQ(composed.size(), 11u);

  // A construction-time id is removable through the composed engine: the
  // destination shard, not a routing table, decides NotFound.
  Status removed = composed.Remove(2);
  EXPECT_TRUE(removed.ok()) << removed;
  EXPECT_EQ(composed.size(), 10u);
  EXPECT_EQ(composed.Remove(2).code(), StatusCode::kNotFound);
  EXPECT_EQ(composed.InsertEmbedded(extra, row).code(),
            StatusCode::kInvalidArgument);
}

// Option validation and p clamping for both engines live in the
// cross-surface parameterized suite: tests/request_validation_test.cc.

TEST(ShardedRetrievalEngineTest, EmptyEngineFailsRetrieveAndDrainsEmpty) {
  ShardedFixture f;
  ShardedEngineOptions options;
  options.num_shards = 3;
  RetrievalEngine empty(&f.model, &f.scorer, options);
  EXPECT_EQ(empty.size(), 0u);
  auto r = empty.Retrieve({QueryDx(f.s, 40), RetrievalOptions(1, 5)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);

  // Fill through Insert, drain through Remove, fail again.
  for (size_t id : {1u, 2u, 3u}) {
    ASSERT_TRUE(empty
                    .Insert(id,
                            [&](size_t o) {
                              return o == id
                                         ? 0.0
                                         : f.s.oracle.Distance(id, o);
                            })
                    .ok());
  }
  EXPECT_EQ(empty.size(), 3u);
  for (size_t id : {1u, 2u, 3u}) ASSERT_TRUE(empty.Remove(id).ok());
  EXPECT_EQ(empty.size(), 0u);
  r = empty.Retrieve({QueryDx(f.s, 40), RetrievalOptions(1, 5)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardedRetrievalEngineTest, DuplicateInsertAndUnknownRemove) {
  ShardedFixture f;
  Status dup = f.engine.Insert(0, QueryDx(f.s, 40));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  Status gone = f.engine.Remove(999);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.code(), StatusCode::kNotFound);
}

TEST(ShardedRetrievalEngineTest, StatsCoverEveryShardAndSumToP) {
  ShardedFixture f;
  const size_t p = 15;
  RetrievalOptions with_stats(3, p);
  with_stats.want_stats = true;
  auto r = f.engine.Retrieve({QueryDx(f.s, 41), with_stats});
  ASSERT_TRUE(r.ok());
  const std::vector<ShardScanStats>& stats = r->shard_stats;
  ASSERT_EQ(stats.size(), f.engine.num_shards());
  size_t rows = 0, candidates = 0;
  std::vector<size_t> sizes = f.engine.shard_sizes();
  for (size_t s = 0; s < stats.size(); ++s) {
    EXPECT_EQ(stats[s].rows, sizes[s]);
    EXPECT_LE(stats[s].candidates, p);
    rows += stats[s].rows;
    candidates += stats[s].candidates;
  }
  EXPECT_EQ(rows, f.engine.size());
  // The merged top-p has exactly min(p, n) entries, each owned by one
  // shard.
  EXPECT_EQ(candidates, std::min(p, f.engine.size()));
  EXPECT_EQ(r->exact_distances - r->embedding_distances, candidates);
}

TEST(ShardedRetrievalEngineTest, BackendInterfaceServesBothEngines) {
  // The polymorphic swap the serving layer is built for: the same driver
  // code runs against either backend and returns the same database ids.
  ShardedFixture f;
  RetrievalEngine mono(&f.model, &f.scorer, &f.db, f.s.db_ids);
  auto serve = [&](const RetrievalBackend& backend) {
    auto r = backend.Retrieve({QueryDx(f.s, 42), RetrievalOptions(3, 10)});
    EXPECT_TRUE(r.ok());
    std::vector<size_t> ids;
    for (const ScoredIndex& n : r->neighbors) {
      ids.push_back(n.index);
    }
    return ids;
  };
  EXPECT_EQ(serve(mono), serve(f.engine));
}

// Parameter validation (k = 0, p = 0, empty database, oversized p,
// invalid filter precision) lives in the cross-surface parameterized suite:
// tests/request_validation_test.cc.

struct EngineFixture {
  Stack s = MakeStack(40, 4, 21);
  FastMapOptions options;
  FastMapModel model;
  L2Scorer scorer;
  EmbeddedDatabase db;
  RetrievalEngine engine;

  EngineFixture()
      : options([] {
          FastMapOptions o;
          o.dims = 2;
          return o;
        }()),
        model(BuildFastMap(s.oracle, s.db_ids, options)),
        db(EmbedDatabase(model, s.oracle, s.db_ids)),
        engine(&model, &scorer, &db, s.db_ids) {}

  DxToDatabaseFn QueryDx(size_t query_id) const {
    return [&oracle = s.oracle, query_id](size_t id) {
      return oracle.Distance(query_id, id);
    };
  }
};

// --- Incremental Insert / Remove ----------------------------------------

TEST(RetrievalEngineTest, InsertMatchesOfflineEmbedding) {
  // Build the engine over the first 30 objects, insert 10 more online:
  // the result must equal embedding all 40 offline.
  Stack s = MakeStack(40, 4, 22);
  FastMapOptions options;
  options.dims = 2;
  FastMapModel model = BuildFastMap(s.oracle, s.db_ids, options);
  L2Scorer scorer;

  std::vector<size_t> first(s.db_ids.begin(), s.db_ids.begin() + 30);
  EmbeddedDatabase db = EmbedDatabase(model, s.oracle, first);
  RetrievalEngine engine(&model, &scorer, &db, first);
  for (size_t id = 30; id < 40; ++id) {
    ASSERT_TRUE(engine
                    .Insert(id,
                            [&](size_t o) {
                              return o == id ? 0.0
                                             : s.oracle.Distance(id, o);
                            })
                    .ok());
  }
  EXPECT_EQ(engine.size(), 40u);

  EmbeddedDatabase offline = EmbedDatabase(model, s.oracle, s.db_ids);
  for (size_t row = 0; row < 40; ++row) {
    EXPECT_EQ(db.RowVector(row), offline.RowVector(row)) << "row " << row;
  }

  // Retrieval over the grown engine equals exact k-NN at p = n.
  auto r = engine.Retrieve(
      {[&](size_t id) { return s.oracle.Distance(42, id); },
       RetrievalOptions(3, engine.size())});
  ASSERT_TRUE(r.ok());
  auto exact = ExactKnn(s.oracle, 42, s.db_ids, 3);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r->neighbors[i].index, exact[i].index);
  }
}

TEST(RetrievalEngineTest, DuplicateInsertRejected) {
  EngineFixture f;
  Status s = f.engine.Insert(0, f.QueryDx(40));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(RetrievalEngineTest, RemoveUnknownIdIsNotFound) {
  EngineFixture f;
  Status s = f.engine.Remove(999);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(RetrievalEngineTest, RemoveKeepsMappingConsistent) {
  Stack s = MakeStack(20, 2, 23);
  FastMapOptions options;
  options.dims = 2;
  FastMapModel model = BuildFastMap(s.oracle, s.db_ids, options);
  L2Scorer scorer;
  EmbeddedDatabase db = EmbedDatabase(model, s.oracle, s.db_ids);
  EmbeddedDatabase reference = db;  // Copy before mutation.
  RetrievalEngine engine(&model, &scorer, &db, s.db_ids);

  // Remove a middle id and the last id.
  ASSERT_TRUE(engine.Remove(5).ok());
  ASSERT_TRUE(engine.Remove(19).ok());
  EXPECT_EQ(engine.size(), 18u);

  // Every surviving row must still carry its own embedding.
  for (size_t row = 0; row < engine.size(); ++row) {
    size_t id = engine.db().id_of(row);
    EXPECT_NE(id, 5u);
    EXPECT_NE(id, 19u);
    EXPECT_EQ(db.RowVector(row), reference.RowVector(id))
        << "row " << row << " id " << id;
  }

  // Retrieval at p = n equals exact k-NN over the surviving ids.
  std::vector<size_t> live_ids = engine.db_ids();
  auto r = engine.Retrieve(
      {[&](size_t id) { return s.oracle.Distance(20, id); },
       RetrievalOptions(1, engine.size())});
  ASSERT_TRUE(r.ok());
  auto exact = ExactKnnExternal(
      [&](size_t id) { return s.oracle.Distance(20, id); }, live_ids, 1);
  EXPECT_EQ(r->neighbors[0].index, live_ids[exact[0].index]);
}

// --- Remove's swap-with-last bookkeeping edge cases ---------------------

/// Asserts row <-> id maps are mutually consistent and every row still
/// carries the embedding of its id.
void ExpectConsistentMapping(const RetrievalEngine& engine,
                             const EmbeddedDatabase& reference) {
  for (size_t row = 0; row < engine.size(); ++row) {
    size_t id = engine.db().id_of(row);
    EXPECT_EQ(engine.db().RowVector(row), reference.RowVector(id))
        << "row " << row << " id " << id;
  }
}

TEST(RetrievalEngineTest, RemoveLastRowMovesNothing) {
  Stack s = MakeStack(10, 1, 24);
  FastMapOptions options;
  options.dims = 2;
  FastMapModel model = BuildFastMap(s.oracle, s.db_ids, options);
  L2Scorer scorer;
  EmbeddedDatabase db = EmbedDatabase(model, s.oracle, s.db_ids);
  EmbeddedDatabase reference = db;
  RetrievalEngine engine(&model, &scorer, &db, s.db_ids);

  // Id 9 occupies the last row; SwapRemove's "moved" row is the removed
  // row itself and no other mapping may change.
  ASSERT_TRUE(engine.Remove(9).ok());
  EXPECT_EQ(engine.size(), 9u);
  for (size_t row = 0; row < engine.size(); ++row) {
    EXPECT_EQ(engine.db().id_of(row), row);  // Untouched prefix.
  }
  ExpectConsistentMapping(engine, reference);
}

TEST(RetrievalEngineTest, RemoveUntilEmptyThenFailsCleanly) {
  Stack s = MakeStack(6, 1, 25);
  FastMapOptions options;
  options.dims = 2;
  FastMapModel model = BuildFastMap(s.oracle, s.db_ids, options);
  L2Scorer scorer;
  EmbeddedDatabase db = EmbedDatabase(model, s.oracle, s.db_ids);
  EmbeddedDatabase reference = db;
  RetrievalEngine engine(&model, &scorer, &db, s.db_ids);

  // Drain in an order that exercises both branches repeatedly: middle
  // (swap happens), then last (no swap), until nothing is left.
  for (size_t id : {2u, 5u, 0u, 4u, 1u, 3u}) {
    ASSERT_TRUE(engine.Remove(id).ok()) << id;
    ExpectConsistentMapping(engine, reference);
  }
  EXPECT_EQ(engine.size(), 0u);
  EXPECT_TRUE(engine.db_ids().empty());

  auto r = engine.Retrieve(
      {[&](size_t id) { return s.oracle.Distance(6, id); },
       RetrievalOptions(1, 1)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  Status again = engine.Remove(2);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kNotFound);
}

TEST(RetrievalEngineTest, ReinsertingRemovedIdWorks) {
  Stack s = MakeStack(12, 2, 26);
  FastMapOptions options;
  options.dims = 2;
  FastMapModel model = BuildFastMap(s.oracle, s.db_ids, options);
  L2Scorer scorer;
  EmbeddedDatabase db = EmbedDatabase(model, s.oracle, s.db_ids);
  EmbeddedDatabase reference = db;
  RetrievalEngine engine(&model, &scorer, &db, s.db_ids);

  // Remove an id whose row gets recycled by the swap, then re-insert it:
  // it must land in a fresh row with its original embedding, and the id
  // must be unique again (a second insert is rejected).
  ASSERT_TRUE(engine.Remove(3).ok());
  EXPECT_EQ(engine.size(), 11u);
  auto dx = [&](size_t o) { return o == 3 ? 0.0 : s.oracle.Distance(3, o); };
  ASSERT_TRUE(engine.Insert(3, dx).ok());
  EXPECT_EQ(engine.size(), 12u);
  ExpectConsistentMapping(engine, reference);
  Status dup = engine.Insert(3, dx);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);

  // Remove/re-insert cycling through the *last* row too.
  size_t last_id = engine.db().id_of(engine.size() - 1);
  ASSERT_TRUE(engine.Remove(last_id).ok());
  auto dx_last = [&](size_t o) {
    return o == last_id ? 0.0 : s.oracle.Distance(last_id, o);
  };
  ASSERT_TRUE(engine.Insert(last_id, dx_last).ok());
  ExpectConsistentMapping(engine, reference);
}

}  // namespace
}  // namespace qse
