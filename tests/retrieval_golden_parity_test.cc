// Golden parity: the RetrievalRequest/RetrievalResponse redesign must
// not move a single bit of any result.  tests/golden_retrieval.inc holds
// results recorded from the PRE-redesign Retrieve(dx, k, p) API over a
// deterministic workload; every post-redesign surface — the engine over
// one shard and over three, RetrieveBatch on both, and the async server
// — must reproduce them exactly: same database ids, same IEEE-754 score
// bit patterns, same cost accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/distance/lp.h"
#include "src/embedding/fastmap.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/server/async_retrieval_server.h"
#include "src/util/random.h"

namespace qse {
namespace {

struct GoldenNeighbor {
  size_t db_id;
  uint64_t score_bits;
};

struct GoldenCase {
  size_t query_id;
  size_t k;
  size_t p;
  size_t exact_distances;
  size_t embedding_distances;
  size_t num_neighbors;
  GoldenNeighbor neighbors[3];
};

#include "tests/golden_retrieval.inc"

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// The exact workload the goldens were recorded over (same seeds, same
/// construction order — any drift here fails every case loudly).
struct GoldenStack {
  static constexpr size_t kDb = 72;
  static constexpr size_t kQueries = 8;
  static constexpr uint64_t kSeed = 2026;

  ObjectOracle<Vector> oracle;
  std::vector<size_t> db_ids;
  FastMapModel model;
  L2Scorer scorer;
  EmbeddedDatabase db;
  RetrievalEngine mono;
  RetrievalEngine sharded;

  static ObjectOracle<Vector> MakeOracle() {
    Rng rng(kSeed);
    std::vector<Vector> pts;
    for (size_t i = 0; i < kDb + kQueries; ++i) {
      pts.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
    }
    return ObjectOracle<Vector>(std::move(pts), L2Distance);
  }

  static std::vector<size_t> Iota(size_t n) {
    std::vector<size_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0);
    return ids;
  }

  static FastMapModel MakeModel(const ObjectOracle<Vector>& oracle,
                                const std::vector<size_t>& db_ids) {
    FastMapOptions fm;
    fm.dims = 3;
    fm.seed = kSeed + 1;
    return BuildFastMap(oracle, db_ids, fm);
  }

  static ShardedEngineOptions ShardOptions() {
    ShardedEngineOptions o;
    o.num_shards = 3;
    o.scatter_threads = 1;
    return o;
  }

  GoldenStack()
      : oracle(MakeOracle()),
        db_ids(Iota(kDb)),
        model(MakeModel(oracle, db_ids)),
        db(EmbedDatabase(model, oracle, db_ids)),
        mono(&model, &scorer, &db, db_ids),
        sharded(&model, &scorer, db, db_ids, ShardOptions()) {}

  DxToDatabaseFn QueryDx(size_t query_id) const {
    return [this, query_id](size_t id) {
      return oracle.Distance(query_id, id);
    };
  }
};

/// Compares one response to one golden record.
void ExpectMatchesGolden(const RetrievalResponse& got, const GoldenCase& want,
                         const std::string& context) {
  EXPECT_EQ(got.exact_distances, want.exact_distances) << context;
  EXPECT_EQ(got.embedding_distances, want.embedding_distances) << context;
  ASSERT_EQ(got.neighbors.size(), want.num_neighbors) << context;
  for (size_t i = 0; i < want.num_neighbors; ++i) {
    EXPECT_EQ(got.neighbors[i].index, want.neighbors[i].db_id)
        << context << " i=" << i;
    EXPECT_EQ(Bits(got.neighbors[i].score), want.neighbors[i].score_bits)
        << context << " i=" << i;
  }
}

TEST(GoldenParityTest, SingleRetrieveMatchesPreRedesignOnBothEngines) {
  GoldenStack s;
  for (const GoldenCase& c : kGoldenCases) {
    RetrievalRequest request{s.QueryDx(c.query_id),
                             RetrievalOptions(c.k, c.p)};
    std::string context = "q=" + std::to_string(c.query_id) +
                          " k=" + std::to_string(c.k) +
                          " p=" + std::to_string(c.p);
    auto mono = s.mono.Retrieve(request);
    ASSERT_TRUE(mono.ok()) << mono.status();
    ExpectMatchesGolden(*mono, c, "mono " + context);
    auto sharded = s.sharded.Retrieve(request);
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    ExpectMatchesGolden(*sharded, c, "sharded " + context);
  }
}

TEST(GoldenParityTest, RetrieveBatchMatchesPreRedesignOnBothEngines) {
  GoldenStack s;
  // Group golden cases by (k, p): one RetrieveBatch per group, queries
  // in recorded order.
  for (size_t k : {size_t{1}, size_t{3}}) {
    for (size_t p : {size_t{1}, size_t{7}, GoldenStack::kDb}) {
      std::vector<DxToDatabaseFn> queries;
      std::vector<const GoldenCase*> expected;
      for (const GoldenCase& c : kGoldenCases) {
        if (c.k != k || c.p != p) continue;
        queries.push_back(s.QueryDx(c.query_id));
        expected.push_back(&c);
      }
      ASSERT_EQ(queries.size(), GoldenStack::kQueries);
      auto mono = s.mono.RetrieveBatch(queries, RetrievalOptions(k, p));
      auto sharded = s.sharded.RetrieveBatch(queries, RetrievalOptions(k, p));
      ASSERT_TRUE(mono.ok() && sharded.ok());
      for (size_t i = 0; i < expected.size(); ++i) {
        std::string context =
            "batch q=" + std::to_string(expected[i]->query_id);
        ExpectMatchesGolden((*mono)[i], *expected[i], "mono " + context);
        ExpectMatchesGolden((*sharded)[i], *expected[i],
                            "sharded " + context);
      }
    }
  }
}

TEST(GoldenParityTest, ExplicitExact64PrecisionMatchesPreRedesign) {
  // The SIMD-dispatch PR's contract: FilterPrecision::kExact64 (the
  // default, here passed explicitly) is bit-identical to the pre-dispatch
  // engine whatever ISA tier the process resolved — and the int8
  // prescreen every local shard runs does not perturb it either.
  GoldenStack s;
  RetrievalEngine mono(&s.model, &s.scorer, &s.db, s.db_ids);
  for (const GoldenCase& c : kGoldenCases) {
    RetrievalOptions options(c.k, c.p);
    options.filter_precision = FilterPrecision::kExact64;
    RetrievalRequest request{s.QueryDx(c.query_id), options};
    std::string context = "exact64 q=" + std::to_string(c.query_id) +
                          " k=" + std::to_string(c.k) +
                          " p=" + std::to_string(c.p);
    auto got = mono.Retrieve(request);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectMatchesGolden(*got, c, context);
    auto sharded = s.sharded.Retrieve(request);
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    ExpectMatchesGolden(*sharded, c, "sharded " + context);
  }
}

TEST(GoldenParityTest, AsyncServerMatchesPreRedesignOnBothEngines) {
  GoldenStack s;
  const RetrievalBackend* backends[] = {&s.mono, &s.sharded};
  for (const RetrievalBackend* backend : backends) {
    AsyncServerOptions options;
    options.num_workers = 2;
    AsyncRetrievalServer server(backend, options);
    std::vector<Future<StatusOr<RetrievalResponse>>> futures;
    for (const GoldenCase& c : kGoldenCases) {
      futures.push_back(
          server.Submit({s.QueryDx(c.query_id), RetrievalOptions(c.k, c.p)}));
    }
    server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
    size_t i = 0;
    for (const GoldenCase& c : kGoldenCases) {
      const auto& got = futures[i++].Get();
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectMatchesGolden(*got, c,
                          "server q=" + std::to_string(c.query_id) +
                              " k=" + std::to_string(c.k) +
                              " p=" + std::to_string(c.p));
    }
  }
}

}  // namespace
}  // namespace qse
