// What is left of the reduced-precision filter scans: there is one scan,
// the exact kExact64 one, prescreened on the int8 matrix every local
// database carries.  The invariants under test:
//
//  * At p = n the filter step cannot drop anything, so both engines (one
//    shard and three) return exactly the brute-force k nearest by the
//    true distance, whatever the int8 matrix dismissed along the way.
//  * kFilter32 / kFilter8 name no scan: a sharded engine rejects them as
//    InvalidArgument, with no construction option that could enable them.
//  * Signed weights A_i(q) scan the same matrices and still return the
//    unpruned exact scan's top p.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "src/distance/simd/dispatch.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "tests/test_util.h"

namespace qse {
namespace {

constexpr size_t kDb = 60;
constexpr size_t kQueries = 6;

struct PrecisionStack {
  ObjectOracle<Vector> oracle;
  std::vector<size_t> db_ids;
  QuerySensitiveEmbedding model;
  QseEmbedderAdapter embedder;
  QuerySensitiveScorer scorer;
  EmbeddedDatabase db;
  RetrievalEngine mono;
  RetrievalEngine sharded;

  static ShardedEngineOptions ShardOptions() {
    ShardedEngineOptions o;
    o.num_shards = 3;
    o.scatter_threads = 1;
    return o;
  }

  PrecisionStack()
      : oracle(test::MakePlaneOracle(kDb + kQueries, 7)),
        db_ids(test::Iota(kDb)),
        model(test::MakeFixedWeightModel(oracle,
                                         {1.0, 0.5, 0.75, 1.25, 0.25, 2.0})),
        embedder(&model),
        scorer(&model),
        db(EmbedDatabase(embedder, oracle, db_ids)),
        mono(&embedder, &scorer, &db, db_ids),
        sharded(&embedder, &scorer, db, db_ids, ShardOptions()) {}

  DxToDatabaseFn QueryDx(size_t query_id) const {
    return [this, query_id](size_t id) {
      return oracle.Distance(query_id, id);
    };
  }
};

TEST(ReducedPrecisionTest, FullScanPEqualsNMatchesExactOnBothEngines) {
  PrecisionStack s;
  constexpr size_t kK = 3;
  for (const RetrievalEngine* engine : {&s.mono, &s.sharded}) {
    for (size_t shard = 0; shard < engine->num_shards(); ++shard) {
      ASSERT_TRUE(engine->db(shard).snapshot()->has_i8()) << shard;
    }
    for (size_t q = kDb; q < kDb + kQueries; ++q) {
      std::vector<double> dx(kDb);
      for (size_t id = 0; id < kDb; ++id) dx[id] = s.oracle.Distance(q, id);
      const std::vector<ScoredIndex> want = SmallestK(dx, kK);
      RetrievalOptions ro(kK, kDb);
      ro.filter_precision = FilterPrecision::kExact64;
      auto got = engine->Retrieve({s.QueryDx(q), ro});
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->neighbors, want)
          << "S=" << engine->num_shards() << " q=" << q;
    }
  }
}

TEST(ReducedPrecisionTest, ShardedConstructionWithoutShadowsRejectsReduced) {
  PrecisionStack s;
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.scatter_threads = 1;
  RetrievalEngine bare(&s.embedder, &s.scorer, s.db, s.db_ids, options);
  for (FilterPrecision precision :
       {FilterPrecision::kFilter32, FilterPrecision::kFilter8}) {
    RetrievalOptions ro(1, 5);
    ro.filter_precision = precision;
    auto r = bare.Retrieve({s.QueryDx(kDb), ro});
    ASSERT_FALSE(r.ok()) << FilterPrecisionName(precision);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << r.status();
    EXPECT_NE(r.status().message().find(FilterPrecisionName(precision)),
              std::string::npos)
        << r.status();
  }
  // The same engine serves the exact scan.
  auto exact = bare.Retrieve({s.QueryDx(kDb), RetrievalOptions(1, 5)});
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_EQ(exact->neighbors.size(), 1u);
}

// A query with a negative A_i(q) scans the int8 matrix too: the top p
// is the unpruned float64 scan's, scores included.
TEST(ReducedPrecisionTest, SignedWeightsScanTheShadowMatrices) {
  constexpr size_t kP = 10;
  ObjectOracle<Vector> oracle = test::MakePlaneOracle(kDb + kQueries, 21);
  QuerySensitiveEmbedding model = test::MakeFixedWeightModel(
      oracle, {1.0, -0.5, 0.75, 1.25, -0.25, 0.5, 2.0});
  QseEmbedderAdapter embedder(&model);
  EmbeddedDatabase db = EmbedDatabase(embedder, oracle, test::Iota(kDb));
  const EmbeddedDatabase::View view = db;
  ASSERT_TRUE(view.has_i8());
  const size_t d = view.dims();
  const simd::KernelTable* k = simd::ActiveKernels();
  QuerySensitiveScorer scorer(&model);
  for (size_t q = kDb; q < kDb + kQueries; ++q) {
    Vector fq = model.Embed(
        [&](size_t id) { return oracle.Distance(q, id); });
    Vector w = model.QueryWeights(fq);
    ASSERT_TRUE(std::any_of(w.begin(), w.end(),
                            [](double v) { return v < 0.0; }));
    std::vector<double> full(kDb);
    for (size_t i = 0; i < kDb; ++i) {
      full[i] = k->wl1_f64(fq.data(), view.row(i), w.data(), d,
                           std::numeric_limits<double>::infinity());
    }
    FilterScanStats stats;
    EXPECT_EQ(scorer.ScoreTopP(fq, view, kP, FilterPrecision::kExact64,
                               &stats),
              SmallestK(full, kP))
        << "q=" << q;
    EXPECT_EQ(stats.rows_visited, kDb) << "q=" << q;
    EXPECT_EQ(WeightedL1TopP(fq, w, view, kP, /*prescreen=*/false, k,
                             nullptr),
              SmallestK(full, kP))
        << "q=" << q;
  }
}

}  // namespace
}  // namespace qse
