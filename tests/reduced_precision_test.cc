// Reduced-precision filter scans end to end: requests carrying
// FilterPrecision::kFilter32 / kFilter8 against databases that carry the
// matching shadow matrices.  The structural invariants under test:
//
//  * Refine is always exact — whatever precision filtered, every
//    reported neighbor score is the true distance dx(query, id).
//  * At p = n the filter step cannot drop anything, so EVERY precision
//    returns results identical to exact64 (reduced precision only
//    perturbs which top-p candidates survive a p < n cut).
//  * kFilter32 is deterministic across shard counts: one shard and
//    three see identical float32 shadows and bit-identical kernels, so
//    their responses match at any p.  (kFilter8 has
//    per-shard quantization scales, so its cross-engine guarantee is
//    the p = n one above.)
//  * Shadow maintenance is live: inserts after construction keep serving
//    reduced-precision requests correctly on both engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "src/distance/simd/dispatch.h"
#include "src/embedding/fastmap.h"
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
  FastMapModel model;
  L2Scorer scorer;
  EmbeddedDatabase db;
  RetrievalEngine mono;
  RetrievalEngine sharded;

  static ShardedEngineOptions ShardOptions() {
    ShardedEngineOptions o;
    o.num_shards = 3;
    o.scatter_threads = 1;
    o.filter_shadows = kShadowFloat32 | kShadowInt8;
    return o;
  }

  PrecisionStack()
      : oracle(test::MakePlaneOracle(kDb + kQueries, 7)),
        db_ids(test::Iota(kDb)),
        model([this] {
          FastMapOptions o;
          o.dims = 4;
          return BuildFastMap(oracle, db_ids, o);
        }()),
        db(EmbedDatabase(model, oracle, db_ids)),
        mono([this] {
          db.EnableFilterShadows(kShadowFloat32 | kShadowInt8);
          return RetrievalEngine(&model, &scorer, &db, db_ids);
        }()),
        sharded(&model, &scorer, db, db_ids, ShardOptions()) {}

  DxToDatabaseFn QueryDx(size_t query_id) const {
    return [this, query_id](size_t id) {
      return oracle.Distance(query_id, id);
    };
  }
};

TEST(ReducedPrecisionTest, NeighborScoresAreExactWhateverThePrecision) {
  PrecisionStack s;
  for (FilterPrecision precision :
       {FilterPrecision::kExact64, FilterPrecision::kFilter32,
        FilterPrecision::kFilter8}) {
    for (size_t q = kDb; q < kDb + kQueries; ++q) {
      RetrievalOptions ro(3, 20);
      ro.filter_precision = precision;
      auto r = s.mono.Retrieve({s.QueryDx(q), ro});
      ASSERT_TRUE(r.ok()) << r.status();
      ASSERT_FALSE(r->neighbors.empty());
      for (const ScoredIndex& n : r->neighbors) {
        EXPECT_EQ(n.score, s.oracle.Distance(q, n.index))
            << FilterPrecisionName(precision) << " q=" << q;
      }
    }
  }
}

TEST(ReducedPrecisionTest, FullScanPEqualsNMatchesExactOnBothEngines) {
  PrecisionStack s;
  for (const RetrievalEngine* engine : {&s.mono, &s.sharded}) {
    for (size_t q = kDb; q < kDb + kQueries; ++q) {
      auto want = engine->Retrieve({s.QueryDx(q), RetrievalOptions(3, kDb)});
      ASSERT_TRUE(want.ok());
      for (FilterPrecision precision :
           {FilterPrecision::kFilter32, FilterPrecision::kFilter8}) {
        RetrievalOptions ro(3, kDb);
        ro.filter_precision = precision;
        auto got = engine->Retrieve({s.QueryDx(q), ro});
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(got->neighbors, want->neighbors)
            << "S=" << engine->num_shards() << " "
            << FilterPrecisionName(precision) << " q=" << q;
      }
    }
  }
}

TEST(ReducedPrecisionTest, Filter32AgreesAcrossEnginesAtAnyP) {
  PrecisionStack s;
  for (size_t p : {size_t{5}, size_t{17}, size_t{40}}) {
    for (size_t q = kDb; q < kDb + kQueries; ++q) {
      RetrievalOptions ro(3, p);
      ro.filter_precision = FilterPrecision::kFilter32;
      auto mono = s.mono.Retrieve({s.QueryDx(q), ro});
      auto sharded = s.sharded.Retrieve({s.QueryDx(q), ro});
      ASSERT_TRUE(mono.ok() && sharded.ok());
      EXPECT_EQ(mono->neighbors, sharded->neighbors) << "p=" << p << " q=" << q;
    }
  }
}

TEST(ReducedPrecisionTest, InsertsKeepShadowsServingOnBothEngines) {
  PrecisionStack s;
  // Half the database again, inserted online after construction — the
  // shadow matrices must follow every append (including forced
  // re-quantizations) in whichever shard each insert lands in.
  const size_t n = kDb + kQueries;
  for (RetrievalEngine* engine : {&s.mono, &s.sharded}) {
    for (size_t id = kDb; id < n; ++id) {
      ASSERT_TRUE(engine->Insert(id, s.QueryDx(id)).ok());
    }
    for (FilterPrecision precision :
         {FilterPrecision::kFilter32, FilterPrecision::kFilter8}) {
      RetrievalOptions ro(1, n);
      ro.filter_precision = precision;
      // Query each inserted object for itself: distance 0 is unbeatable,
      // so the top neighbor must be the fresh row — through the shadows.
      for (size_t id = kDb; id < n; ++id) {
        auto got = engine->Retrieve({s.QueryDx(id), ro});
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(got->neighbors[0].index, id)
            << "S=" << engine->num_shards() << " "
            << FilterPrecisionName(precision);
        EXPECT_EQ(got->neighbors[0].score, 0.0);
      }
    }
  }
}

TEST(ReducedPrecisionTest, SameResultKeySeparatesPrecisions) {
  RetrievalOptions a(3, 20), b(3, 20);
  EXPECT_TRUE(a.SameResultKey(b));
  b.filter_precision = FilterPrecision::kFilter32;
  EXPECT_FALSE(a.SameResultKey(b));
  a.filter_precision = FilterPrecision::kFilter32;
  EXPECT_TRUE(a.SameResultKey(b));
}

TEST(ReducedPrecisionTest, ShardedConstructionWithoutShadowsRejectsReduced) {
  PrecisionStack s;
  ShardedEngineOptions no_shadows;
  no_shadows.num_shards = 2;
  no_shadows.scatter_threads = 1;
  RetrievalEngine bare(&s.model, &s.scorer, s.db, s.db_ids, no_shadows);
  RetrievalOptions ro(1, 5);
  ro.filter_precision = FilterPrecision::kFilter8;
  auto r = bare.Retrieve({s.QueryDx(kDb), ro});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().message().find("filter_shadows"), std::string::npos)
      << r.status();
}

// A query with a negative A_i(q) must still scan the shadow it asked
// for: the returned scores are the shadow kernel's, and the list is the
// unpruned shadow scan's top p.
TEST(ReducedPrecisionTest, SignedWeightsScanTheShadowMatrices) {
  constexpr size_t kP = 10;
  ObjectOracle<Vector> oracle = test::MakePlaneOracle(kDb + kQueries, 21);
  QuerySensitiveEmbedding model = test::MakeFixedWeightModel(
      oracle, {1.0, -0.5, 0.75, 1.25, -0.25, 0.5, 2.0});
  QseEmbedderAdapter embedder(&model);
  EmbeddedDatabase db = EmbedDatabase(embedder, oracle, test::Iota(kDb));
  db.EnableFilterShadows(kShadowFloat32 | kShadowInt8);
  const EmbeddedDatabase::View view = db;
  const size_t d = view.dims();
  const simd::KernelTable* k = simd::ActiveKernels();
  QuerySensitiveScorer scorer(&model);
  for (size_t q = kDb; q < kDb + kQueries; ++q) {
    Vector fq = model.Embed(
        [&](size_t id) { return oracle.Distance(q, id); });
    Vector w = model.QueryWeights(fq);
    ASSERT_TRUE(std::any_of(w.begin(), w.end(),
                            [](double v) { return v < 0.0; }));
    // The shadow scores the scorer's kernels produce for every row.
    std::vector<float> qf(fq.begin(), fq.end()), wf(w.begin(), w.end());
    std::vector<int8_t> qq(d);
    std::vector<float> c(d);
    for (size_t j = 0; j < d; ++j) {
      qq[j] = QuantizeToInt8(fq[j], view.i8_scales()[j]);
      c[j] = static_cast<float>(w[j] *
                                static_cast<double>(view.i8_scales()[j]));
    }
    std::vector<double> f32_scores(kDb), i8_scores(kDb);
    for (size_t i = 0; i < kDb; ++i) {
      f32_scores[i] = k->wl1_f32(qf.data(), view.row_f32(i), wf.data(), d,
                                 std::numeric_limits<float>::infinity());
      i8_scores[i] = k->wl1_i8(qq.data(), view.row_i8(i), c.data(), d,
                               std::numeric_limits<float>::infinity());
    }
    EXPECT_EQ(scorer.ScoreTopP(fq, view, kP, FilterPrecision::kFilter32),
              SmallestK(f32_scores, kP))
        << "q=" << q;
    EXPECT_EQ(scorer.ScoreTopP(fq, view, kP, FilterPrecision::kFilter8),
              SmallestK(i8_scores, kP))
        << "q=" << q;
  }
}

}  // namespace
}  // namespace qse
