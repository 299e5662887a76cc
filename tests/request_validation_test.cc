// One parameterized option-validation suite for every query surface —
// the engine over one shard and over three, and the async server over
// both — replacing the per-class copies that used to drift.  Every
// surface must agree: k = 0, p = 0 and any filter precision but exact64
// are InvalidArgument; an empty database is FailedPrecondition; an
// oversized p is clamped to the database size.  The remote client and
// the wire decoder
// refuse reduced precisions too (RemoteSurfaceRejectsReducedPrecision,
// and WireCodecTest for a version-2 frame).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/embedding/fastmap.h"
#include "src/net/remote_backend.h"
#include "src/net/retrieval_server.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/server/async_retrieval_server.h"
#include "tests/test_util.h"

namespace qse {
namespace {

enum class Surface {
  kMono,
  kSharded,
  kServerMono,
  kServerSharded,
};

std::string SurfaceName(const ::testing::TestParamInfo<Surface>& info) {
  switch (info.param) {
    case Surface::kMono:
      return "Mono";
    case Surface::kSharded:
      return "Sharded";
    case Surface::kServerMono:
      return "ServerMono";
    case Surface::kServerSharded:
      return "ServerSharded";
  }
  return "Unknown";
}

class RequestValidationTest : public ::testing::TestWithParam<Surface> {
 protected:
  RequestValidationTest()
      : s_(test::MakePlaneOracle(44, 21)),
        db_ids_(test::Iota(40)),
        model_([this] {
          FastMapOptions o;
          o.dims = 2;
          return BuildFastMap(s_, db_ids_, o);
        }()),
        db_(EmbedDatabase(model_, s_, db_ids_)),
        empty_db_(db_.dims()),
        mono_(&model_, &scorer_, &db_, db_ids_),
        empty_mono_(&model_, &scorer_, &empty_db_, {}),
        sharded_(&model_, &scorer_, db_, db_ids_, ShardOptions()),
        empty_sharded_(&model_, &scorer_, ShardOptions()) {
    server_mono_ = std::make_unique<AsyncRetrievalServer>(&mono_);
    server_sharded_ = std::make_unique<AsyncRetrievalServer>(&sharded_);
    server_empty_ = std::make_unique<AsyncRetrievalServer>(&empty_mono_);
  }

  static ShardedEngineOptions ShardOptions() {
    ShardedEngineOptions o;
    o.num_shards = 3;
    o.scatter_threads = 1;
    return o;
  }

  DxToDatabaseFn QueryDx(size_t query_id) const {
    return [this, query_id](size_t id) { return s_.Distance(query_id, id); };
  }

  /// One request through the parameterized surface.
  StatusOr<RetrievalResponse> Call(const RetrievalRequest& request) {
    switch (GetParam()) {
      case Surface::kMono:
        return mono_.Retrieve(request);
      case Surface::kSharded:
        return sharded_.Retrieve(request);
      case Surface::kServerMono:
        return server_mono_->Retrieve(request);
      case Surface::kServerSharded:
        return server_sharded_->Retrieve(request);
    }
    return Status::Internal("unreachable");
  }

  /// The same request against an EMPTY database behind the same kind of
  /// surface.
  StatusOr<RetrievalResponse> CallEmpty(const RetrievalRequest& request) {
    switch (GetParam()) {
      case Surface::kMono:
        return empty_mono_.Retrieve(request);
      case Surface::kSharded:
        return empty_sharded_.Retrieve(request);
      case Surface::kServerMono:
      case Surface::kServerSharded:
        return server_empty_->Retrieve(request);
    }
    return Status::Internal("unreachable");
  }

  /// A batch through the parameterized surface: RetrieveBatch on the
  /// engines; on the servers, one burst of submits failing like a batch
  /// on the first error.
  StatusOr<std::vector<RetrievalResponse>> CallBatch(
      const std::vector<DxToDatabaseFn>& queries,
      const RetrievalOptions& options) {
    AsyncRetrievalServer* server = nullptr;
    switch (GetParam()) {
      case Surface::kMono:
        return mono_.RetrieveBatch(queries, options);
      case Surface::kSharded:
        return sharded_.RetrieveBatch(queries, options);
      case Surface::kServerMono:
        server = server_mono_.get();
        break;
      case Surface::kServerSharded:
        server = server_sharded_.get();
        break;
    }
    std::vector<Future<StatusOr<RetrievalResponse>>> futures;
    for (const DxToDatabaseFn& dx : queries) {
      futures.push_back(server->Submit({dx, options}));
    }
    std::vector<RetrievalResponse> responses;
    for (Future<StatusOr<RetrievalResponse>>& future : futures) {
      const StatusOr<RetrievalResponse>& r = future.Get();
      QSE_RETURN_IF_ERROR(r.status());
      responses.push_back(r.value());
    }
    return responses;
  }

  ObjectOracle<Vector> s_;
  std::vector<size_t> db_ids_;
  FastMapModel model_;
  L2Scorer scorer_;
  EmbeddedDatabase db_;
  EmbeddedDatabase empty_db_;
  RetrievalEngine mono_;
  RetrievalEngine empty_mono_;
  RetrievalEngine sharded_;
  RetrievalEngine empty_sharded_;
  std::unique_ptr<AsyncRetrievalServer> server_mono_;
  std::unique_ptr<AsyncRetrievalServer> server_sharded_;
  std::unique_ptr<AsyncRetrievalServer> server_empty_;
};

TEST_P(RequestValidationTest, KZeroIsInvalidArgument) {
  auto r = Call({QueryDx(40), RetrievalOptions(0, 5)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(RequestValidationTest, PZeroIsInvalidArgument) {
  auto r = Call({QueryDx(40), RetrievalOptions(1, 0)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(RequestValidationTest, EmptyDatabaseIsFailedPrecondition) {
  auto r = CallEmpty({QueryDx(40), RetrievalOptions(1, 5)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_P(RequestValidationTest, OversizedPIsClampedToDatabaseSize) {
  auto huge = Call({QueryDx(41), RetrievalOptions(1, 1000000)});
  auto full = Call({QueryDx(41), RetrievalOptions(1, db_ids_.size())});
  ASSERT_TRUE(huge.ok() && full.ok());
  EXPECT_EQ(huge->exact_distances, full->exact_distances);
  ASSERT_FALSE(huge->neighbors.empty());
  EXPECT_EQ(huge->neighbors[0].index, full->neighbors[0].index);
  EXPECT_EQ(huge->neighbors[0].score, full->neighbors[0].score);
}

TEST_P(RequestValidationTest, BatchValidationMatchesSingle) {
  const std::vector<DxToDatabaseFn> burst = {QueryDx(40), QueryDx(41),
                                             QueryDx(42)};
  auto bad_k = CallBatch(burst, RetrievalOptions(0, 5));
  ASSERT_FALSE(bad_k.ok());
  EXPECT_EQ(bad_k.status().code(), StatusCode::kInvalidArgument);
  auto bad_p = CallBatch(burst, RetrievalOptions(1, 0));
  ASSERT_FALSE(bad_p.ok());
  EXPECT_EQ(bad_p.status().code(), StatusCode::kInvalidArgument);
  RetrievalOptions bad_precision(1, 5);
  bad_precision.filter_precision = FilterPrecision::kFilter8;
  auto bad = CallBatch(burst, bad_precision);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  auto good = CallBatch(burst, RetrievalOptions(2, 10));
  ASSERT_TRUE(good.ok()) << good.status();
  ASSERT_EQ(good->size(), burst.size());
  for (size_t i = 0; i < burst.size(); ++i) {
    auto single = Call({burst[i], RetrievalOptions(2, 10)});
    ASSERT_TRUE(single.ok()) << single.status();
    EXPECT_EQ((*good)[i].neighbors, single->neighbors) << i;
  }
}

TEST_P(RequestValidationTest, InvalidFilterPrecisionIsInvalidArgument) {
  RetrievalOptions ro(1, 5);
  ro.filter_precision = static_cast<FilterPrecision>(99);
  auto r = Call({QueryDx(40), ro});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("filter_precision"), std::string::npos);
}

TEST_P(RequestValidationTest, ReducedPrecisionWithoutShadowsFailsCleanly) {
  // No database carries a float32 or int8 shadow to scan lossily: the
  // int8 matrix only prescreens the exact scan, which is lossless.  A
  // reduced precision is not a scan at all, so it is a validation error
  // on every surface, batched or not, before anything is embedded.
  for (FilterPrecision p :
       {FilterPrecision::kFilter32, FilterPrecision::kFilter8}) {
    RetrievalOptions ro(1, 5);
    ro.filter_precision = p;
    auto r = Call({QueryDx(40), ro});
    ASSERT_FALSE(r.ok()) << FilterPrecisionName(p);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << FilterPrecisionName(p);
    EXPECT_NE(r.status().message().find(FilterPrecisionName(p)),
              std::string::npos)
        << r.status();
    auto batch = CallBatch({QueryDx(40), QueryDx(41)}, ro);
    ASSERT_FALSE(batch.ok());
    EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_P(RequestValidationTest, WantStatsReportsIdenticalTotalsEverywhere) {
  // Satellite of the redesign: stats are a response field with one shape
  // — shard_stats rows sum to the database size and candidates sum to
  // the clamped p on every surface.
  RetrievalOptions ro(2, 15);
  ro.want_stats = true;
  auto r = Call({QueryDx(42), ro});
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_FALSE(r->shard_stats.empty());
  size_t rows = 0, candidates = 0;
  for (const ShardScanStats& s : r->shard_stats) {
    rows += s.rows;
    candidates += s.candidates;
  }
  EXPECT_EQ(rows, db_ids_.size());
  EXPECT_EQ(candidates, std::min<size_t>(15, db_ids_.size()));

  // Without want_stats the field stays empty — no silent cost.
  auto quiet = Call({QueryDx(42), RetrievalOptions(2, 15)});
  ASSERT_TRUE(quiet.ok());
  EXPECT_TRUE(quiet->shard_stats.empty());
}

TEST(RequestValidationWireTest, RemoteSurfaceRejectsReducedPrecision) {
  // The remote client validates before it sends (the wire has no
  // precision byte to carry one), for full retrievals and shard scans.
  ObjectOracle<Vector> s = test::MakePlaneOracle(44, 21);
  std::vector<size_t> ids = test::Iota(40);
  FastMapOptions o;
  o.dims = 2;
  FastMapModel model = BuildFastMap(s, ids, o);
  L2Scorer scorer;
  EmbeddedDatabase db = EmbedDatabase(model, s, ids);
  RetrievalEngine engine(&model, &scorer, &db, ids);
  net::RetrievalServer server(&engine, net::RetrievalServerOptions());
  ASSERT_TRUE(server.Start(0).ok());
  net::RemoteRetrievalBackend remote(&model, "127.0.0.1", server.port(),
                                     net::RemoteBackendOptions());
  DxToDatabaseFn dx = [&s](size_t id) { return s.Distance(40, id); };
  ASSERT_TRUE(remote.Retrieve({dx, RetrievalOptions(1, 5)}).ok());
  for (FilterPrecision p :
       {FilterPrecision::kFilter32, FilterPrecision::kFilter8}) {
    RetrievalOptions ro(1, 5);
    ro.filter_precision = p;
    auto r = remote.Retrieve({dx, ro});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    auto scan = remote.ScanCandidates(model.Embed(dx, nullptr), ro);
    ASSERT_FALSE(scan.ok());
    EXPECT_EQ(scan.status().code(), StatusCode::kInvalidArgument);
  }
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(AllSurfaces, RequestValidationTest,
                         ::testing::Values(Surface::kMono, Surface::kSharded,
                                           Surface::kServerMono,
                                           Surface::kServerSharded),
                         SurfaceName);

}  // namespace
}  // namespace qse
