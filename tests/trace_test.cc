// Tests for per-request trace spans: deterministic span recording under
// a fake clock, span-coverage math, Chrome trace_event JSON structure,
// and the end-to-end acceptance path — one sampled request through the
// async server over a sharded engine must come back with a trace whose
// spans cover >= 95% of the wall-clock between admit and completion.

#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/embedding/fastmap.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/server/async_retrieval_server.h"
#include "src/util/timer.h"
#include "tests/test_util.h"

namespace qse {
namespace obs {
namespace {

using namespace std::chrono_literals;

bool HasSpan(const std::vector<TraceSpan>& spans, const std::string& name) {
  for (const TraceSpan& s : spans) {
    if (name == s.name) return true;
  }
  return false;
}

// --- RequestTrace under a fake clock (exact timestamps) -----------------

TEST(RequestTraceTest, SpansAreExactUnderFakeClock) {
  ScopedFakeClock fake;
  RequestTrace trace;
  EXPECT_EQ(trace.NowNs(), 0u);

  uint64_t start = trace.NowNs();
  fake.clock().Advance(5ms);
  trace.CloseSpan("work", start,
                  {TraceArg{"rows", 42, nullptr},
                   TraceArg{"kind", 0, "scan"}});

  std::vector<TraceSpan> spans = trace.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "work");
  EXPECT_EQ(spans[0].start_ns, 0u);
  EXPECT_EQ(spans[0].dur_ns, 5000000u);
  ASSERT_EQ(spans[0].args.size(), 2u);
  EXPECT_EQ(spans[0].args[0].int_value, 42);
  EXPECT_STREQ(spans[0].args[1].str_value, "scan");
}

TEST(RequestTraceTest, ThisThreadIdIsSmallAndStable) {
  uint32_t id = RequestTrace::ThisThreadId();
  EXPECT_EQ(RequestTrace::ThisThreadId(), id);
  EXPECT_GT(id, 0u);
}

#ifndef QSE_DISABLE_TRACING
TEST(RequestTraceTest, NullTraceIsNoOpEverywhere) {
  // The untraced hot path: every helper must tolerate nullptr.
  EXPECT_EQ(TraceNowNs(nullptr), 0u);
  TraceMark(nullptr, "ignored", 0);
  TraceMarkUntil(nullptr, "ignored", 0, 1);
  TraceAddSpan(nullptr, TraceSpan{});
}
#endif  // QSE_DISABLE_TRACING

// --- SpanCoverage -------------------------------------------------------

TraceSpan MakeSpan(const char* name, uint64_t start_ns, uint64_t dur_ns) {
  TraceSpan s;
  s.name = name;
  s.start_ns = start_ns;
  s.dur_ns = dur_ns;
  return s;
}

TEST(SpanCoverageTest, FullCoverageIsOne) {
  std::vector<TraceSpan> spans = {
      MakeSpan("request", 0, 100),
      MakeSpan("a", 0, 60),
      MakeSpan("b", 60, 40),
  };
  EXPECT_DOUBLE_EQ(SpanCoverage(spans), 1.0);
}

TEST(SpanCoverageTest, GapsLowerCoverage) {
  std::vector<TraceSpan> spans = {
      MakeSpan("request", 0, 100),
      MakeSpan("a", 0, 25),
      MakeSpan("b", 75, 25),
  };
  EXPECT_DOUBLE_EQ(SpanCoverage(spans), 0.5);
}

TEST(SpanCoverageTest, OverlapsCountOnce) {
  std::vector<TraceSpan> spans = {
      MakeSpan("request", 0, 100),
      MakeSpan("a", 0, 80),
      MakeSpan("b", 40, 60),   // overlaps a; union is [0, 100)
      MakeSpan("c", 50, 10),   // nested inside both
  };
  EXPECT_DOUBLE_EQ(SpanCoverage(spans), 1.0);
}

TEST(SpanCoverageTest, SpansOutsideDenominatorAreClipped) {
  std::vector<TraceSpan> spans = {
      MakeSpan("request", 100, 100),
      MakeSpan("warmup", 0, 100),     // entirely before: contributes 0
      MakeSpan("a", 50, 100),         // half inside
  };
  EXPECT_DOUBLE_EQ(SpanCoverage(spans), 0.5);
}

TEST(SpanCoverageTest, MissingOrEmptyDenominatorIsZero) {
  EXPECT_DOUBLE_EQ(SpanCoverage({MakeSpan("a", 0, 10)}), 0.0);
  EXPECT_DOUBLE_EQ(
      SpanCoverage({MakeSpan("request", 5, 0), MakeSpan("a", 0, 10)}), 0.0);
}

// --- Chrome trace JSON --------------------------------------------------

TEST(ChromeTraceJsonTest, GoldenStructure) {
  ScopedFakeClock fake;
  RequestTrace trace;
  uint64_t start = trace.NowNs();
  fake.clock().Advance(1500us);
  trace.CloseSpan("embed", start,
                  {TraceArg{"rows", 3, nullptr},
                   TraceArg{"simd", 0, "avx2"}});
  std::string json = trace.ChromeTraceJson();

  // The envelope chrome://tracing and Perfetto expect.
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Complete events with microsecond timestamps: 1.5ms -> dur 1500.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"embed\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"qse\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":0"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1500"), std::string::npos);
  // Args carry both integer and string values.
  EXPECT_NE(json.find("\"rows\":3"), std::string::npos);
  EXPECT_NE(json.find("\"simd\":\"avx2\""), std::string::npos);
  // Braces balance (cheap well-formedness check without a JSON parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// --- End-to-end: a sampled request through the sharded server -----------

/// Minimal serving stack: plane points under L2, FastMap-embedded,
/// sharded 3 ways (the acceptance path exercises the scatter spans).
struct TraceStack {
  ObjectOracle<Vector> oracle;
  std::vector<size_t> db_ids;
  std::vector<size_t> query_ids;
  FastMapModel model;
  L2Scorer scorer;
  EmbeddedDatabase db;
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

  TraceStack()
      : oracle(test::MakePlaneOracle(70, 29)),
        db_ids(test::Iota(60)),
        query_ids(test::Iota(10, 60)),
        model(BuildModel(oracle, db_ids)),
        db(EmbedDatabase(model, oracle, db_ids)),
        sharded(&model, &scorer, db, db_ids, ShardOptions()) {}

  DxToDatabaseFn QueryDx(size_t query_id) const {
    return [this, query_id](size_t id) {
      return oracle.Distance(query_id, id);
    };
  }
};

TEST(EndToEndTraceTest, SampledShardedServerRequestCoversItsWallClock) {
#ifdef QSE_DISABLE_TRACING
  GTEST_SKIP() << "tracing compiled out (QSE_DISABLE_TRACING)";
#else
  TraceStack s;
  AsyncServerOptions options;
  options.trace_every_n = 1;  // Sample every request.
  AsyncRetrievalServer server(&s.sharded, options);

  auto got = server.Retrieve({s.QueryDx(s.query_ids[0]),
                              RetrievalOptions(3, 10)});
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_NE(got.value().trace, nullptr)
      << "a sampled request must return its trace on the response";

  // The acceptance bar: spans account for >= 95% of the wall-clock
  // between admit and completion — no invisible stage in the pipeline.
  // A sub-millisecond request can lose more than 5% to one unlucky OS
  // preemption between adjacent stamps on a loaded host, so take the
  // best of a few attempts; a systematic coverage hole fails them all.
  double best_coverage = SpanCoverage(got.value().trace->spans());
  for (int attempt = 0; attempt < 4 && best_coverage < 0.95; ++attempt) {
    auto retry = server.Retrieve({s.QueryDx(s.query_ids[0]),
                                  RetrievalOptions(3, 10)});
    ASSERT_TRUE(retry.ok()) << retry.status();
    ASSERT_NE(retry.value().trace, nullptr);
    best_coverage =
        std::max(best_coverage, SpanCoverage(retry.value().trace->spans()));
  }
  EXPECT_GE(best_coverage, 0.95);

  std::vector<TraceSpan> spans = got.value().trace->spans();
  // Server pipeline stages...
  for (const char* name :
       {"admit", "queue", "execute", "request"}) {
    EXPECT_TRUE(HasSpan(spans, name)) << "missing span: " << name;
  }
  // ...and engine stages, including one scan span per shard.
  for (const char* name : {"embed", "shard_scan", "merge", "refine"}) {
    EXPECT_TRUE(HasSpan(spans, name)) << "missing span: " << name;
  }
  size_t shard_scans = 0;
  size_t total_rows = 0;
  for (const TraceSpan& span : spans) {
    if (std::string("shard_scan") == span.name) {
      ++shard_scans;
      for (const TraceArg& arg : span.args) {
        if (std::string("rows") == arg.key) {
          total_rows += static_cast<size_t>(arg.int_value);
        }
      }
    }
  }
  EXPECT_EQ(shard_scans, s.sharded.num_shards());
  EXPECT_EQ(total_rows, s.sharded.size())
      << "shard_scan rows args must tile the database";

  // The same trace exports as loadable Chrome JSON naming every stage.
  std::string json = got.value().trace->ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (const char* name : {"request", "shard_scan", "merge", "refine"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << name;
  }

  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
#endif  // QSE_DISABLE_TRACING
}

TEST(EndToEndTraceTest, EngineStageSpansTileTheEngine) {
#ifdef QSE_DISABLE_TRACING
  GTEST_SKIP() << "tracing compiled out (QSE_DISABLE_TRACING)";
#else
  // The engine's stages alone, without the server's spans around them:
  // embed, every shard_scan, merge and refine must cover the interval
  // from embed's start to refine's end, with serial and with parallel
  // shard scans.  The stages share their boundary stamps, so a gap means
  // a stage stopped meeting its neighbour, not a slow host.
  TraceStack s;
  for (size_t threads : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE(threads);
    ShardedEngineOptions options = TraceStack::ShardOptions();
    options.scatter_threads = threads;
    RetrievalEngine engine(&s.model, &s.scorer, s.db, s.db_ids, options);
    RetrievalRequest request;
    request.dx = s.QueryDx(s.query_ids[1]);
    request.options = RetrievalOptions(3, 10);
    request.trace = std::make_shared<RequestTrace>();
    auto got = engine.Retrieve(request);
    ASSERT_TRUE(got.ok()) << got.status();

    std::vector<TraceSpan> stages;
    for (const TraceSpan& span : request.trace->spans()) {
      for (const char* name : {"embed", "shard_scan", "merge", "refine"}) {
        if (name == std::string(span.name)) stages.push_back(span);
      }
    }
    ASSERT_EQ(stages.size(), 3 + engine.num_shards());
    uint64_t lo = UINT64_MAX;
    uint64_t hi = 0;
    for (const TraceSpan& span : stages) {
      lo = std::min(lo, span.start_ns);
      hi = std::max(hi, span.start_ns + span.dur_ns);
    }
    ASSERT_GT(hi, lo);
    stages.push_back(MakeSpan("engine", lo, hi - lo));
    EXPECT_GE(SpanCoverage(stages, "engine"), 0.95);
  }
#endif  // QSE_DISABLE_TRACING
}

TEST(EndToEndTraceTest, SampledRequestRecordsOneSpanPerStage) {
#ifdef QSE_DISABLE_TRACING
  GTEST_SKIP() << "tracing compiled out (QSE_DISABLE_TRACING)";
#else
  // What sampling costs a request, in spans: one per server and engine
  // stage, one scan span per shard, and nothing per row or candidate.
  TraceStack s;
  AsyncServerOptions options;
  options.trace_every_n = 1;
  AsyncRetrievalServer server(&s.sharded, options);
  std::map<std::string, size_t> want;
  for (const char* stage :
       {"admit", "queue", "execute", "request", "embed", "merge", "refine"}) {
    want[stage] = 1;
  }
  want["shard_scan"] = s.sharded.num_shards();
  for (size_t p : {size_t{3}, size_t{10}, size_t{60}}) {
    auto got =
        server.Retrieve({s.QueryDx(s.query_ids[2]), RetrievalOptions(3, p)});
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_NE(got.value().trace, nullptr);
    std::map<std::string, size_t> per_stage;
    for (const TraceSpan& span : got.value().trace->spans()) {
      ++per_stage[span.name];
    }
    EXPECT_EQ(per_stage, want) << "p = " << p;
  }
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
#endif  // QSE_DISABLE_TRACING
}

TEST(EndToEndTraceTest, UnsampledRequestsCarryNoTrace) {
  TraceStack s;
  AsyncServerOptions options;
  options.trace_every_n = 0;  // Sampling off.
  AsyncRetrievalServer server(&s.sharded, options);
  auto got = server.Retrieve({s.QueryDx(s.query_ids[1]),
                              RetrievalOptions(3, 10)});
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value().trace, nullptr);
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
}

TEST(EndToEndTraceTest, EveryNthSamplingTracesOnlyTheNth) {
#ifdef QSE_DISABLE_TRACING
  GTEST_SKIP() << "tracing compiled out (QSE_DISABLE_TRACING)";
#else
  TraceStack s;
  AsyncServerOptions options;
  options.trace_every_n = 3;
  AsyncRetrievalServer server(&s.sharded, options);
  size_t traced = 0;
  for (size_t i = 0; i < 6; ++i) {
    auto got = server.Retrieve({s.QueryDx(s.query_ids[i % 4]),
                                RetrievalOptions(3, 10)});
    ASSERT_TRUE(got.ok()) << got.status();
    traced += got.value().trace != nullptr ? 1 : 0;
  }
  EXPECT_EQ(traced, 2u);  // Ticks 0 and 3 of 0..5.
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
#endif  // QSE_DISABLE_TRACING
}

}  // namespace
}  // namespace obs
}  // namespace qse
