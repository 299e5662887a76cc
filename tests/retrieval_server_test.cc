// End-to-end tests of the multi-node serving tier: a RetrievalServer
// over a real engine, a RemoteRetrievalBackend speaking to it over
// loopback TCP, and the composed RetrievalEngine scattering over
// remote shards.  The headline contract: remote results are
// bit-identical to in-process results at equal p (and, under random
// mutation, to the brute force in retrieval_oracle_test.cc).
#include "src/net/retrieval_server.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/embedding/fastmap.h"
#include "src/net/remote_backend.h"
#include "src/net/wire_codec.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "tests/test_util.h"

namespace qse {
namespace net {
namespace {

/// A full local stack: oracle, embedder, database, engine — the thing a
/// shard server wraps and the reference the tests compare against.
struct Stack {
  ObjectOracle<Vector> oracle;
  std::vector<size_t> db_ids;
  std::vector<size_t> query_ids;
  FastMapModel model;
  L2Scorer scorer;
  EmbeddedDatabase db;
  std::unique_ptr<RetrievalEngine> engine;

  Stack(size_t n_db, size_t n_query, uint64_t seed)
      : oracle(test::MakePlaneOracle(n_db + n_query, seed)),
        db_ids(test::Iota(n_db)),
        query_ids(test::Iota(n_query, n_db)),
        model([&] {
          FastMapOptions options;
          options.dims = 3;
          return BuildFastMap(oracle, test::Iota(n_db), options);
        }()),
        db(EmbedDatabase(model, oracle, db_ids)) {
    engine = std::make_unique<RetrievalEngine>(&model, &scorer, &db, db_ids);
  }

  DxToDatabaseFn QueryDx(size_t query_id) const {
    return [this, query_id](size_t id) {
      return oracle.Distance(query_id, id);
    };
  }
};

TransportOptions FastTransport() {
  TransportOptions options;
  options.connect_timeout = std::chrono::milliseconds(1000);
  options.read_timeout = std::chrono::milliseconds(2000);
  options.write_timeout = std::chrono::milliseconds(2000);
  return options;
}

RetrievalServerOptions ServerOptions() {
  RetrievalServerOptions options;
  options.transport = FastTransport();
  return options;
}

RemoteBackendOptions ClientOptions() {
  RemoteBackendOptions options;
  options.transport = FastTransport();
  return options;
}

TEST(RetrievalServerTest, ComposedShardedEngineMatchesInProcessSharded) {
  // The tentpole acceptance shape in miniature: 2 remote shards behind
  // one composed sharded engine, against the same 2-shard in-process
  // engine; results must be bit-identical at equal p.
  Stack stack(80, 8, 42);
  const size_t kShards = 2;

  // Partition by the same hash the sharded engine uses, preserving
  // ascending id order inside each shard.
  std::vector<std::vector<size_t>> shard_ids(kShards);
  for (size_t id : stack.db_ids) {
    shard_ids[HashShardOf(id, kShards)].push_back(id);
  }

  std::vector<std::unique_ptr<EmbeddedDatabase>> shard_dbs;
  std::vector<std::unique_ptr<RetrievalEngine>> shard_engines;
  std::vector<std::unique_ptr<RetrievalServer>> servers;
  std::vector<std::shared_ptr<RetrievalBackend>> remotes;
  for (size_t s = 0; s < kShards; ++s) {
    shard_dbs.push_back(std::make_unique<EmbeddedDatabase>(
        EmbedDatabase(stack.model, stack.oracle, shard_ids[s])));
    shard_engines.push_back(std::make_unique<RetrievalEngine>(
        &stack.model, &stack.scorer, shard_dbs.back().get(), shard_ids[s]));
    servers.push_back(std::make_unique<RetrievalServer>(
        shard_engines.back().get(), ServerOptions()));
    ASSERT_TRUE(servers.back()->Start(0).ok());
    remotes.push_back(std::make_shared<RemoteRetrievalBackend>(
        &stack.model, "127.0.0.1", servers.back()->port(), ClientOptions()));
  }

  ShardedEngineOptions in_process_options;
  in_process_options.num_shards = kShards;
  RetrievalEngine in_process(&stack.model, &stack.scorer, stack.db,
                             stack.db_ids, in_process_options);
  RetrievalEngine composed(&stack.model, remotes);
  ASSERT_EQ(composed.size(), in_process.size());

  for (size_t p : {size_t{1}, size_t{7}, size_t{80}}) {
    for (size_t query_id : stack.query_ids) {
      RetrievalOptions options(3, p);
      options.want_stats = true;
      auto want = in_process.Retrieve({stack.QueryDx(query_id), options});
      auto got = composed.Retrieve({stack.QueryDx(query_id), options});
      ASSERT_TRUE(want.ok() && got.ok())
          << want.status().message() << got.status().message();
      EXPECT_EQ(want->neighbors, got->neighbors);
      EXPECT_EQ(want->exact_distances, got->exact_distances);
      ASSERT_EQ(want->shard_stats.size(), got->shard_stats.size());
      for (size_t s = 0; s < kShards; ++s) {
        EXPECT_EQ(want->shard_stats[s].rows, got->shard_stats[s].rows);
        EXPECT_EQ(want->shard_stats[s].candidates,
                  got->shard_stats[s].candidates);
      }
    }
  }

  // Mutations route through the composed engine to the right remote
  // shard and show up in subsequent retrievals.
  const size_t new_id = stack.db_ids.size() + stack.query_ids.size() + 7;
  // dx for the new object: reuse a database point's distances (the
  // oracle has no object new_id, so insert a copy of object 0).
  auto new_dx = [&stack](size_t id) { return stack.oracle.Distance(0, id); };
  ASSERT_TRUE(composed.Insert(new_id, new_dx).ok());
  ASSERT_TRUE(in_process.Insert(new_id, new_dx).ok());
  EXPECT_EQ(composed.size(), in_process.size());
  auto want = in_process.Retrieve({stack.QueryDx(stack.query_ids[0]),
                                   RetrievalOptions(2, 20)});
  auto got = composed.Retrieve({stack.QueryDx(stack.query_ids[0]),
                                RetrievalOptions(2, 20)});
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(want->neighbors, got->neighbors);
  ASSERT_TRUE(composed.Remove(new_id).ok());
  ASSERT_TRUE(in_process.Remove(new_id).ok());
  EXPECT_EQ(composed.size(), in_process.size());
}

TEST(RetrievalServerTest, EmptyShardContributesNothing) {
  // One populated shard plus one empty shard: scatter succeeds and the
  // empty shard reports zero rows (OK-empty contract).
  Stack stack(30, 2, 43);
  EmbeddedDatabase empty_db(stack.model.dims());
  RetrievalEngine empty_engine(&stack.model, &stack.scorer, &empty_db, {});
  RetrievalServer empty_server(&empty_engine, ServerOptions());
  ASSERT_TRUE(empty_server.Start(0).ok());
  auto remote_empty = std::make_shared<RemoteRetrievalBackend>(
      &stack.model, "127.0.0.1", empty_server.port(), ClientOptions());

  auto scan = remote_empty->ScanCandidates(Vector(stack.model.dims(), 0.0),
                                           RetrievalOptions(1, 5));
  ASSERT_TRUE(scan.ok()) << scan.status().message();
  EXPECT_TRUE(scan->candidates.empty());
  EXPECT_EQ(scan->rows, 0u);

  // A standalone remote Retrieve against the empty database keeps the
  // engines' FailedPrecondition contract.
  auto retrieve = remote_empty->Retrieve(
      {stack.QueryDx(stack.query_ids[0]), RetrievalOptions(1, 5)});
  ASSERT_FALSE(retrieve.ok());
  EXPECT_EQ(retrieve.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RetrievalServerTest, DeadlinesAreHonoredEndToEnd) {
  Stack stack(40, 2, 44);
  RetrievalServerOptions server_options = ServerOptions();
  RetrievalServer server(stack.engine.get(), server_options);
  ASSERT_TRUE(server.Start(0).ok());
  RemoteRetrievalBackend remote(&stack.model, "127.0.0.1", server.port(),
                                ClientOptions());

  // Already-expired deadline: rejected client-side before any RPC.
  RetrievalOptions expired(1, 5);
  expired.deadline = RetrievalClock::now() - std::chrono::milliseconds(1);
  auto result = remote.Retrieve({stack.QueryDx(stack.query_ids[0]), expired});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  // A server that drags its feet past the budget: the wire carries the
  // remaining budget, the server sleeps past it via fault injection, and
  // whichever side notices first reports kDeadlineExceeded.
  RetrievalServerOptions slow_options = ServerOptions();
  slow_options.debug_delay_every_n = 1;  // every scan
  slow_options.debug_delay = std::chrono::milliseconds(300);
  RetrievalServer slow_server(stack.engine.get(), slow_options);
  ASSERT_TRUE(slow_server.Start(0).ok());
  RemoteBackendOptions no_retry = ClientOptions();
  no_retry.retry_reads = false;
  RemoteRetrievalBackend slow_remote(&stack.model, "127.0.0.1",
                                     slow_server.port(), no_retry);
  RetrievalOptions tight(1, 5);
  tight.deadline = RetrievalOptions::DeadlineIn(std::chrono::milliseconds(50));
  result = slow_remote.Retrieve({stack.QueryDx(stack.query_ids[0]), tight});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  // A comfortable budget sails through the same slow server.
  RetrievalOptions roomy(1, 5);
  roomy.deadline = RetrievalOptions::DeadlineIn(std::chrono::seconds(5));
  result = slow_remote.Retrieve({stack.QueryDx(stack.query_ids[0]), roomy});
  EXPECT_TRUE(result.ok()) << result.status().message();
}

TEST(RetrievalServerTest, ServerRejectsExpiredBudgetBeforeScanning) {
  // Wire-level: a request whose budget is 1ns is already dead on
  // arrival; the server must answer kDeadlineExceeded without scanning.
  Stack stack(30, 1, 45);
  RetrievalServer server(stack.engine.get(), ServerOptions());
  ASSERT_TRUE(server.Start(0).ok());
  auto sock =
      Socket::Connect("127.0.0.1", server.port(), FastTransport());
  ASSERT_TRUE(sock.ok());
  WireRequest request;
  request.op = WireOp::kScan;
  request.deadline_budget_ns = 1;
  request.options = RetrievalOptions(1, 5);
  request.query = Vector(stack.model.dims(), 0.0);
  ASSERT_TRUE(sock.value().SendFrame(EncodeRequest(request)).ok());
  auto frame = sock.value().RecvFrame();
  ASSERT_TRUE(frame.ok());
  WireResponse response;
  ASSERT_TRUE(DecodeResponse(frame.value(), &response).ok());
  EXPECT_EQ(response.code, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.neighbors.empty());
}

TEST(RetrievalServerTest, ApplicationErrorsCrossTheWireIntact) {
  Stack stack(30, 1, 47);
  RetrievalServer server(stack.engine.get(), ServerOptions());
  ASSERT_TRUE(server.Start(0).ok());
  RemoteRetrievalBackend remote(&stack.model, "127.0.0.1", server.port(),
                                ClientOptions());

  // Duplicate insert: InvalidArgument from the far side.
  Vector row(stack.model.dims(), 0.5);
  Status dup = remote.InsertEmbedded(stack.db_ids[0], row);
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);

  // Unknown remove: NotFound.
  Status missing = remote.Remove(999999);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);

  // Wrong dimensionality: InvalidArgument.
  Status bad_dims = remote.InsertEmbedded(424242, Vector(1, 0.0));
  EXPECT_EQ(bad_dims.code(), StatusCode::kInvalidArgument);

  // size() probes the real size.
  EXPECT_EQ(remote.size(), stack.db_ids.size());
}

TEST(RetrievalServerTest, MalformedFramesAnswerThenRecoverOrClose) {
  Stack stack(30, 1, 48);
  RetrievalServer server(stack.engine.get(), ServerOptions());
  ASSERT_TRUE(server.Start(0).ok());
  auto sock = Socket::Connect("127.0.0.1", server.port(), FastTransport());
  ASSERT_TRUE(sock.ok());

  // Intact frame, wrong magic: InvalidArgument response, connection
  // stays usable.
  std::string bad_magic = EncodeRequest(WireRequest{});
  bad_magic[0] ^= 0xFF;
  ASSERT_TRUE(sock.value().SendFrame(bad_magic).ok());
  auto frame = sock.value().RecvFrame();
  ASSERT_TRUE(frame.ok());
  WireResponse response;
  ASSERT_TRUE(DecodeResponse(frame.value(), &response).ok());
  EXPECT_EQ(response.code, StatusCode::kInvalidArgument);

  // Same connection still serves a well-formed request.
  WireRequest info;
  info.op = WireOp::kInfo;
  ASSERT_TRUE(sock.value().SendFrame(EncodeRequest(info)).ok());
  frame = sock.value().RecvFrame();
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(DecodeResponse(frame.value(), &response).ok());
  EXPECT_EQ(response.code, StatusCode::kOk);
  EXPECT_EQ(response.db_size, stack.db_ids.size());

  // Structurally corrupt frame (truncated mid-field): the server
  // answers kDataLoss and closes the connection.
  std::string truncated = EncodeRequest(info).substr(0, 12);
  ASSERT_TRUE(sock.value().SendFrame(truncated).ok());
  frame = sock.value().RecvFrame();
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(DecodeResponse(frame.value(), &response).ok());
  EXPECT_EQ(response.code, StatusCode::kDataLoss);
  auto closed = sock.value().RecvFrame();
  EXPECT_FALSE(closed.ok());
}

TEST(RetrievalServerTest, StopUnblocksClientsAndClientsReportUnavailable) {
  Stack stack(30, 1, 49);
  auto server =
      std::make_unique<RetrievalServer>(stack.engine.get(), ServerOptions());
  ASSERT_TRUE(server->Start(0).ok());
  const uint16_t port = server->port();
  RemoteBackendOptions no_retry = ClientOptions();
  no_retry.retry_reads = false;
  RemoteRetrievalBackend remote(&stack.model, "127.0.0.1", port, no_retry);
  EXPECT_EQ(remote.size(), stack.db_ids.size());  // warm the pool
  server->Stop();
  server.reset();
  auto result = remote.Retrieve(
      {stack.QueryDx(stack.query_ids[0]), RetrievalOptions(1, 5)});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

/// This process's virtual size in KiB, from /proc/self/status.
size_t VmSizeKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoul(line.substr(7));
  }
  return 0;
}

TEST(RetrievalServerTest, ClosedConnectionsReleaseTheirHandlerThreads) {
  // Every client-side RPC failure drops its socket, so a long-running
  // server sees a steady stream of short connections.  Each one's
  // handler thread must be joined once it exits, not at Stop: an
  // unjoined thread keeps its stack mapped (~8 MiB of VmSize each).
  Stack stack(30, 1, 51);
  RetrievalServer server(stack.engine.get(), ServerOptions());
  ASSERT_TRUE(server.Start(0).ok());
  WireRequest info;
  info.op = WireOp::kInfo;
  const std::string payload = EncodeRequest(info);
  const size_t before_kib = VmSizeKib();
  ASSERT_GT(before_kib, 0u);
  constexpr int kCycles = 250;
  for (int i = 0; i < kCycles; ++i) {
    auto sock = Socket::Connect("127.0.0.1", server.port(), FastTransport());
    ASSERT_TRUE(sock.ok()) << sock.status().message();
    // One round trip, so the server has spawned this connection's
    // handler before the client hangs up.
    ASSERT_TRUE(sock.value().SendFrame(payload).ok());
    ASSERT_TRUE(sock.value().RecvFrame().ok());
  }
  const int64_t growth_mib = (static_cast<int64_t>(VmSizeKib()) -
                              static_cast<int64_t>(before_kib)) /
                             1024;
  // Unjoined, 250 handler stacks would add ~2 GiB.
  EXPECT_LT(growth_mib, 256) << "VmSize grew " << growth_mib << " MiB over "
                              << kCycles << " connections";
}

TEST(RetrievalServerTest, TraceSpansAreGraftedAcrossTheWire) {
  Stack stack(40, 1, 50);
  RetrievalServer server(stack.engine.get(), ServerOptions());
  ASSERT_TRUE(server.Start(0).ok());
  RemoteRetrievalBackend remote(&stack.model, "127.0.0.1", server.port(),
                                ClientOptions());

  RetrievalRequest request;
  request.dx = stack.QueryDx(stack.query_ids[0]);
  request.options = RetrievalOptions(2, 10);
  request.trace = std::make_shared<obs::RequestTrace>();
  auto result = remote.Retrieve(request);
  ASSERT_TRUE(result.ok()) << result.status().message();
#ifdef QSE_DISABLE_TRACING
  // Recording is compiled out on both ends: nothing is stamped or
  // grafted, and the trace comes back empty.
  EXPECT_TRUE(request.trace->spans().empty());
#else
  bool saw_rpc = false, saw_remote = false;
  uint64_t rpc_start = 0, rpc_end = 0;
  for (const obs::TraceSpan& span : request.trace->spans()) {
    if (std::string(span.name) == "rpc_scan") {
      saw_rpc = true;
      rpc_start = span.start_ns;
      rpc_end = span.start_ns + span.dur_ns;
    }
  }
  ASSERT_TRUE(saw_rpc);
  for (const obs::TraceSpan& span : request.trace->spans()) {
    if (std::string(span.name).rfind("remote:", 0) == 0) {
      saw_remote = true;
      // Grafted spans sit inside the client's RPC window.
      EXPECT_GE(span.start_ns, rpc_start);
      EXPECT_LE(span.start_ns, rpc_end);
    }
  }
  EXPECT_TRUE(saw_remote);
#endif  // QSE_DISABLE_TRACING
}

}  // namespace
}  // namespace net
}  // namespace qse
