// The instrumentation contract on exact counts: one pass through every
// instrumented layer — an AsyncRetrievalServer over a sharded
// DurableBackend with a QualityMonitor, a snapshot + recovery, and a
// loopback remote shard — must move each qse_* series of
// MetricRegistry::Global() by exactly the work that layer did.  A
// counter that falls out of the build, double-counts or counts the
// wrong unit fails here.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/embedding/fastmap.h"
#include "src/net/remote_backend.h"
#include "src/net/retrieval_server.h"
#include "src/obs/build_info.h"
#include "src/obs/metric_registry.h"
#include "src/obs/quality_monitor.h"
#include "src/persist/durability.h"
#include "src/persist/durable_backend.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/server/async_retrieval_server.h"
#include "tests/test_util.h"

namespace qse {
namespace {

/// Every counter, gauge and float gauge value and every histogram's
/// observation count in the global registry, by name.
std::map<std::string, double> ReadGlobal() {
  std::map<std::string, double> values;
  obs::MetricRegistry::Global().ForEach(
      [&](const std::string& name, const obs::Counter* counter,
          const obs::Gauge* gauge, const obs::FloatGauge* float_gauge,
          const obs::Histogram* histogram) {
        if (counter != nullptr) values[name] = counter->Value();
        if (gauge != nullptr) values[name] = gauge->Value();
        if (float_gauge != nullptr) values[name] = float_gauge->Value();
        if (histogram != nullptr) values[name] = histogram->Snapshot().count;
      });
  return values;
}

/// A reading of the global registry, to measure how far each series
/// moves after it.
class Since {
 public:
  Since() : before_(ReadGlobal()) {}

  /// How far `name` moved since construction; fails if the registry
  /// does not hold it.
  double Moved(const std::string& name) const {
    const std::map<std::string, double> now = ReadGlobal();
    auto it = now.find(name);
    EXPECT_NE(it, now.end()) << "missing series " << name;
    if (it == now.end()) return -1;
    auto was = before_.find(name);
    return it->second - (was != before_.end() ? was->second : 0.0);
  }

 private:
  std::map<std::string, double> before_;
};

uint64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

TEST(GlobalMetricsTest, EveryLayerMovesItsSeriesByExactlyItsWork) {
  constexpr size_t kN = 120;       // bulk-loaded rows
  constexpr size_t kInserts = 10;  // logged inserts before the snapshot
  constexpr size_t kTail = 3;      // logged inserts after it
  constexpr size_t kReads = 16;
  constexpr size_t kAuditEvery = 4;
  constexpr size_t kFsyncEvery = 4;
  constexpr size_t kShards = 2;
  const size_t first_query = kN + kInserts + kTail;
  ObjectOracle<Vector> oracle = test::MakePlaneOracle(first_query + 8, 71);
  const std::vector<size_t> db_ids = test::Iota(kN);
  FastMapOptions fopts;
  fopts.dims = 3;
  FastMapModel model = BuildFastMap(oracle, db_ids, fopts);
  L2Scorer scorer;
  ShardedEngineOptions shard_options;
  shard_options.num_shards = kShards;
  shard_options.scatter_threads = 1;
  RetrievalEngine engine(&model, &scorer, EmbedDatabase(model, oracle, db_ids),
                         db_ids, shard_options);
  auto dx_of = [&oracle](size_t object) -> DxToDatabaseFn {
    return [&oracle, object](size_t id) { return oracle.Distance(object, id); };
  };

  // The build identity gauge is registered with the registry itself.
  EXPECT_EQ(ReadGlobal()[obs::BuildInfoMetricName()], 1.0);

  // Writes: a fresh directory syncs its WAL header once, then every
  // kFsyncEvery-th record; the byte counter is the file's growth.
  persist::DurabilityOptions dopts;
  dopts.dir = test::FreshDir("global_metrics");
  dopts.fsync = persist::FsyncPolicy::kEveryN;
  dopts.fsync_every_n = kFsyncEvery;
  Since writes;
  auto opened = persist::DurabilityManager::Open(dopts);
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::unique_ptr<persist::DurabilityManager> manager =
      std::move(opened).value();
  std::vector<const EmbeddedDatabase*> shard_dbs;
  for (EmbeddedDatabase* db : test::ShardDbs(&engine)) shard_dbs.push_back(db);
  persist::DurableBackend durable(&engine, &model, manager.get(), shard_dbs);
  const uint64_t header_bytes = FileSize(manager->wal_path());
  for (size_t id = kN; id < kN + kInserts; ++id) {
    ASSERT_TRUE(durable.Insert(id, dx_of(id)).ok());
  }
  const double log_bytes = FileSize(manager->wal_path()) - header_bytes;
  const size_t fsyncs = 1 + kInserts / kFsyncEvery;
  EXPECT_EQ(writes.Moved("qse_persist_wal_records_total"), kInserts);
  EXPECT_EQ(writes.Moved("qse_persist_wal_bytes_total"), log_bytes);
  EXPECT_EQ(writes.Moved("qse_persist_fsyncs_total"), fsyncs);
  EXPECT_EQ(writes.Moved("qse_persist_fsync_latency_ns"), fsyncs);

  // Reads through the server: every layer counts each request once, the
  // scan visits every row, and 1 in kAuditEvery is audited — exactly,
  // at p = n.  Reads never touch the WAL.
  const size_t rows = kN + kInserts;
  Since reads;
  {
    obs::QualityMonitorOptions qopts;
    qopts.sample_every_n = kAuditEvery;
    obs::QualityMonitor monitor(qopts);
    AsyncServerOptions sopts;
    sopts.registry = &obs::MetricRegistry::Global();
    sopts.quality_monitor = &monitor;
    AsyncRetrievalServer server(&durable, sopts);
    for (size_t i = 0; i < kReads; ++i) {
      auto got = server.Retrieve(
          {dx_of(first_query + i % 8), RetrievalOptions(3, rows)});
      ASSERT_TRUE(got.ok()) << got.status();
    }
    server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
    monitor.Flush();
  }
  EXPECT_EQ(reads.Moved("qse_server_submitted_total"), kReads);
  EXPECT_EQ(reads.Moved("qse_server_completed_total"), kReads);
  EXPECT_EQ(reads.Moved("qse_engine_retrievals_total"), kReads);
  EXPECT_EQ(reads.Moved("qse_engine_filter_rows_visited_total"),
            kReads * rows);
  EXPECT_EQ(reads.Moved("qse_engine_scan_latency_ns"), kReads);
  EXPECT_EQ(reads.Moved("qse_engine_merge_latency_ns"), kReads);
  const size_t audits = kReads / kAuditEvery;
  EXPECT_EQ(reads.Moved("qse_quality_audits_sampled_total"), audits);
  EXPECT_EQ(reads.Moved("qse_quality_audits_completed_total"), audits);
  EXPECT_EQ(reads.Moved("qse_quality_audit_mismatches_total"), 0);
  EXPECT_EQ(ReadGlobal()["qse_quality_recall_at_k"], 1.0);
  EXPECT_EQ(reads.Moved("qse_persist_wal_records_total"), 0);
  EXPECT_EQ(reads.Moved("qse_persist_wal_bytes_total"), 0);
  EXPECT_EQ(reads.Moved("qse_persist_fsyncs_total"), 0);

  // Snapshot + tail + recovery: one snapshot (it syncs the log before
  // publishing and after compacting it), then a warm restart replays
  // exactly the tail past the snapshot's cut.
  Since snapshot;
  ASSERT_TRUE(durable.WriteSnapshotNow().ok());
  for (size_t id = kN + kInserts; id < kN + kInserts + kTail; ++id) {
    ASSERT_TRUE(durable.Insert(id, dx_of(id)).ok());
  }
  EXPECT_EQ(snapshot.Moved("qse_persist_snapshots_total"), 1);
  EXPECT_EQ(snapshot.Moved("qse_persist_snapshot_duration_ns"), 1);
  EXPECT_EQ(snapshot.Moved("qse_persist_fsyncs_total"), 2);
  EXPECT_EQ(snapshot.Moved("qse_persist_fsync_latency_ns"), 2);
  EXPECT_EQ(snapshot.Moved("qse_persist_wal_records_total"), kTail);
  manager.reset();
  Since recovery;
  auto reopened = persist::DurabilityManager::Open(dopts);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  RetrievalEngine recovered(&model, &scorer, shard_options);
  ASSERT_TRUE(
      reopened.value()->InstallSnapshot(test::ShardDbs(&recovered)).ok());
  recovered.RebuildIdIndex();
  auto replayed = reopened.value()->Replay(&recovered);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed.value(), kTail);
  EXPECT_EQ(recovery.Moved("qse_persist_replay_records_total"), kTail);
  EXPECT_EQ(recovery.Moved("qse_persist_fsyncs_total"), 0);
  for (size_t s = 0; s < kShards; ++s) {
    test::ExpectDbsIdentical(*engine.mutable_db(s), *recovered.mutable_db(s),
                             "shard " + std::to_string(s));
  }

  // A loopback remote shard: one RPC per query over a pooled socket.
  // The shard server's own scan counts rows where it runs (here, in
  // this process); the composed engine counts the retrieval.
  net::RetrievalServer shard_server(&recovered, {});
  ASSERT_TRUE(shard_server.Start(0).ok());
  std::vector<std::shared_ptr<RetrievalBackend>> remotes = {
      std::make_shared<net::RemoteRetrievalBackend>(&model, "127.0.0.1",
                                                    shard_server.port())};
  RetrievalEngine composed(&model, remotes);
  // The first query dials the connection the rest reuse.
  ASSERT_TRUE(
      composed.Retrieve({dx_of(first_query), RetrievalOptions(3, 5)}).ok());
  Since remote;
  constexpr size_t kRemoteReads = 5;
  for (size_t i = 0; i < kRemoteReads; ++i) {
    auto got =
        composed.Retrieve({dx_of(first_query + i), RetrievalOptions(3, 5)});
    ASSERT_TRUE(got.ok()) << got.status();
  }
  EXPECT_EQ(remote.Moved("qse_remote_rpcs_total"), kRemoteReads);
  EXPECT_EQ(remote.Moved("qse_remote_rpc_latency_ns"), kRemoteReads);
  EXPECT_EQ(remote.Moved("qse_remote_rpc_errors_total"), 0);
  EXPECT_EQ(remote.Moved("qse_remote_rpc_retries_total"), 0);
  EXPECT_EQ(remote.Moved("qse_remote_reconnects_total"), 0);
  EXPECT_EQ(remote.Moved("qse_engine_retrievals_total"), kRemoteReads);
  EXPECT_EQ(remote.Moved("qse_engine_filter_rows_visited_total"),
            kRemoteReads * (rows + kTail));
  shard_server.Stop();
}

}  // namespace
}  // namespace qse
