// Unit and integration tests for the durability subsystem: WAL framing
// and sequence discipline, DurabilityManager recovery cycles (WAL-only,
// snapshot + tail, compaction), and the DurableBackend decorator's
// apply-then-log contract.  The crash-kill half lives in
// crash_recover_test.cc; byte-level corruption in wal_fuzz_test.cc.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/persist/durability.h"
#include "src/persist/durable_backend.h"
#include "src/persist/snapshot.h"
#include "src/persist/wal.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/filter_scorer.h"
#include "src/retrieval/retrieval_engine.h"
#include "tests/line_universe.h"
#include "tests/test_util.h"

namespace qse {
namespace persist {
namespace {

using test::DxOfObject;
using test::ExpectDbsIdentical;
using test::FreshDir;
using test::kLineDims;
using test::LineEmbedder;
using test::MakeDx;
using test::ShardDbs;
using test::XOf;

uint64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

std::vector<double> LineRow(size_t id) {
  return std::vector<double>(kLineDims, XOf(id));
}

void ExpectRecordsEqual(const WalRecord& want, const WalRecord& got) {
  EXPECT_EQ(static_cast<int>(want.op), static_cast<int>(got.op));
  EXPECT_EQ(want.seq, got.seq);
  EXPECT_EQ(want.db_id, got.db_id);
  ASSERT_EQ(want.row.size(), got.row.size());
  if (!want.row.empty()) {
    EXPECT_EQ(0, std::memcmp(want.row.data(), got.row.data(),
                             want.row.size() * sizeof(double)));
  }
}

struct MonoStack {
  LineEmbedder embedder;
  L2Scorer scorer;
  EmbeddedDatabase db{kLineDims};
  RetrievalEngine engine{&embedder, &scorer, &db, {}};
};

// --- WAL framing and sequence discipline ---------------------------------

TEST(Wal, MissingFileReadsEmpty) {
  const std::string dir = FreshDir("persist_wal_missing");
  StatusOr<WalReadResult> result = ReadWal(dir + "/wal.qse");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->records.empty());
  EXPECT_EQ(0u, result->base_seq);
  EXPECT_EQ(0u, result->valid_bytes);
  EXPECT_EQ(0u, result->dropped_bytes);
}

TEST(Wal, AppendReadBackRoundTrip) {
  const std::string dir = FreshDir("persist_wal_roundtrip");
  const std::string path = dir + "/wal.qse";
  std::vector<WalRecord> written;
  {
    StatusOr<std::unique_ptr<WalWriter>> writer = WalWriter::Open(
        path, FsyncPolicy::kEveryRecord, 1, /*offset=*/0, /*base_seq=*/0,
        /*next_seq=*/1);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (size_t i = 0; i < 7; ++i) {
      WalRecord record;
      if (i % 3 == 2) {
        record.op = WalOp::kRemove;
        record.db_id = i - 2;
      } else {
        record.op = WalOp::kInsert;
        record.db_id = i;
        record.row = LineRow(i);
      }
      ASSERT_TRUE(writer.value()->Append(&record).ok());
      EXPECT_EQ(i + 1, record.seq);  // Writer assigns contiguously.
      written.push_back(record);
    }
    EXPECT_EQ(7u, writer.value()->last_seq());
  }
  StatusOr<WalReadResult> result = ReadWal(path);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(0u, result->base_seq);
  EXPECT_EQ(0u, result->dropped_bytes);
  EXPECT_EQ(FileSize(path), result->valid_bytes);
  ASSERT_EQ(written.size(), result->records.size());
  for (size_t i = 0; i < written.size(); ++i) {
    ExpectRecordsEqual(written[i], result->records[i]);
  }
}

TEST(Wal, SequenceContinuesAcrossReopen) {
  const std::string dir = FreshDir("persist_wal_reopen");
  const std::string path = dir + "/wal.qse";
  {
    StatusOr<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(path, FsyncPolicy::kOff, 0, 0, 0, 1);
    ASSERT_TRUE(writer.ok());
    for (size_t i = 0; i < 3; ++i) {
      WalRecord record;
      record.db_id = i;
      record.row = LineRow(i);
      ASSERT_TRUE(writer.value()->Append(&record).ok());
    }
  }
  StatusOr<WalReadResult> scan = ReadWal(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(3u, scan->records.size());
  {
    StatusOr<std::unique_ptr<WalWriter>> writer = WalWriter::Open(
        path, FsyncPolicy::kOff, 0, scan->valid_bytes, scan->base_seq,
        scan->records.back().seq + 1);
    ASSERT_TRUE(writer.ok());
    for (size_t i = 3; i < 5; ++i) {
      WalRecord record;
      record.db_id = i;
      record.row = LineRow(i);
      ASSERT_TRUE(writer.value()->Append(&record).ok());
      EXPECT_EQ(i + 1, record.seq);
    }
  }
  StatusOr<WalReadResult> result = ReadWal(path);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(5u, result->records.size());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(i + 1, result->records[i].seq);
    EXPECT_EQ(i, result->records[i].db_id);
  }
}

TEST(Wal, ResetToBaseCompacts) {
  const std::string dir = FreshDir("persist_wal_reset");
  const std::string path = dir + "/wal.qse";
  StatusOr<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(path, FsyncPolicy::kEveryRecord, 1, 0, 0, 1);
  ASSERT_TRUE(writer.ok());
  for (size_t i = 0; i < 4; ++i) {
    WalRecord record;
    record.db_id = i;
    record.row = LineRow(i);
    ASSERT_TRUE(writer.value()->Append(&record).ok());
  }
  ASSERT_TRUE(writer.value()->ResetToBase(4).ok());
  EXPECT_EQ(4u, writer.value()->last_seq());
  EXPECT_EQ(static_cast<uint64_t>(kWalFileHeaderBytes), FileSize(path));

  WalRecord record;
  record.op = WalOp::kRemove;
  record.db_id = 0;
  ASSERT_TRUE(writer.value()->Append(&record).ok());
  EXPECT_EQ(5u, record.seq);  // Continues past the compacted base.

  StatusOr<WalReadResult> result = ReadWal(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(4u, result->base_seq);
  ASSERT_EQ(1u, result->records.size());
  EXPECT_EQ(5u, result->records[0].seq);
}

TEST(Wal, AllFsyncPoliciesRoundTrip) {
  const FsyncPolicy policies[] = {FsyncPolicy::kEveryRecord,
                                  FsyncPolicy::kEveryN, FsyncPolicy::kOff};
  for (FsyncPolicy policy : policies) {
    const std::string dir = FreshDir(
        "persist_wal_policy_" +
        std::to_string(static_cast<int>(policy)));
    const std::string path = dir + "/wal.qse";
    {
      StatusOr<std::unique_ptr<WalWriter>> writer =
          WalWriter::Open(path, policy, 3, 0, 0, 1);
      ASSERT_TRUE(writer.ok());
      for (size_t i = 0; i < 10; ++i) {
        WalRecord record;
        record.db_id = i;
        record.row = LineRow(i);
        ASSERT_TRUE(writer.value()->Append(&record).ok());
      }
      ASSERT_TRUE(writer.value()->Sync().ok());
    }
    StatusOr<WalReadResult> result = ReadWal(path);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(10u, result->records.size());
  }
}

TEST(Wal, EncodedFrameLayout) {
  WalRecord record;
  record.op = WalOp::kInsert;
  record.seq = 42;
  record.db_id = 7;
  record.row = LineRow(7);
  const std::string bytes = EncodeWalRecord(record);
  ASSERT_GE(bytes.size(), kWalRecordHeaderBytes);
  uint32_t magic, payload_len;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  std::memcpy(&payload_len, bytes.data() + 4, sizeof(payload_len));
  EXPECT_EQ(kWalRecordMagic, magic);
  EXPECT_EQ(bytes.size() - kWalRecordHeaderBytes, payload_len);
}

// --- DurabilityManager recovery cycles -----------------------------------

DurabilityOptions Opts(const std::string& dir) {
  DurabilityOptions options;
  options.dir = dir;
  options.fsync = FsyncPolicy::kOff;  // Unit tests never lose page cache.
  return options;
}

/// Recovery steps 1-4 into a fresh mono stack.
std::unique_ptr<DurabilityManager> RecoverMono(const DurabilityOptions& opts,
                                               MonoStack* stack,
                                               uint64_t* replayed = nullptr) {
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  EXPECT_TRUE(manager.ok()) << manager.status();
  if (!manager.ok()) return nullptr;
  Status installed = manager.value()->InstallSnapshot({&stack->db});
  EXPECT_TRUE(installed.ok()) << installed;
  if (!installed.ok()) return nullptr;
  stack->engine.RebuildIdIndex();
  StatusOr<uint64_t> applied = manager.value()->Replay(&stack->engine);
  EXPECT_TRUE(applied.ok()) << applied.status();
  if (!applied.ok()) return nullptr;
  if (replayed != nullptr) *replayed = applied.value();
  return std::move(manager.value());
}

TEST(Persist, FreshDirectoryOpensEmpty) {
  const DurabilityOptions opts = Opts(FreshDir("persist_fresh"));
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok()) << manager.status();
  EXPECT_FALSE(manager.value()->recovery().loaded_snapshot);
  EXPECT_EQ(0u, manager.value()->recovery().wal_records);
  EXPECT_EQ(0u, manager.value()->recovery().repaired_bytes);
  EXPECT_EQ(0u, manager.value()->last_seq());
}

TEST(Persist, WalOnlyRecoveryMatchesLiveState) {
  const DurabilityOptions opts = Opts(FreshDir("persist_wal_only"));
  MonoStack live;
  {
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(opts);
    ASSERT_TRUE(manager.ok());
    DurableBackend durable(&live.engine, &live.embedder,
                           manager.value().get(), {&live.db});
    for (size_t id = 0; id < 40; ++id) {
      ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
    }
    for (size_t id = 0; id < 40; id += 5) {
      ASSERT_TRUE(durable.Remove(id).ok());
    }
    EXPECT_EQ(48u, manager.value()->last_seq());
  }
  MonoStack recovered;
  uint64_t replayed = 0;
  auto manager = RecoverMono(opts, &recovered, &replayed);
  ASSERT_NE(nullptr, manager);
  EXPECT_FALSE(manager->recovery().loaded_snapshot);
  EXPECT_EQ(48u, replayed);
  EXPECT_EQ(48u, manager->last_seq());  // Sequence continues, not restarts.
  ExpectDbsIdentical(live.db, recovered.db, "wal-only recovery");
}

TEST(Persist, AutoSnapshotCompactsWalAndRecovers) {
  DurabilityOptions opts = Opts(FreshDir("persist_auto_snapshot"));
  opts.snapshot_every_records = 10;
  MonoStack live;
  {
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(opts);
    ASSERT_TRUE(manager.ok());
    DurableBackend durable(&live.engine, &live.embedder,
                           manager.value().get(), {&live.db});
    for (size_t id = 0; id < 37; ++id) {
      ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
    }
    ASSERT_TRUE(durable.Remove(3).ok());
  }
  // 38 records at a 10-record cadence: the WAL holds only the tail past
  // the last cut.
  StatusOr<WalReadResult> tail = ReadWal(opts.dir + "/wal.qse");
  ASSERT_TRUE(tail.ok());
  EXPECT_LT(tail->records.size(), 10u);
  EXPECT_GT(tail->base_seq, 0u);

  MonoStack recovered;
  uint64_t replayed = 0;
  auto manager = RecoverMono(opts, &recovered, &replayed);
  ASSERT_NE(nullptr, manager);
  EXPECT_TRUE(manager->recovery().loaded_snapshot);
  EXPECT_GT(manager->recovery().snapshot_cut_seq, 0u);
  EXPECT_EQ(tail->records.size(), replayed);
  EXPECT_EQ(38u, manager->last_seq());
  ExpectDbsIdentical(live.db, recovered.db, "snapshot + tail recovery");
}

/// An explicit snapshot, then a WAL tail past it, recovered into a fresh
/// engine of `shards` shards.
void ExpectSnapshotThenTailRecovers(size_t shards) {
  const DurabilityOptions opts = Opts(FreshDir("persist_explicit_snapshot"));
  LineEmbedder embedder;
  L2Scorer scorer;
  const ShardedEngineOptions layout{shards, 1};
  RetrievalEngine live(&embedder, &scorer, layout);
  {
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(opts);
    ASSERT_TRUE(manager.ok());
    std::vector<EmbeddedDatabase*> dbs = ShardDbs(&live);
    DurableBackend durable(&live, &embedder, manager.value().get(),
                           {dbs.begin(), dbs.end()});
    for (size_t id = 0; id < 20; ++id) {
      ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
    }
    ASSERT_TRUE(durable.WriteSnapshotNow().ok());
    for (size_t id = 20; id < 29; ++id) {
      ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
    }
    ASSERT_TRUE(durable.Remove(0).ok());
  }
  RetrievalEngine recovered(&embedder, &scorer, layout);
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE(manager.value()->InstallSnapshot(ShardDbs(&recovered)).ok());
  recovered.RebuildIdIndex();
  StatusOr<uint64_t> replayed = manager.value()->Replay(&recovered);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(20u, manager.value()->recovery().snapshot_cut_seq);
  EXPECT_EQ(10u, replayed.value());  // 9 inserts + 1 remove past the cut.
  for (size_t s = 0; s < shards; ++s) {
    ExpectDbsIdentical(live.db(s), recovered.db(s),
                       "shard " + std::to_string(s));
  }
}

TEST(Persist, RecoveryAfterRequantizingInsertMatchesLiveBitForBit) {
  // Snapshots do not store the int8 matrix; recovery rebuilds it the way
  // an overflowing insert re-quantizes.  Snapshotted right after such an
  // insert, the recovered engine has the live one's scales and int8
  // rows, so its answers AND its prescreen counts match bit for bit.
  // A weighted-L1 scorer prescreens (unit weights here); the L2
  // baseline does not.
  const DurabilityOptions opts = Opts(FreshDir("persist_requant_parity"));
  LineEmbedder embedder;
  const ObjectOracle<Vector> oracle = test::MakePlaneOracle(kLineDims + 1, 3);
  const QuerySensitiveEmbedding model =
      test::MakeFixedWeightModel(oracle, Vector(kLineDims, 1.0));
  QuerySensitiveScorer scorer(&model);
  EmbeddedDatabase live_db(kLineDims);
  RetrievalEngine live(&embedder, &scorer, &live_db, {});
  {
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(opts);
    ASSERT_TRUE(manager.ok());
    DurableBackend durable(&live, &embedder, manager.value().get(),
                           {&live_db});
    for (size_t id = 0; id < 300; ++id) {
      ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
    }
    const float scale_before = live_db.snapshot()->i8_scales()[0];
    // Far outside every coordinate so far: the insert re-quantizes.
    ASSERT_TRUE(durable.Insert(1000, MakeDx(5.0)).ok());
    ASSERT_GT(live_db.snapshot()->i8_scales()[0], scale_before);
    ASSERT_TRUE(durable.WriteSnapshotNow().ok());
  }
  EmbeddedDatabase recovered_db(kLineDims);
  RetrievalEngine recovered(&embedder, &scorer, &recovered_db, {});
  {
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(opts);
    ASSERT_TRUE(manager.ok());
    EXPECT_TRUE(manager.value()->recovery().loaded_snapshot);
    ASSERT_TRUE(manager.value()->InstallSnapshot({&recovered_db}).ok());
    recovered.RebuildIdIndex();
    ASSERT_TRUE(manager.value()->Replay(&recovered).ok());
  }
  ExpectDbsIdentical(live_db, recovered_db, "requantized then recovered");
  {
    EmbeddedDatabase::Snapshot a = live_db.snapshot();
    EmbeddedDatabase::Snapshot b = recovered_db.snapshot();
    ASSERT_TRUE(a->has_i8() && b->has_i8());
    EXPECT_TRUE(test::SameBytes(a->i8_scales(), b->i8_scales(),
                                kLineDims * sizeof(float)));
    // Row by row: the slots of the last block past the count are not
    // rows, and may differ.
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      for (size_t j = 0; j < kLineDims; ++j) {
        const size_t at = EmbeddedDatabase::I8Offset(i, j, kLineDims);
        ASSERT_EQ(a->data_i8()[at], b->data_i8()[at])
            << "row " << i << " dim " << j;
      }
    }
  }
  size_t prescreened = 0;
  for (double x : {0.0, 0.1, 0.5, 0.93, 2.5, 4.9}) {
    SCOPED_TRACE("x=" + std::to_string(x));
    const RetrievalOptions options(3, 10);
    auto want = live.Retrieve({MakeDx(x), options});
    auto got = recovered.Retrieve({MakeDx(x), options});
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(want->neighbors.size(), got->neighbors.size());
    for (size_t i = 0; i < want->neighbors.size(); ++i) {
      EXPECT_EQ(want->neighbors[i].index, got->neighbors[i].index);
      EXPECT_TRUE(test::SameBytes(&want->neighbors[i].score,
                                  &got->neighbors[i].score, sizeof(double)));
    }
    const Vector fq = embedder.Embed(MakeDx(x), nullptr);
    auto want_scan = live.ScanCandidates(fq, options);
    auto got_scan = recovered.ScanCandidates(fq, options);
    ASSERT_TRUE(want_scan.ok() && got_scan.ok());
    EXPECT_EQ(want_scan->rows_prescreened, got_scan->rows_prescreened);
    EXPECT_EQ(want_scan->rows_pruned, got_scan->rows_pruned);
    prescreened += got_scan->rows_prescreened;
  }
  EXPECT_GT(prescreened, 0u);
}

TEST(Persist, ExplicitSnapshotThenTailRecovers) {
  ExpectSnapshotThenTailRecovers(1);
}

TEST(Persist, ShardedRecoveryRoundTrip) { ExpectSnapshotThenTailRecovers(3); }

TEST(Persist, RecoveryIsRepeatable) {
  const DurabilityOptions opts = Opts(FreshDir("persist_repeatable"));
  {
    MonoStack live;
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(opts);
    ASSERT_TRUE(manager.ok());
    DurableBackend durable(&live.engine, &live.embedder,
                           manager.value().get(), {&live.db});
    for (size_t id = 0; id < 15; ++id) {
      ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
    }
  }
  // Recovery must not consume the log: two independent recoveries agree.
  MonoStack first, second;
  ASSERT_NE(nullptr, RecoverMono(opts, &first));
  ASSERT_NE(nullptr, RecoverMono(opts, &second));
  ExpectDbsIdentical(first.db, second.db, "repeated recovery");
  EXPECT_EQ(15u, first.db.size());
}

TEST(Persist, RepairOffRejectsCorruptTail) {
  const DurabilityOptions base = Opts(FreshDir("persist_strict"));
  {
    MonoStack live;
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(base);
    ASSERT_TRUE(manager.ok());
    DurableBackend durable(&live.engine, &live.embedder,
                           manager.value().get(), {&live.db});
    for (size_t id = 0; id < 5; ++id) {
      ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
    }
  }
  {
    std::ofstream out(base.dir + "/wal.qse",
                      std::ios::binary | std::ios::app);
    out << "torn garbage tail";
  }
  DurabilityOptions strict = base;
  strict.repair_wal = false;
  StatusOr<std::unique_ptr<DurabilityManager>> rejected =
      DurabilityManager::Open(strict);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(StatusCode::kDataLoss, rejected.status().code());

  // Repair mode recovers the clean prefix and reports what it dropped.
  MonoStack recovered;
  uint64_t replayed = 0;
  auto manager = RecoverMono(base, &recovered, &replayed);
  ASSERT_NE(nullptr, manager);
  EXPECT_GT(manager->recovery().repaired_bytes, 0u);
  EXPECT_EQ(5u, replayed);
  EXPECT_EQ(5u, recovered.db.size());
}

TEST(Persist, ModelBlobRoundTripsThroughSnapshot) {
  DurabilityOptions opts = Opts(FreshDir("persist_model_blob"));
  opts.model_blob = std::string("fastmap-model\x00v1", 16);
  {
    MonoStack live;
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(opts);
    ASSERT_TRUE(manager.ok());
    DurableBackend durable(&live.engine, &live.embedder,
                           manager.value().get(), {&live.db});
    for (size_t id = 0; id < 8; ++id) {
      ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
    }
    ASSERT_TRUE(durable.WriteSnapshotNow().ok());
  }
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok());
  EXPECT_TRUE(manager.value()->recovery().loaded_snapshot);
  EXPECT_EQ(opts.model_blob, manager.value()->recovery().model_blob);
}

TEST(Persist, InstallSnapshotRejectsShardCountMismatch) {
  const DurabilityOptions opts = Opts(FreshDir("persist_shard_mismatch"));
  {
    MonoStack live;
    StatusOr<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(opts);
    ASSERT_TRUE(manager.ok());
    DurableBackend durable(&live.engine, &live.embedder,
                           manager.value().get(), {&live.db});
    ASSERT_TRUE(durable.Insert(0, DxOfObject(0)).ok());
    ASSERT_TRUE(durable.WriteSnapshotNow().ok());
  }
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok());
  EmbeddedDatabase a(kLineDims), b(kLineDims);
  Status installed = manager.value()->InstallSnapshot({&a, &b});
  ASSERT_FALSE(installed.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, installed.code());
}

// --- DurableBackend contract ---------------------------------------------

TEST(DurableBackendTest, FailedMutationIsNotLogged) {
  const DurabilityOptions opts = Opts(FreshDir("persist_failed_mutation"));
  MonoStack live;
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok());
  DurableBackend durable(&live.engine, &live.embedder, manager.value().get(),
                         {&live.db});
  ASSERT_TRUE(durable.Insert(1, DxOfObject(1)).ok());
  const uint64_t seq_before = manager.value()->last_seq();
  EXPECT_FALSE(durable.Remove(999).ok());  // Unknown id: apply fails.
  EXPECT_EQ(seq_before, manager.value()->last_seq());  // Nothing logged.
}

TEST(DurableBackendTest, RetrievalsPassThrough) {
  const DurabilityOptions opts = Opts(FreshDir("persist_passthrough"));
  MonoStack live;
  StatusOr<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(opts);
  ASSERT_TRUE(manager.ok());
  DurableBackend durable(&live.engine, &live.embedder, manager.value().get(),
                         {&live.db});
  for (size_t id = 0; id < 16; ++id) {
    ASSERT_TRUE(durable.Insert(id, DxOfObject(id)).ok());
  }
  RetrievalOptions options(3, 16);
  StatusOr<RetrievalResponse> through =
      durable.Retrieve({MakeDx(XOf(5)), options});
  StatusOr<RetrievalResponse> direct =
      live.engine.Retrieve({MakeDx(XOf(5)), options});
  ASSERT_TRUE(through.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->neighbors, through->neighbors);
}

}  // namespace
}  // namespace persist
}  // namespace qse
