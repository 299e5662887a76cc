#include "src/persist/durability.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/obs/metric_registry.h"
#include "src/util/timer.h"

namespace qse {
namespace persist {
namespace {

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Status::IOError("mkdir " + dir + ": " + std::strerror(errno));
}

}  // namespace

DurabilityManager::DurabilityManager(DurabilityOptions options)
    : options_(std::move(options)),
      replay_records_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_persist_replay_records_total")),
      snapshots_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_persist_snapshots_total")),
      wal_repairs_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_persist_wal_repairs_total")),
      snapshot_duration_ns_(obs::MetricRegistry::Global().GetHistogram(
          "qse_persist_snapshot_duration_ns",
          obs::DefaultLatencyBoundariesNs())) {}

StatusOr<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    const DurabilityOptions& options) {
  QSE_RETURN_IF_ERROR(EnsureDir(options.dir));
  auto manager =
      std::unique_ptr<DurabilityManager>(new DurabilityManager(options));

  // Scan the log.  ReadWal is byte-level only; sequence hygiene happens
  // in Replay.
  StatusOr<WalReadResult> scanned = ReadWal(manager->wal_path());
  QSE_RETURN_IF_ERROR(scanned.status());
  WalReadResult& wal = scanned.value();
  if (wal.dropped_bytes > 0) {
    if (!manager->options_.repair_wal) {
      return Status::DataLoss(
          "WAL has a corrupt tail (" + std::to_string(wal.dropped_bytes) +
          " bytes) and repair_wal is off: " + wal.tail_status.message());
    }
    manager->recovery_.repaired_bytes = wal.dropped_bytes;
    manager->wal_repairs_total_->Increment();
  }
  manager->recovery_.wal_records = wal.records.size();

  // The snapshot: absent is fine (WAL-only recovery), corrupt is not —
  // a snapshot only ever becomes visible through the atomic publish
  // protocol, so a broken one means storage corruption, not a crash.
  StatusOr<SnapshotContents> snapshot =
      ReadSnapshotFile(manager->snapshot_path());
  if (snapshot.ok()) {
    manager->recovery_.loaded_snapshot = true;
    manager->recovery_.snapshot_cut_seq = snapshot.value().cut_seq;
    manager->recovery_.model_blob = snapshot.value().model_blob;
    manager->pending_snapshot_ = std::move(snapshot.value());
  } else if (snapshot.status().code() != StatusCode::kNotFound) {
    return snapshot.status();
  }

  // Position the writer after the last valid record.  next_seq continues
  // from whichever is further along: the log's own records, its base, or
  // the snapshot cut (a crash between snapshot publish and WAL truncate
  // leaves the log behind the snapshot).
  // Max over all records, not just the last: duplicated-record
  // corruption can leave an out-of-order tail whose final seq is not
  // the largest one the log ever assigned.
  uint64_t last = wal.base_seq;
  for (const WalRecord& record : wal.records) {
    if (record.seq > last) last = record.seq;
  }
  if (manager->recovery_.snapshot_cut_seq > last) {
    last = manager->recovery_.snapshot_cut_seq;
  }
  StatusOr<std::unique_ptr<WalWriter>> writer = WalWriter::Open(
      manager->wal_path(), manager->options_.fsync,
      manager->options_.fsync_every_n, wal.valid_bytes, wal.base_seq,
      last + 1);
  QSE_RETURN_IF_ERROR(writer.status());
  manager->wal_ = std::move(writer.value());
  manager->pending_replay_ = std::move(wal.records);
  return StatusOr<std::unique_ptr<DurabilityManager>>(std::move(manager));
}

Status DurabilityManager::InstallSnapshot(
    const std::vector<EmbeddedDatabase*>& dbs) {
  if (!recovery_.loaded_snapshot) return Status::OK();
  if (pending_snapshot_.dbs.size() != dbs.size()) {
    return Status::FailedPrecondition(
        "snapshot holds " + std::to_string(pending_snapshot_.dbs.size()) +
        " databases but " + std::to_string(dbs.size()) +
        " were provided for install");
  }
  for (size_t i = 0; i < dbs.size(); ++i) {
    QSE_RETURN_IF_ERROR(InstallSnapshotDb(pending_snapshot_.dbs[i], dbs[i]));
  }
  return Status::OK();
}

StatusOr<uint64_t> DurabilityManager::Replay(RetrievalBackend* backend) {
  uint64_t applied = 0;
  uint64_t last_applied = recovery_.snapshot_cut_seq;
  for (const WalRecord& record : pending_replay_) {
    if (record.seq <= last_applied) continue;  // Snapshot covers it, or dup.
    if (record.seq != last_applied + 1) {
      return Status::DataLoss(
          "WAL sequence gap: expected " + std::to_string(last_applied + 1) +
          ", found " + std::to_string(record.seq));
    }
    Status status;
    switch (record.op) {
      case WalOp::kInsert:
        status = backend->InsertEmbedded(record.db_id, record.row);
        break;
      case WalOp::kRemove:
        status = backend->Remove(record.db_id);
        break;
    }
    if (!status.ok()) {
      // The log records mutations that SUCCEEDED; replaying them against
      // the state the snapshot restored must succeed too.  A failure
      // means log and snapshot contradict each other.
      return Status::DataLoss("WAL replay of seq " +
                              std::to_string(record.seq) +
                              " failed: " + status.ToString());
    }
    last_applied = record.seq;
    ++applied;
    replay_records_total_->Increment();
  }
  pending_replay_.clear();
  pending_replay_.shrink_to_fit();
  return applied;
}

Status DurabilityManager::LogInsert(uint64_t db_id,
                                    const std::vector<double>& embedded_row) {
  WalRecord record;
  record.op = WalOp::kInsert;
  record.db_id = db_id;
  record.row = embedded_row;
  QSE_RETURN_IF_ERROR(wal_->Append(&record));
  ++records_since_snapshot_;
  return Status::OK();
}

Status DurabilityManager::LogRemove(uint64_t db_id) {
  WalRecord record;
  record.op = WalOp::kRemove;
  record.db_id = db_id;
  QSE_RETURN_IF_ERROR(wal_->Append(&record));
  ++records_since_snapshot_;
  return Status::OK();
}

bool DurabilityManager::WantsSnapshot() const {
  return options_.snapshot_every_records > 0 &&
         records_since_snapshot_ >= options_.snapshot_every_records;
}

Status DurabilityManager::WriteSnapshot(
    uint64_t cut_seq, const std::vector<EmbeddedDatabase::View>& views) {
  const MonotonicClock::time_point start = MonotonicClock::now();
  // The records the snapshot absorbs must be on disk before the log that
  // holds them can be truncated underneath a later crash.
  QSE_RETURN_IF_ERROR(wal_->Sync());
  std::string bytes = EncodeSnapshot(cut_seq, options_.model_blob, views);
  QSE_RETURN_IF_ERROR(WriteSnapshotFile(snapshot_path(), bytes));
  // Publish succeeded: everything at or below the cut is durable in the
  // snapshot, so compact the log.  A crash before this truncate is safe
  // (replay skips seq <= cut).
  QSE_RETURN_IF_ERROR(wal_->ResetToBase(cut_seq));
  records_since_snapshot_ = 0;
  snapshots_total_->Increment();
  snapshot_duration_ns_->Record(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          MonotonicClock::now() - start)
          .count()));
  return Status::OK();
}

}  // namespace persist
}  // namespace qse
