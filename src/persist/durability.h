#ifndef QSE_PERSIST_DURABILITY_H_
#define QSE_PERSIST_DURABILITY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/persist/snapshot.h"
#include "src/persist/wal.h"
#include "src/retrieval/retrieval_backend.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace qse {
namespace obs {
class Counter;
class Histogram;
}  // namespace obs

namespace persist {

/// Configuration of the durability subsystem.
struct DurabilityOptions {
  /// Directory holding the WAL ("wal.qse") and the current snapshot
  /// ("snapshot.qse").  Created if missing.
  std::string dir;
  /// WAL fsync policy; see FsyncPolicy.
  FsyncPolicy fsync = FsyncPolicy::kEveryRecord;
  /// N for FsyncPolicy::kEveryN.
  size_t fsync_every_n = 64;
  /// Auto-snapshot (compact the WAL) after this many logged records;
  /// 0 = snapshots only when the owner asks (WriteSnapshotNow).
  size_t snapshot_every_records = 0;
  /// Opaque embedding-model blob stored inside every snapshot this
  /// manager writes (e.g. the bytes of a FastMapModel::Save file).  The
  /// blob recovered from an existing snapshot is surfaced through
  /// RecoveryInfo so the owner can verify or reload the model.
  std::string model_blob;
  /// What to do with a corrupt WAL tail: true truncates the log to its
  /// last valid prefix (crash-consistent recovery — a torn tail is the
  /// expected shape of a kill); false refuses with kDataLoss (strict
  /// mode for storage where torn writes should be impossible).  A WAL
  /// whose HEADER is unreadable is kDataLoss under either setting.
  bool repair_wal = true;
};

/// What Open() found on disk.
struct RecoveryInfo {
  /// A snapshot was present and validated; its contents await
  /// InstallSnapshot.
  bool loaded_snapshot = false;
  /// The snapshot's WAL cut-point (0 without a snapshot): replay applies
  /// only records with seq greater than this.
  uint64_t snapshot_cut_seq = 0;
  /// Valid WAL records scanned (pre-filtering; Replay reports how many
  /// it actually applied).
  uint64_t wal_records = 0;
  /// Bytes of corrupt WAL tail dropped by repair (0 on a clean log).
  uint64_t repaired_bytes = 0;
  /// Model blob from the snapshot; empty without one.
  std::string model_blob;
};

/// Owner of one durability directory: scans and repairs the WAL, loads
/// the snapshot, replays the tail, then logs every subsequent mutation
/// and periodically compacts the log into a fresh snapshot.
///
/// Recovery sequencing (the owner drives it, because engine construction
/// is theirs):
///
///   1. Open(options)                    — scan WAL, read snapshot.
///   2. InstallSnapshot({db, ...})       — RestoreVersion into the dbs.
///   3. engine->RebuildIdIndex()         — re-point the id indexes.
///   4. Replay(backend)                  — apply the WAL tail.
///
/// After step 4 the backend is bit-identical to the crashed process at
/// its last durable record, and the manager is ready to log.
///
/// Logging and snapshotting are NOT thread-safe; DurableBackend
/// serializes them under its mutation mutex.
class DurabilityManager {
 public:
  /// Opens (creating if needed) the durability directory, scans the WAL,
  /// repairs or rejects a corrupt tail per options.repair_wal, reads the
  /// snapshot, and positions the writer after the last valid record.
  static StatusOr<std::unique_ptr<DurabilityManager>> Open(
      const DurabilityOptions& options);

  /// What recovery found (valid immediately after Open).
  const RecoveryInfo& recovery() const { return recovery_; }

  /// Installs the recovered snapshot into `dbs` (shard order must match
  /// the order the snapshot was taken in; count must match).  No-op
  /// without a snapshot.  Quiescent: no readers, no mutators.
  Status InstallSnapshot(const std::vector<EmbeddedDatabase*>& dbs);

  /// Applies every WAL record with seq > snapshot cut through `backend`
  /// (InsertEmbedded / Remove), skipping duplicates (seq <= the last
  /// applied) and failing kDataLoss on a forward sequence gap or an
  /// application error — a log that contradicts the state it claims to
  /// reproduce is data loss, not something to paper over.  Returns the
  /// number of records applied.
  StatusOr<uint64_t> Replay(RetrievalBackend* backend);

  /// Logs one applied insert (the EMBEDDED row) / remove.  Call order
  /// must equal apply order — DurableBackend guarantees this by holding
  /// its mutation mutex across apply+log.
  Status LogInsert(uint64_t db_id, const std::vector<double>& embedded_row);
  Status LogRemove(uint64_t db_id);

  /// Sequence number of the last logged (or compacted-away) record.
  uint64_t last_seq() const { return wal_->last_seq(); }

  /// True once records-since-last-snapshot has reached
  /// options.snapshot_every_records (and that option is non-zero).
  bool WantsSnapshot() const;

  /// Takes a compacted snapshot of `views` at cut point `cut_seq` (the
  /// seq of the last record `views` reflect — with the mutation mutex
  /// held that is last_seq()), publishes it atomically, then truncates
  /// the WAL to base_seq = cut_seq.  A crash between publish and
  /// truncate is safe: replay skips records at or below the cut.
  Status WriteSnapshot(uint64_t cut_seq,
                       const std::vector<EmbeddedDatabase::View>& views);

  const DurabilityOptions& options() const { return options_; }
  std::string wal_path() const { return options_.dir + "/wal.qse"; }
  std::string snapshot_path() const { return options_.dir + "/snapshot.qse"; }

 private:
  explicit DurabilityManager(DurabilityOptions options);

  DurabilityOptions options_;
  RecoveryInfo recovery_;
  /// Records recovered by Open, consumed by Replay.
  std::vector<WalRecord> pending_replay_;
  SnapshotContents pending_snapshot_;
  std::unique_ptr<WalWriter> wal_;
  /// Records logged since the last snapshot (or since Open).
  uint64_t records_since_snapshot_ = 0;

  obs::Counter* replay_records_total_;
  obs::Counter* snapshots_total_;
  obs::Counter* wal_repairs_total_;
  obs::Histogram* snapshot_duration_ns_;
};

}  // namespace persist
}  // namespace qse

#endif  // QSE_PERSIST_DURABILITY_H_
