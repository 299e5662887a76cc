#ifndef QSE_PERSIST_DURABLE_BACKEND_H_
#define QSE_PERSIST_DURABLE_BACKEND_H_

#include <mutex>
#include <vector>

#include "src/persist/durability.h"
#include "src/retrieval/retrieval_backend.h"

namespace qse {
namespace persist {

/// RetrievalBackend decorator that makes an engine's mutations durable:
/// retrievals pass straight through (database snapshots need no help
/// from this layer), mutations apply to the inner backend and are then
/// logged to the WAL under one mutex, so the log is the exact successful
/// mutation sequence in apply order — the property replay depends on.
///
/// Apply-then-log: a mutation that fails application is never logged; a
/// crash between apply and log loses only that one unacknowledged
/// mutation (the caller never saw OK).  A log failure after a successful
/// apply is returned to the caller as the mutation's status — the state
/// diverged from the log by one record the caller knows was not made
/// durable.
///
/// Insert embeds ONCE here (the engine's Insert would embed internally,
/// leaving nothing to log), then routes the row through InsertEmbedded —
/// the same closure-free form the WAL records and replay re-applies.
///
/// Snapshots (auto via DurabilityOptions::snapshot_every_records, or
/// WriteSnapshotNow) run under the same mutex: mutations stall for the
/// snapshot's duration while retrievals continue against the versions
/// their snapshots hold.  The cut-point is therefore exactly
/// last_seq(), and the WAL truncation that follows the publish cannot
/// race a concurrent append.  (ROADMAP: incremental snapshots move the
/// encode off the mutation path.)
class DurableBackend : public RetrievalBackend {
 public:
  /// All pointers are borrowed and must outlive the backend.
  /// `snapshot_dbs` are the databases a snapshot serializes, in a FIXED
  /// order that recovery must reproduce when installing: the engine's
  /// shard databases in shard order.
  DurableBackend(RetrievalBackend* inner, const Embedder* embedder,
                 DurabilityManager* manager,
                 std::vector<const EmbeddedDatabase*> snapshot_dbs);

  StatusOr<RetrievalResponse> Retrieve(
      const RetrievalRequest& request) const override {
    return inner_->Retrieve(request);
  }
  StatusOr<ScanCandidatesResult> ScanCandidates(
      const Vector& embedded_query,
      const RetrievalOptions& options) const override {
    return inner_->ScanCandidates(embedded_query, options);
  }

  Status Insert(size_t db_id, const DxToDatabaseFn& dx) override;
  Status InsertEmbedded(size_t db_id, const Vector& embedded_row) override;
  Status Remove(size_t db_id) override;

  size_t size() const override { return inner_->size(); }

  /// Takes a compacted snapshot now, at cut point last_seq().  Serialized
  /// against mutations; safe concurrently with retrievals.
  Status WriteSnapshotNow();

  DurabilityManager* manager() const { return manager_; }

 private:
  /// Logs one applied mutation and auto-snapshots when the manager says
  /// the WAL has grown enough.  Caller holds mu_.
  Status LogAppliedLocked(bool is_insert, size_t db_id, const Vector* row);
  Status SnapshotLocked();

  RetrievalBackend* inner_;
  const Embedder* embedder_;
  DurabilityManager* manager_;
  std::vector<const EmbeddedDatabase*> snapshot_dbs_;
  std::mutex mu_;
};

}  // namespace persist
}  // namespace qse

#endif  // QSE_PERSIST_DURABLE_BACKEND_H_
