#include "src/persist/durable_backend.h"

#include <utility>

namespace qse {
namespace persist {

DurableBackend::DurableBackend(
    RetrievalBackend* inner, const Embedder* embedder,
    DurabilityManager* manager,
    std::vector<const EmbeddedDatabase*> snapshot_dbs)
    : inner_(inner),
      embedder_(embedder),
      manager_(manager),
      snapshot_dbs_(std::move(snapshot_dbs)) {}

Status DurableBackend::Insert(size_t db_id, const DxToDatabaseFn& dx) {
  // Embed outside the mutex (it costs up to 2d exact distances), then
  // take the embedded path so the logged row is the applied row.
  Vector embedded = embedder_->Embed(dx);
  return InsertEmbedded(db_id, embedded);
}

Status DurableBackend::InsertEmbedded(size_t db_id,
                                      const Vector& embedded_row) {
  std::lock_guard<std::mutex> lock(mu_);
  QSE_RETURN_IF_ERROR(inner_->InsertEmbedded(db_id, embedded_row));
  return LogAppliedLocked(/*is_insert=*/true, db_id, &embedded_row);
}

Status DurableBackend::Remove(size_t db_id) {
  std::lock_guard<std::mutex> lock(mu_);
  QSE_RETURN_IF_ERROR(inner_->Remove(db_id));
  return LogAppliedLocked(/*is_insert=*/false, db_id, nullptr);
}

Status DurableBackend::WriteSnapshotNow() {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotLocked();
}

Status DurableBackend::LogAppliedLocked(bool is_insert, size_t db_id,
                                        const Vector* row) {
  if (is_insert) {
    QSE_RETURN_IF_ERROR(manager_->LogInsert(db_id, *row));
  } else {
    QSE_RETURN_IF_ERROR(manager_->LogRemove(db_id));
  }
  if (manager_->WantsSnapshot()) return SnapshotLocked();
  return Status::OK();
}

Status DurableBackend::SnapshotLocked() {
  // Pin every database at the current (mutation-quiet — we hold mu_)
  // version; the pins keep the views alive while encode runs.
  std::vector<EmbeddedDatabase::Snapshot> pins;
  std::vector<EmbeddedDatabase::View> views;
  pins.reserve(snapshot_dbs_.size());
  views.reserve(snapshot_dbs_.size());
  for (const EmbeddedDatabase* db : snapshot_dbs_) {
    pins.push_back(db->snapshot());
    views.push_back(pins.back().view());
  }
  return manager_->WriteSnapshot(manager_->last_seq(), views);
}

}  // namespace persist
}  // namespace qse
