#ifndef QSE_RETRIEVAL_RETRIEVAL_ENGINE_H_
#define QSE_RETRIEVAL_RETRIEVAL_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/embedding/embedder.h"
#include "src/obs/metric_registry.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/filter_scorer.h"
#include "src/retrieval/retrieval_backend.h"
#include "src/util/statusor.h"
#include "src/util/top_k.h"

namespace qse {

/// Shard layout of a RetrievalEngine built over owned shard databases.
struct ShardedEngineOptions {
  /// Number of shards S.  0 means one shard per hardware core.
  size_t num_shards = 0;
  /// Threads used to scatter one query's filter scan across shards.  0
  /// means hardware concurrency.  An async server's num_workers run
  /// queries in parallel on top of this.
  size_t scatter_threads = 0;
};

/// The shard database id `db_id` lives in: mix64(db_id) % num_shards.
/// Stateless and deterministic, so every engine over the same ids agrees
/// and out-of-process shard builders (a remote shard server populating
/// its slice of the database) reproduce the partition an engine composed
/// over them routes against.
size_t HashShardOf(size_t db_id, size_t num_shards);

/// The retrieval engine: the three-step filter-and-refine pipeline of
/// Sec. 8 (embed the query, keep the p most similar vectors, re-rank
/// those p by exact distance) over S >= 1 shards of the embedded
/// database, each query's shard scans thread-parallel.
///
/// A shard is either a local EmbeddedDatabase (owned, or borrowed by the
/// single-shard constructor) with its id -> row index, or a
/// RetrievalBackend reached through ScanCandidates (a remote server or
/// another engine).  Every query runs one path:
/// embed once, scan every shard (one snapshot per local shard), merge
/// the per-shard top-p lists under the (score, id) order, refine the
/// merged top p once, audit against the scanned snapshots.  Every row
/// is scored by the same kernel wherever it lives and every tie is
/// broken by database id, so results are bit-identical across shard
/// counts and topologies.  Neighbors are always database ids.
///
/// Mutations route by HashShardOf(id, S) (Sec. 7.1 dynamic datasets):
/// Insert embeds in O(d) exact distances and appends to the destination
/// shard, Remove drops a row via the database's swap-with-last.  The
/// destination shard alone decides duplicate / not-found.
///
/// Thread-safety: Retrieve is const and safe to call
/// concurrently as long as the embedder, scorer and `dx` callbacks are.
/// Insert/Remove are serialized internally and may run concurrently with
/// retrievals: each retrieval holds one snapshot per local shard and
/// serves it consistently, while mutations publish new versions the
/// next retrieval picks up.  A retrieval observes every mutation that
/// completed before it started, never one that started after it
/// finished, and any subset of concurrent ones.
class RetrievalEngine : public RetrievalBackend {
 public:
  /// One shard over a borrowed `db`; `db_ids[i]` is the database id of
  /// row i (installed into the database's id column).  The engine
  /// mutates `db` only through Insert/Remove, and by rebuilding its int8
  /// matrix when mutable_row() left it stale, so the filter scan always
  /// prescreens on it (FilterScorer::ScoreTopP).
  RetrievalEngine(const Embedder* embedder, const FilterScorer* scorer,
                  EmbeddedDatabase* db, std::vector<size_t> db_ids);

  /// S empty owned shards of dimensionality embedder->dims(); fill it
  /// through Insert.  Each shard's int8 matrix is maintained from the
  /// first insert on, so the scan prescreens at any size.
  RetrievalEngine(const Embedder* embedder, const FilterScorer* scorer,
                  ShardedEngineOptions options);

  /// Partitions an already-embedded database across S owned shards by
  /// HashShardOf, copying rows — no re-embedding.  `db_ids[i]` is the
  /// database id of row i of `db`; ids must be unique.  `db` is only
  /// read during construction and not retained.  Each shard builds its
  /// int8 matrix once, after the rows are copied in.
  RetrievalEngine(const Embedder* embedder, const FilterScorer* scorer,
                  const EmbeddedDatabase& db, const std::vector<size_t>& db_ids,
                  ShardedEngineOptions options = {});

  /// Composes over pre-built shard backends — the multi-node topology:
  /// each backend is typically a RemoteRetrievalBackend and the scan
  /// step calls its ScanCandidates.  shard_backends[s] serves shard s
  /// and must hold the ids HashShardOf routes to s.  options.num_shards
  /// is taken from the backend count.  Quality audits are skipped: the
  /// scanned snapshots live in the backends.
  RetrievalEngine(const Embedder* embedder,
                  std::vector<std::shared_ptr<RetrievalBackend>> shard_backends,
                  ShardedEngineOptions options = {});

  /// Retrieves the k best matches among the top-p filter candidates;
  /// neighbor indices are database ids.  Options are validated by
  /// ValidateRetrievalOptions; an empty database is FailedPrecondition.
  /// p is clamped to the database size (p = n degenerates to brute
  /// force, as in the paper).  want_stats reports one entry per shard.
  ///
  /// An all-local engine refuses an empty database before embedding,
  /// from the shards' row counts.  A composed engine embeds first and
  /// learns emptiness from the scan: a composed shard's size() is a
  /// kInfo round trip that reads an unreachable peer as 0, so a
  /// pre-check would add S round trips to every read and would answer
  /// FailedPrecondition where the truth is "peer down" (the scan
  /// reports that as the peer's error).
  StatusOr<RetrievalResponse> Retrieve(
      const RetrievalRequest& request) const override;

  /// Embeds a new object (<= 2d exact distances via `dx`) and adds it to
  /// shard HashShardOf(db_id, S).  InvalidArgument when the id is
  /// already present.  Safe concurrently with retrievals.
  Status Insert(size_t db_id, const DxToDatabaseFn& dx) override;

  /// Removes the object with id `db_id` from its shard (swap-with-last).
  /// NotFound for unknown ids.  Safe concurrently with retrievals.
  Status Remove(size_t db_id) override;

  /// Filter-only scan: scatter, merge to the top p, skip the refine —
  /// what this engine contributes as a shard of a larger deployment
  /// (a RetrievalServer wrapping it is a drop-in remote shard).
  StatusOr<ScanCandidatesResult> ScanCandidates(
      const Vector& embedded_query,
      const RetrievalOptions& options) const override;

  /// Adds an already-embedded row (the remote Insert path; the embedding
  /// step ran client-side).  InvalidArgument on duplicate id or wrong
  /// dimensionality.  Safe concurrently with retrievals.
  Status InsertEmbedded(size_t db_id, const Vector& embedded_row) override;

  /// Objects currently live, summed over the shards.
  size_t size() const override;

  size_t num_shards() const { return shards_.size(); }
  /// Current per-shard sizes.
  std::vector<size_t> shard_sizes() const;
  /// Shard that `db_id` routes to.
  size_t ShardOf(size_t db_id) const {
    return HashShardOf(db_id, shards_.size());
  }

  /// Rebuilds every local shard's id -> row index from its database's
  /// current id column — required after the durability subsystem
  /// restores database contents underneath a constructed engine
  /// (RestoreVersion replaces rows and ids wholesale).  Quiescent API;
  /// a duplicate id, or an id stored in a shard it does not route to,
  /// aborts.
  void RebuildIdIndex();

  /// Database ids of every local shard, shard by shard in row order.
  std::vector<size_t> db_ids() const;
  /// Shard `s`'s database; local shards only.
  const EmbeddedDatabase& db(size_t s = 0) const { return *shards_[s].db; }
  /// Shard `s`'s database, mutable — the durability restore target
  /// (RestoreVersion, then RebuildIdIndex).  Local shards only;
  /// quiescent API.
  EmbeddedDatabase* mutable_db(size_t s = 0) { return shards_[s].db; }

 private:
  struct Shard {
    /// Local shards: the scanned database (`owned` when the engine built
    /// it) and its id -> row index, maintained only under mutation_mu_ —
    /// readers resolve ids through their snapshot's id column instead.
    EmbeddedDatabase* db = nullptr;
    std::unique_ptr<EmbeddedDatabase> owned;
    std::unordered_map<size_t, size_t> row_of;
    /// Composed shards: every operation goes through this backend.
    std::shared_ptr<RetrievalBackend> backend;
  };

  /// Metrics and knobs only; the public constructors add the shards.
  RetrievalEngine(const Embedder* embedder, const FilterScorer* scorer,
                  size_t scatter_threads);

  /// Owned shards of `dims`-dimensional databases (0 shards = one per
  /// hardware core).
  void AddOwnedShards(size_t num_shards, size_t dims);

  /// The scan step: every shard's (score, id)-sorted top p and row
  /// counts, scanned on scatter_threads_.  A non-null `trace` gets one
  /// shard_scan span per shard, the spans of each thread tiling from
  /// `*trace_ns` (the scan's start on entry, the last span's end on
  /// return); a non-null `snapshots` keeps each local shard's snapshot
  /// for a quality audit.
  Status Scan(const Vector& fq, const RetrievalOptions& options,
              obs::RequestTrace* trace, uint64_t* trace_ns,
              std::vector<ScanCandidatesResult>* scans,
              std::vector<EmbeddedDatabase::Snapshot>* snapshots) const;

  /// Adds an embedded row to its shard; caller holds mutation_mu_.
  Status AppendLocked(Shard& shard, size_t db_id, const Vector& row);

  const Embedder* embedder_;
  const FilterScorer* scorer_;
  size_t scatter_threads_ = 0;
  std::vector<Shard> shards_;
  /// True when every shard is local (no composed backends): enables the
  /// pre-embed emptiness check and quality audits.
  bool local_ = true;
  /// Global-registry metrics, one family per stage, resolved once at
  /// construction (pointers are stable for the registry's lifetime) so
  /// the hot path never takes the registry lock.
  obs::Counter* retrievals_total_;
  obs::Counter* exact_distances_total_;
  obs::Counter* filter_rows_visited_total_;
  obs::Counter* filter_rows_pruned_total_;
  obs::Counter* filter_rows_prescreened_total_;
  obs::Histogram* embed_ns_;
  obs::Histogram* scan_ns_;
  obs::Histogram* merge_ns_;
  obs::Histogram* refine_ns_;
  /// Serializes local-shard Insert/Remove against each other (retrievals
  /// never take it — they take snapshots instead).
  std::mutex mutation_mu_;
};

}  // namespace qse

#endif  // QSE_RETRIEVAL_RETRIEVAL_ENGINE_H_
