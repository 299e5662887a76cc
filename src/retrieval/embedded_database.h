#ifndef QSE_RETRIEVAL_EMBEDDED_DATABASE_H_
#define QSE_RETRIEVAL_EMBEDDED_DATABASE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/distance/distance.h"
#include "src/util/aligned.h"
#include "src/util/epoch.h"

namespace qse {

/// The embedded database: one d-dimensional vector per database object, in
/// db-position order, plus the database id of every row.  Computed once
/// offline (the paper's "offline preprocessing step, in which we compute
/// and store vector F(x) for every database object").
///
/// Storage is a single contiguous row-major buffer rather than a
/// vector-of-vectors: the filter step is a linear scan over all rows, and
/// at production scale (n ~ 10^5..10^7, d ~ 10^2..10^3) the scan must
/// stream through memory without chasing one heap pointer per row.  Rows
/// are exposed as raw `const double*` views into the buffer.
///
/// Concurrency model (epoch/RCU — ROADMAP "concurrent mutation"):
/// the (rows, ids, row count) triple lives in an atomically published
/// Version.  Readers take a snapshot() — an epoch-pinned, immutable view —
/// and scan it without locks while mutations proceed:
///
///  * Append writes the new row into a never-published slot of the
///    current version and then publishes the grown row count, so pinned
///    readers either see the whole row or none of it.  When capacity is
///    exhausted (or a freed slot would be reused under a live pin), the
///    version is copied to a larger buffer and republished.
///  * SwapRemove of an interior row copy-on-writes a new version with the
///    last row moved into the gap — it never overwrites a row a pinned
///    reader may be scanning.  Removing the last row just shrinks the
///    published count (O(1)); the vacated slot is not reused in place,
///    so readers pinned at the old count still scan intact data.
///  * Replaced versions are retired to an EpochManager; their memory is
///    physically reused only after every reader pinned early enough to
///    have seen them has unpinned.
///
/// Every (version, count) pair a snapshot can observe equals the database
/// state after some prefix-closed sequence of the applied mutations — a
/// serializable snapshot — because published rows are immutable and the
/// count moves only between states that actually existed.
///
/// Mutations (Append/SwapRemove) must be serialized by the caller (the
/// engines hold a mutation mutex) but run concurrently with any number of
/// snapshot readers.  The quiescent bulk-load API (Resize, SetRow,
/// mutable_row, AssignIds, data(), row()) additionally requires that no
/// reader is active, exactly like the pre-epoch contract.
///
/// The int8 matrix: every version also carries a 64-byte-aligned int8
/// symmetric-quantized copy of its rows with per-dimension scales, which
/// the exact weighted-L1 scan prescreens on (FilterScorer::ScoreTopP).
/// It is a pure cache of the float64 rows: the prescreen is lossless, so
/// no result depends on its bytes or scales, and snapshots do not store
/// it.  Every mutation path maintains it under the same publication rules
/// as the float64 matrix — in-place Append writes the int8 row before the
/// release-store of the grown count, copy-on-write paths carry it into
/// the new version.  The scales are immutable within a version: an
/// Append whose value would not quantize within the half-step bound
/// (FitsInt8) forces a copy-on-write re-quantization of the whole matrix
/// with kRequantHeadroom, so `|stored| <= 127.5 * scale` holds for every
/// published row and the prescreen's margin stays sound.  A dimension
/// holding ±inf or NaN gets a non-finite scale instead (NaN is sticky
/// through re-quantization), which bounds nothing: every value fits it
/// and the prescreen margin built from it is +inf.  All row buffers
/// start on 64-byte boundaries via AlignedAllocator.
///
/// The raw bulk-load writer mutable_row() cannot maintain the int8
/// matrix, so it marks the current version's matrix stale: views of a
/// stale version carry none (View::has_i8() is false) and scan the
/// float64 rows alone, until RebuildPrescreenMatrix() requantizes it from
/// the float64 rows.  RetrievalEngine rebuilds a borrowed stale database
/// at construction, so every local shard prescreens.
class EmbeddedDatabase {
 public:
  /// Headroom an overflowing Append re-quantizes the int8 matrix with,
  /// so a drifting value distribution does not re-quantize on every
  /// insert.
  static constexpr double kRequantHeadroom = 1.25;

  /// Borrowed, immutable view of one published version.  Valid while the
  /// originating Snapshot is alive, or — for unpinned peeks via the
  /// implicit conversion — while the database is quiescent.
  class View {
   public:
    View() = default;

    size_t size() const { return rows_; }
    size_t dims() const { return dims_; }
    bool empty() const { return rows_ == 0; }
    /// The flat buffer, row-major, size() * dims() doubles.
    const double* data() const { return data_; }
    /// Row i: dims() contiguous doubles.
    const double* row(size_t i) const { return data_ + i * dims_; }
    /// Database id of row i.
    size_t id_of(size_t i) const { return ids_[i]; }
    /// The whole id column, size() entries (snapshot serialization).
    const size_t* ids() const { return ids_; }

    /// Whether this view carries the int8 matrix: false only for a
    /// version whose matrix mutable_row() left stale.
    bool has_i8() const { return has_i8_; }

    /// The int8 matrix, row-major, same shape as data(), and its
    /// per-dimension dequantization scales (dims() floats; value ~=
    /// scale[j] * row_i8(i)[j]).  Null unless has_i8().
    const int8_t* data_i8() const { return i8_; }
    const int8_t* row_i8(size_t i) const { return i8_ + i * dims_; }
    const float* i8_scales() const { return i8_scale_; }

   private:
    friend class EmbeddedDatabase;
    View(const double* data, const size_t* ids, size_t rows, size_t dims)
        : data_(data), ids_(ids), rows_(rows), dims_(dims) {}

    const double* data_ = nullptr;
    const size_t* ids_ = nullptr;
    size_t rows_ = 0;
    size_t dims_ = 0;
    const int8_t* i8_ = nullptr;
    const float* i8_scale_ = nullptr;
    bool has_i8_ = false;
  };

  /// An epoch-pinned View: the rows, ids and count it exposes stay valid
  /// and immutable until it is destroyed, whatever mutations land in the
  /// meantime.  Movable; keep it only as long as the scan needs it —
  /// retired versions cannot be reclaimed while pins are live.
  class Snapshot {
   public:
    const View& view() const { return view_; }
    const View* operator->() const { return &view_; }

   private:
    friend class EmbeddedDatabase;
    Snapshot(View view, EpochManager::Guard guard)
        : view_(view), guard_(std::move(guard)) {}

    View view_;
    EpochManager::Guard guard_;
  };

  EmbeddedDatabase() : EmbeddedDatabase(0) {}
  explicit EmbeddedDatabase(size_t dims);
  ~EmbeddedDatabase();

  /// Copying deep-copies the current version (quiescent operation, used
  /// by tests to keep a pre-mutation reference).
  EmbeddedDatabase(const EmbeddedDatabase& other);
  EmbeddedDatabase& operator=(const EmbeddedDatabase& other);
  EmbeddedDatabase(EmbeddedDatabase&& other) noexcept;
  EmbeddedDatabase& operator=(EmbeddedDatabase&& other) noexcept;

  /// Pins the calling context and returns a consistent (rows, ids,
  /// count) view.  Safe to call concurrently with mutations from any
  /// thread; the view never changes underneath the caller.
  Snapshot snapshot() const;

  /// Unpinned peek at the current version, for quiescent callers
  /// (evaluation drivers, tests, benches) that score a database nobody
  /// is mutating.
  operator View() const { return PeekView(); }

  /// Number of rows (database objects).  Safe to read concurrently with
  /// mutations — the count lives outside the versions, so this never
  /// touches memory that deferred reclamation could free.  Under
  /// concurrent mutation it is a momentary value; consistent reads go
  /// through snapshot().
  size_t size() const { return rows_.load(std::memory_order_acquire); }
  /// Dimensionality d of every row.
  size_t dims() const { return dims_; }
  bool empty() const { return size() == 0; }

  /// Borrowed view of row i of the current version.  Quiescent API:
  /// invalidated by mutation.
  const double* row(size_t i) const {
    return current()->data.data() + i * dims_;
  }
  /// Writable row i of the current version, for filling a Resize()d
  /// database in parallel.  Quiescent API.  Marks the current version's
  /// int8 matrix stale until RebuildPrescreenMatrix().
  double* mutable_row(size_t i) {
    Version* v = current();
    v->i8_valid.store(false, std::memory_order_relaxed);
    return v->data.data() + i * dims_;
  }

  /// The whole flat buffer of the current version, row-major,
  /// size() * dims() doubles, 64-byte aligned.  Quiescent API.
  const Aligned64Vector<double>& data() const { return current()->data; }

  /// Requantizes the int8 matrix from the current float64 rows, scales
  /// fitted to each dimension's largest magnitude (no headroom), and
  /// marks it fresh.  Quiescent API (it rewrites the current version in
  /// place); call after filling rows through mutable_row().
  void RebuildPrescreenMatrix();

  /// Database id of row i of the current version.
  size_t id_of(size_t i) const;

  /// Copy of the current version's ids, in row order.
  std::vector<size_t> ids() const;

  /// Copy of row i as an owning Vector (convenience; prefer row() in hot
  /// loops).
  Vector RowVector(size_t i) const;

  /// Pre-allocates capacity for `rows` rows (copy-on-write when the
  /// current version is smaller).  No-op on a dimensionless database
  /// (dims() == 0) and when the capacity already suffices.
  void Reserve(size_t rows);

  /// Grows/shrinks to `rows` rows; new rows are zero-filled with ids
  /// equal to their row index.  Used with mutable_row() to fill the
  /// database in parallel.  Quiescent API.
  void Resize(size_t rows);

  /// Appends a row under database id `id` (`row.size()` must equal
  /// dims()).  Returns the new row's index.  O(d) amortized — the
  /// incremental insert of the dynamic dataset scenario — and safe
  /// against concurrent pinned readers.
  size_t Append(const Vector& row, size_t id);
  /// Appends a row with id defaulting to the new row's index (bulk-load
  /// call sites that assign real ids later via AssignIds).
  size_t Append(const Vector& row);

  /// Appends a borrowed row of dims() contiguous doubles (e.g. a row()
  /// view, even of this database) without materializing a temporary
  /// Vector.
  size_t Append(const double* row, size_t id);
  size_t Append(const double* row);

  /// Overwrites row i.  Quiescent API (mutating a published row under a
  /// live pin would tear a concurrent scan).
  void SetRow(size_t i, const Vector& row);

  /// Installs `ids[i]` as the database id of row i (ids.size() must
  /// equal size()).  Quiescent API; engines call it at construction.
  void AssignIds(const std::vector<size_t>& ids);

  /// Removes row i in O(d) by moving the last row into slot i and
  /// shrinking.  Returns the former index of the row that now occupies
  /// slot i (== i when removing the last row, i.e. nothing moved — that
  /// case only shrinks the published count, no copy at all).  Callers
  /// tracking row -> object-id mappings must apply the same swap; the
  /// internal id column follows it automatically.  Interior removals
  /// copy-on-write the version so concurrent pinned readers keep
  /// scanning the old one.
  size_t SwapRemove(size_t i);

  /// Runs deferred reclamation for versions whose readers have drained.
  /// Mutations do this opportunistically; call directly to bound memory
  /// during read-only phases.
  void ReclaimDrained() const { epoch_.ReclaimDrained(); }

  /// The epoch manager guarding this database's versions (tests).
  EpochManager& epoch_manager() const { return epoch_; }

  /// Installs a complete version — `rows` float64 rows and their ids —
  /// replacing whatever the database held, and builds its int8 matrix
  /// the way Append's re-quantization does (kRequantHeadroom).  The
  /// durability subsystem's restore path.  Results never depend on the
  /// int8 scales, so a restored database answers bit-identically to the
  /// one that was snapshotted; its scales, and so its rows_prescreened
  /// counts, match too when that database's last re-quantization saw the
  /// same per-dimension maxima as the restored rows (scales are
  /// mutation-history-dependent: a construction-time rebuild fits them
  /// without headroom, an overflowing insert re-fits them with it).
  /// Quiescent API.
  void RestoreVersion(size_t rows, const double* data, const size_t* ids);

  /// Builds a flat database from rows-of-vectors (all rows must share one
  /// dimensionality); row i gets id i.  Bridge from AoS call sites and
  /// tests.
  static EmbeddedDatabase FromRows(const std::vector<Vector>& rows);

 private:
  /// One published generation of the database.  `data`/`ids` never
  /// reallocate after construction (capacity is fixed), so raw pointers
  /// handed to readers stay valid for the version's lifetime; `size` is
  /// the published row count.  `high_water` is the largest row count
  /// ever published from this version: slots below it may be visible to
  /// pinned readers and are never rewritten in place.
  struct Version {
    Version(size_t dims, size_t capacity_rows);

    // Row-major, exactly size * dims doubles, 64-byte-aligned base.
    Aligned64Vector<double> data;
    std::vector<size_t> ids;  // ids[i] = database id of row i.
    // The int8 matrix: same row-major shape as `data` while i8_valid,
    // same capacity discipline — reserved up front, never reallocated,
    // slots below high_water never rewritten.  `i8_scale` (dims floats)
    // is immutable once the version is visible to readers;
    // re-quantization always copies-on-write.  mutable_row() clears
    // i8_valid (relaxed: parallel fillers store the same value), after
    // which mutations stop maintaining the matrix until a rebuild.
    Aligned64Vector<int8_t> i8;
    std::vector<float> i8_scale;
    std::atomic<bool> i8_valid{true};
    std::atomic<size_t> size{0};
    size_t high_water = 0;  // Mutator-only.
    size_t capacity_rows = 0;
  };

  Version* current() const {
    return current_.load(std::memory_order_seq_cst);
  }
  View PeekView() const;
  /// A View of `v` at `rows` rows, int8 pointers attached while fresh.
  View ViewOf(const Version* v, size_t rows) const;

  /// Allocates a version and huge-page-advises its buffer when large.
  Version* NewVersion(size_t capacity_rows) const;
  /// A version of `capacity_rows` holding the first `rows` rows and ids
  /// of `v`, its int8 matrix and scales too while fresh (stale stays
  /// stale); count and high water set to `rows`, unpublished.
  Version* CopyVersion(const Version* v, size_t rows,
                       size_t capacity_rows) const;
  /// Publishes `next` and retires the previous version to the epoch
  /// manager.
  void PublishAndRetire(Version* next);

  /// Whether `row` quantizes under v's scales within the half-step
  /// bound on every dimension (trivially true for a stale matrix).
  bool RowFitsI8(const Version* v, const double* row) const;
  /// Quantizes float64 row i of `v` into its int8 matrix (which must
  /// already have space for it).
  void FillI8Row(Version* v, size_t i) const;
  /// Recomputes v's scales from its first n float64 rows (times
  /// `headroom`) and quantizes those rows.  Quiescent/unpublished `v`
  /// only.
  void RequantizeI8(Version* v, size_t n, double headroom) const;

  size_t dims_ = 0;
  std::atomic<Version*> current_{nullptr};
  /// Mirror of the current version's published row count, kept outside
  /// the versions so size()/empty() peeks are safe under concurrent
  /// mutation (a version pointer chased without a pin could already be
  /// reclaimed).
  std::atomic<size_t> rows_{0};
  mutable EpochManager epoch_;
};

}  // namespace qse

#endif  // QSE_RETRIEVAL_EMBEDDED_DATABASE_H_
