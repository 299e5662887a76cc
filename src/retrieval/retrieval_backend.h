#ifndef QSE_RETRIEVAL_RETRIEVAL_BACKEND_H_
#define QSE_RETRIEVAL_RETRIEVAL_BACKEND_H_

#include <chrono>
#include <cstddef>
#include <memory>
#include <vector>

#include "src/embedding/embedder.h"
#include "src/obs/trace.h"
#include "src/retrieval/filter_precision.h"
#include "src/util/status.h"
#include "src/util/statusor.h"
#include "src/util/timer.h"
#include "src/util/top_k.h"

namespace qse {

namespace obs {
class QualityMonitor;
}  // namespace obs

/// Clock used for request deadlines and trace timestamps.  MonotonicClock
/// is steady_clock-backed (immune to wall-clock jumps) and overridable
/// with a FakeClock in tests, so deadline tests advance time instead of
/// sleeping.
using RetrievalClock = MonotonicClock;

/// Per-request options: the one envelope every query surface consumes —
/// direct engine calls, remote calls, and the async server.
struct RetrievalOptions {
  /// Neighbors to return.
  size_t k = 1;
  /// Filter candidates to refine with exact distances; the paper's p.
  size_t p = 1;
  /// When true the response's shard_stats is filled with per-shard scan
  /// and candidate counters.
  bool want_stats = false;
  /// Absolute completion deadline, enforced by the async server: a
  /// request past it when it leaves the admission queue is answered
  /// with kDeadlineExceeded, never silently dropped or served late.  A
  /// remote call also sends the remaining budget with its RPC.  Direct
  /// engine calls do not check it.  Default: no deadline.
  RetrievalClock::time_point deadline = RetrievalClock::time_point::max();
  /// The filter scan's precision.  kExact64, the only scan there is, is
  /// the one valid value: the reduced enumerators name removed lossy
  /// scans and fail validation with InvalidArgument (FilterPrecision).
  FilterPrecision filter_precision = FilterPrecision::kExact64;
  /// When non-null, the backend offers 1-in-N completed responses to
  /// this monitor for background exact-kNN auditing (quality_monitor.h).
  /// Does not change results — the audit runs off the hot path against
  /// the same pinned snapshot the response was served from.  The async
  /// server attaches its configured monitor here; direct engine callers
  /// may set it themselves.  Borrowed: must outlive the request.
  obs::QualityMonitor* audit_monitor = nullptr;

  RetrievalOptions() = default;
  /// The common case: everything default except k and p.
  RetrievalOptions(size_t k_in, size_t p_in) : k(k_in), p(p_in) {}

  /// Convenience: an absolute deadline `budget` from now.
  template <typename Rep, typename Period>
  static RetrievalClock::time_point DeadlineIn(
      std::chrono::duration<Rep, Period> budget) {
    return RetrievalClock::now() +
           std::chrono::duration_cast<RetrievalClock::duration>(budget);
  }
};

/// The option checks shared verbatim by both engines and the async
/// server, so validation behavior cannot drift between surfaces:
///  * k == 0 or p == 0 is InvalidArgument (a filter that keeps nothing
///    is a caller bug, not a degenerate retrieval);
///  * a filter_precision other than kExact64 is InvalidArgument.
/// Database emptiness is a backend-state concern checked by the engines
/// (FailedPrecondition), not here.
Status ValidateRetrievalOptions(const RetrievalOptions& options);

/// One retrieval: the exact-distance resolver for the query plus its
/// options.  `dx` resolves DX(query, o) for database ids `o`; it may be
/// invoked from whichever thread executes the request.
struct RetrievalRequest {
  DxToDatabaseFn dx;
  RetrievalOptions options;
  /// When non-null, the backend records per-stage spans (embed, filter
  /// scan, merge, refine) into this trace.  Null (the default) costs one
  /// pointer check per stage.  Shared with the response so the serving
  /// layer and the caller read the same object.
  std::shared_ptr<obs::RequestTrace> trace;
};

/// Per-shard counters from one retrieval (want_stats); the raw material
/// for load balancing — a shard that keeps contributing most of the
/// merged top-p is either oversized or holds a hot region of the
/// embedded space.
struct ShardScanStats {
  /// Shard size (rows scanned by the filter step) at query time.
  size_t rows = 0;
  /// Entries this shard placed in the globally merged top-p.
  size_t candidates = 0;
};

/// Result of one filter-and-refine retrieval.
struct RetrievalResponse {
  /// Top-k neighbors by exact distance among the refined candidates,
  /// ascending by (score, database id); `index` is the database id.
  std::vector<ScoredIndex> neighbors;
  /// Exact DX evaluations spent: embedding step + refine step.  This is
  /// the paper's per-query cost measure.
  size_t exact_distances = 0;
  /// Of which, spent embedding the query.
  size_t embedding_distances = 0;
  /// Filled iff the request set want_stats: shard_stats[s] covers shard
  /// s of the engine.  Empty otherwise.
  std::vector<ShardScanStats> shard_stats;
  /// The request's trace, passed through when the request carried one
  /// (sampled requests in the async server); null otherwise.  By the
  /// time the caller holds the response, every backend span is closed.
  std::shared_ptr<obs::RequestTrace> trace;
};

/// Result of a filter-only candidate scan (ScanCandidates): the
/// backend's local top-p under the filter metric, before any exact
/// refine.  Candidate `index` fields are database ids and the list is
/// sorted by (score, id) — exactly the per-shard lists the engine's k-way
/// merge consumes, so a remote shard's scan merges interchangeably with
/// local ones.
struct ScanCandidatesResult {
  std::vector<ScoredIndex> candidates;
  /// Rows the backend held at scan time (the shard size a want_stats
  /// response reports for this backend).
  size_t rows = 0;
  /// Rows the scan did not keep in its running top p: rows scanned
  /// minus heap accepts (FilterScanStats::rows_pruned, summed over the
  /// backend's shards).
  size_t rows_pruned = 0;
  /// Rows the int8 prescreen dismissed without reading their float64
  /// row (FilterScanStats::rows_prescreened, summed); a subset of
  /// rows_pruned.
  size_t rows_prescreened = 0;
};

/// The serving-facing face of a retrieval engine: the filter-and-refine
/// query API plus incremental mutation, shared by RetrievalEngine and
/// the decorators stacked on it (remote, durable) so examples,
/// evaluation drivers and the serving layer swap one for the other
/// behind a single interface.
///
/// Contract, identical across implementations:
///  * Retrieve validates options via ValidateRetrievalOptions and
///    returns FailedPrecondition on an empty database; p is clamped to
///    size().
///  * Insert fails with InvalidArgument on a duplicate id, Remove with
///    NotFound on an unknown one.
///  * Retrieve is const and safe to call concurrently.
///    Insert/Remove are serialized internally and may run concurrently
///    with retrievals: every retrieval serves one epoch-pinned snapshot
///    of the database, consistent with some serializable prefix of the
///    applied mutations — it reflects every mutation that completed
///    before it started, no mutation that started after it finished,
///    and any subset of the ones in flight while it ran.
class RetrievalBackend {
 public:
  virtual ~RetrievalBackend() = default;

  /// Retrieves the k best matches among the top-p filter candidates.
  virtual StatusOr<RetrievalResponse> Retrieve(
      const RetrievalRequest& request) const = 0;

  /// Validates `options` once, then Retrieves each query in turn;
  /// results[i] corresponds to queries[i], and the first failure fails
  /// the batch.  Kept only because perfbench still overrides it; ROADMAP
  /// item 5 deletes it.
  virtual StatusOr<std::vector<RetrievalResponse>> RetrieveBatch(
      const std::vector<DxToDatabaseFn>& queries,
      const RetrievalOptions& options) const;

  /// Embeds a new object via `dx` and adds it under `db_id`.
  virtual Status Insert(size_t db_id, const DxToDatabaseFn& dx) = 0;

  /// Removes the object with id `db_id`.
  virtual Status Remove(size_t db_id) = 0;

  /// Filter-only scan: the backend's top-min(p, size()) candidates for
  /// an already-embedded query, as (database id, filter score) sorted by
  /// (score, id) — the distributable half of the pipeline.  The exact
  /// refine (which needs the caller's `dx` closure and so cannot cross a
  /// process boundary) stays with the caller: embed once, scan every
  /// shard, merge, refine the merged top p.  Honors the
  /// p/filter_precision semantics of Retrieve; `options.k` is ignored
  /// (no refine here).
  virtual StatusOr<ScanCandidatesResult> ScanCandidates(
      const Vector& embedded_query, const RetrievalOptions& options) const = 0;

  /// ScanCandidates for a traced request.  A backend whose scan runs in
  /// another process overrides it to graft that process's spans into
  /// `trace` (may be null); the default ignores the trace.
  virtual StatusOr<ScanCandidatesResult> TracedScanCandidates(
      const Vector& embedded_query, const RetrievalOptions& options,
      obs::RequestTrace* trace) const {
    (void)trace;
    return ScanCandidates(embedded_query, options);
  }

  /// Adds an object whose embedding was already computed (the remote
  /// path: the client embeds with its own `dx`, the row crosses the wire
  /// pre-embedded).  Same duplicate-id contract as Insert; the row must
  /// have the backend's dimensionality.
  virtual Status InsertEmbedded(size_t db_id, const Vector& embedded_row) = 0;

  /// Number of database objects currently live.
  virtual size_t size() const = 0;

  /// Database id behind a RetrievalResponse neighbor index: the
  /// identity, since neighbors are database ids on every backend.
  virtual size_t db_id_of(size_t neighbor_index) const {
    return neighbor_index;
  }
};

}  // namespace qse

#endif  // QSE_RETRIEVAL_RETRIEVAL_BACKEND_H_
