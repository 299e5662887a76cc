#ifndef QSE_SERVER_ASYNC_RETRIEVAL_SERVER_H_
#define QSE_SERVER_ASYNC_RETRIEVAL_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "src/obs/metric_registry.h"
#include "src/obs/trace.h"
#include "src/retrieval/retrieval_backend.h"
#include "src/util/bounded_queue.h"
#include "src/util/future.h"
#include "src/util/statusor.h"

namespace qse {

struct AsyncServerOptions {
  /// Admission queue bound.  A Submit that finds the FIFO full is
  /// rejected with kResourceExhausted — load shedding, not unbounded
  /// buffering.  Beyond this, only the batches the workers hold (at most
  /// num_workers * max_batch requests) are out of the queue.
  size_t queue_capacity = 1024;
  /// Largest micro-batch a worker will coalesce (also the resolution of
  /// the batch-size histogram).
  size_t max_batch = 64;
  /// Batching window measured from the first request of a batch: with 0
  /// (default) a worker executes as soon as the queue is momentarily
  /// empty — an idle system answers at ~single-query latency, a loaded
  /// one grows batches naturally from backlog.  A positive window keeps
  /// the batch open up to this long waiting for more arrivals, trading
  /// idle latency for larger batches under light open-loop load.
  std::chrono::microseconds max_batch_delay{0};
  /// Worker threads (0 means 1), the server's only threads: each pops
  /// from the admission queue, forms its own batch and executes it, so
  /// up to num_workers batches run at once; within one batch,
  /// parallelism comes from RetrieveBatch itself.
  size_t num_workers = 1;
  /// num_threads the server substitutes into each executed batch's
  /// options (a request does not choose the server's parallelism);
  /// 0 = hardware concurrency.  Keep num_workers * retrieve_threads near
  /// the core count to avoid oversubscription.
  size_t retrieve_threads = 0;
  /// Trace every Nth valid Submit that does not already carry a trace
  /// (0 = never): the sampled request gets a RequestTrace recording
  /// admit/queue/batch/execute spans plus the backend's per-stage
  /// spans, returned on RetrievalResponse::trace.  Sampled requests run
  /// as singleton backend calls (bit-identical results by the backend
  /// contract), so keep N large under load.  No-op when the library is
  /// built with QSE_DISABLE_TRACING.
  size_t trace_every_n = 0;
  /// Registry receiving the server's metrics.  Null (default): the
  /// server owns a private registry, exposed via metrics() — private
  /// registries keep concurrently running servers (tests, benches) from
  /// summing into each other.  Non-null: must outlive the server.
  obs::MetricRegistry* registry = nullptr;
  /// Quality monitor offered to the backend on every request that does
  /// not already carry one (RetrievalOptions::audit_monitor): the
  /// backend samples 1-in-N completed responses into background
  /// exact-kNN audits (quality_monitor.h) feeding the qse_quality_*
  /// instruments and the drift alarm.  Null (default): no auditing.
  /// Borrowed; must outlive the server.
  obs::QualityMonitor* quality_monitor = nullptr;
};

/// Counter snapshot from AsyncRetrievalServer::stats().
///
/// Invariants (once all futures are ready, e.g. after Shutdown):
///   submitted == admitted + rejected
///   admitted  == completed + expired + cancelled + shed
struct ServerStats {
  size_t submitted = 0;  ///< All Submit calls.
  size_t admitted = 0;   ///< Entered the admission queue.
  size_t rejected = 0;   ///< Never queued: overflow, invalid options, or
                         ///< submitted after shutdown.
  /// Always 0: the FIFO admission queue never evicts an admitted
  /// request.  Kept only because perfbench's serve_churn still reads it.
  size_t shed = 0;
  size_t expired = 0;   ///< Answered kDeadlineExceeded at dequeue or
                        ///< just before refine.
  size_t cancelled = 0;  ///< Answered at Shutdown(kCancel) without
                         ///< reaching the backend.
  size_t completed = 0;  ///< Backend answered (OK or a backend error).
  size_t queue_depth = 0;  ///< Momentary admission-queue length.
  /// batch_size_histogram[i] = executed micro-batches of size i + 1.
  std::vector<size_t> batch_size_histogram;
};

/// True iff the admission accounting invariants hold for a quiescent
/// snapshot (every submitted future ready, e.g. after Shutdown):
///   submitted == admitted + rejected
///   admitted  == completed + expired + cancelled + shed
/// The one place the invariant is spelled out: tests assert it, and a
/// debug build QSE_DCHECKs it at the end of Shutdown.
bool CheckServerStatsInvariant(const ServerStats& stats);

/// The async serving front end: owns any RetrievalBackend (an engine
/// over any number of shards, or a decorator on one) behind a
/// Submit -> Future pipeline.
///
///   submitters -> bounded FIFO admission queue -> num_workers workers,
///   each: form a batch -> RetrieveBatch -> promise completion
///
/// Admission is one FIFO: workers dequeue in arrival order, and a Submit
/// that finds the queue full is itself rejected; nothing already
/// admitted is ever evicted.  There is no hand-off between dequeue and
/// execution: the worker that pops a batch's first request runs it.
///
/// Each worker coalesces queued requests into an adaptive micro-batch: it
/// keeps growing the batch while the queue is non-empty (up to max_batch),
/// capped by the max_batch_delay window, so batch size tracks load — an
/// idle server executes singletons immediately, a saturated one runs
/// full batches.  Requests in one micro-batch that share a result key
/// (RetrievalOptions::SameResultKey: equal k, p and want_stats) run as a
/// single RetrieveBatch call; each admitted, non-expired request's
/// result is bit-identical to a direct RetrievalBackend::Retrieve.
///
/// Every submitted request's future becomes ready exactly once, whatever
/// happens: backend result, kResourceExhausted (admission overflow),
/// kDeadlineExceeded (expired in queue or just before refine),
/// kInvalidArgument (bad options), or kFailedPrecondition (shutdown).
///
/// Thread-safety: Submit/Retrieve/stats are safe from any thread.
/// Shutdown is idempotent but must not race itself from two threads.  The
/// backend must stay alive while the server is running.  Mutation under
/// serving is supported: a server built over a mutable backend forwards
/// Insert/Remove to it, and the engines' epoch snapshots keep every
/// concurrently executing retrieval consistent (RetrievalBackend's
/// concurrency contract) — Submit traffic keeps flowing while the
/// database changes.
class AsyncRetrievalServer {
 public:
  enum class DrainMode {
    kDrain,   ///< Execute everything already admitted, then stop.
    kCancel,  ///< Answer everything not yet executing with
              ///< kFailedPrecondition, then stop.  In-flight batches
              ///< still finish normally.
  };

  /// Read-only server: retrieval only, Insert/Remove refused.
  explicit AsyncRetrievalServer(const RetrievalBackend* backend,
                                AsyncServerOptions options = {});
  /// Mutable server: additionally forwards Insert/Remove to `backend`
  /// while Submit traffic keeps being served.
  explicit AsyncRetrievalServer(RetrievalBackend* backend,
                                AsyncServerOptions options = {});
  /// Shutdown(kDrain) if still running.
  ~AsyncRetrievalServer();

  AsyncRetrievalServer(const AsyncRetrievalServer&) = delete;
  AsyncRetrievalServer& operator=(const AsyncRetrievalServer&) = delete;

  /// Enqueues one retrieval.  Never blocks: on overflow (or invalid
  /// options, or after shutdown) the returned future
  /// is already ready with the rejection status.  `request.dx` may be
  /// invoked on a worker thread any time before the future is ready;
  /// captured state must outlive that.
  Future<StatusOr<RetrievalResponse>> Submit(RetrievalRequest request);

  /// Blocking convenience: Submit + Get.
  StatusOr<RetrievalResponse> Retrieve(RetrievalRequest request);

  /// Inserts a new object into the backing database while the server
  /// keeps serving: concurrently executing retrievals each observe a
  /// consistent pre- or post-insert snapshot.  FailedPrecondition when
  /// the server was built over a read-only backend; otherwise forwards
  /// the backend's status.  Mutations are serialized by the backend.
  Status Insert(size_t db_id, const DxToDatabaseFn& dx);

  /// Removes an object while the server keeps serving; same contract as
  /// Insert.
  Status Remove(size_t db_id);

  /// Stops the server: closes admission, drains or cancels queued work,
  /// joins all threads.  On return every submitted future is ready.
  void Shutdown(DrainMode mode = DrainMode::kDrain);

  ServerStats stats() const;
  /// The registry holding this server's metrics (the injected one or
  /// the private default), with the momentary queue-depth gauge
  /// refreshed — ready for PrometheusText / MetricsJson export.
  obs::MetricRegistry& metrics() const;
  const RetrievalBackend& backend() const { return *backend_; }
  const AsyncServerOptions& options() const { return options_; }

 private:
  struct Request {
    RetrievalRequest req;
    Promise<StatusOr<RetrievalResponse>> promise;
    /// Trace stamps (ns since the request's trace epoch), carried along
    /// the pipeline so each stage's span starts where the previous one
    /// ended.  Unused (0) for untraced requests.
    uint64_t queue_start_ns = 0;
    uint64_t dequeue_ns = 0;
  };
  using Batch = std::vector<Request>;

  /// Pops a batch's first request, grows the batch from the admission
  /// queue, executes it; until the queue is closed and drained.
  void WorkerLoop();
  /// Deadline/cancel gate when a request leaves the admission queue:
  /// appends it to `batch` or completes its promise.  Returns whether it
  /// joined the batch.
  bool AdmitToBatch(Request r, Batch* batch, RetrievalClock::time_point now);
  /// Closes each traced request's batch_form span, re-gates each request
  /// (the check "before refine"), groups survivors by result key, runs
  /// RetrieveBatch per group, completes every promise.
  void ExecuteBatch(Batch batch);
  void CompleteCancelled(Request* r);

  const RetrievalBackend* backend_;
  /// Non-null iff constructed over a mutable backend; the Insert/Remove
  /// forwarding target.
  RetrievalBackend* mutable_backend_ = nullptr;
  AsyncServerOptions options_;
  BoundedQueue<Request> queue_;  // admission: submitters -> workers
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> cancel_{false};
  /// Submit calls currently executing.  Shutdown waits for this to hit
  /// zero before returning: a Submit may still be completing its own
  /// rejection after the queue has drained, and "every submitted future
  /// is ready" must cover that too.
  std::atomic<size_t> active_submits_{0};
  /// Submit ticks behind trace_every_n sampling.  Separate from the
  /// submitted counter: reading a striped Counter sums all its stripes,
  /// too much work for a per-Submit decision.
  std::atomic<uint64_t> trace_tick_{0};

  /// All counters below live in *registry_ (the injected registry or
  /// the private owned_registry_); the members are pointers resolved
  /// once at construction.  Every per-request accounting step is one
  /// wait-free striped Add — the old breakdown/histogram mutexes are
  /// gone, and stats() reconstructs ServerStats from the same storage
  /// the exporters read, so the two can never disagree.
  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  obs::MetricRegistry* registry_;

  obs::Counter* submitted_;
  obs::Counter* admitted_;
  obs::Counter* rejected_;
  obs::Counter* expired_;
  obs::Counter* cancelled_;
  obs::Counter* completed_;
  obs::Gauge* queue_depth_;
  obs::Histogram* batch_size_hist_;

  std::vector<std::thread> workers_;
};

}  // namespace qse

#endif  // QSE_SERVER_ASYNC_RETRIEVAL_SERVER_H_
