#ifndef QSE_SERVER_ASYNC_RETRIEVAL_SERVER_H_
#define QSE_SERVER_ASYNC_RETRIEVAL_SERVER_H_

#include <atomic>
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
  /// buffering.  Beyond this, only the requests the workers are
  /// executing (at most num_workers) are out of the queue.
  size_t queue_capacity = 1024;
  /// Worker threads (0 means 1), the server's only threads and its
  /// parallelism: each pops one request from the admission queue and
  /// runs it through RetrievalBackend::Retrieve, so up to num_workers
  /// requests execute at once.  A sharded engine's scatter_threads fans
  /// each request's filter scan out on top of this; keep num_workers *
  /// scatter_threads near the core count to avoid oversubscription.
  size_t num_workers = 1;
  /// Ignored.  Kept only because perfbench's serve_churn still sets it;
  /// ROADMAP item 5 deletes it.
  size_t retrieve_threads = 0;
  /// Trace every Nth valid Submit that does not already carry a trace
  /// (0 = never): the sampled request gets a RequestTrace recording
  /// admit/queue/execute spans plus the backend's per-stage spans,
  /// returned on RetrievalResponse::trace.  Sampled requests take the
  /// same backend path as every other request.  No-op when the library
  /// is built with QSE_DISABLE_TRACING.
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
  size_t expired = 0;   ///< Answered kDeadlineExceeded at dequeue.
  size_t cancelled = 0;  ///< Answered at Shutdown(kCancel) without
                         ///< reaching the backend.
  size_t completed = 0;  ///< Backend answered (OK or a backend error).
  size_t queue_depth = 0;  ///< Momentary admission-queue length.
  /// Always {completed}: every executed request is its own batch.  Kept
  /// only because perfbench's serve_churn still reads it; ROADMAP item 5
  /// deletes it.
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
///   each: pop one request -> Retrieve -> promise completion
///
/// Admission is one FIFO: workers dequeue in arrival order, and a Submit
/// that finds the queue full is itself rejected; nothing already
/// admitted is ever evicted.  There is no hand-off between dequeue and
/// execution: the worker that pops a request runs it, and the result is
/// the backend's own Retrieve result, bit-identical to a direct call.
///
/// Every submitted request's future becomes ready exactly once, whatever
/// happens: backend result, kResourceExhausted (admission overflow),
/// kDeadlineExceeded (expired in the admission queue),
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
              ///< kFailedPrecondition, then stop.  In-flight requests
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
    /// Trace stamp (ns since the request's trace epoch) at admission,
    /// where the queue span starts.  Unused (0) for untraced requests.
    uint64_t queue_start_ns = 0;
  };

  /// Pops one request at a time and executes it, until the queue is
  /// closed and drained.
  void WorkerLoop();
  /// The dequeue gate (cancel, then deadline), then Retrieve; completes
  /// the request's promise either way.
  void Execute(Request r);
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

  std::vector<std::thread> workers_;
};

}  // namespace qse

#endif  // QSE_SERVER_ASYNC_RETRIEVAL_SERVER_H_
