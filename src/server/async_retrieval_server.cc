#include "src/server/async_retrieval_server.h"

#include <optional>
#include <utility>

#include "src/obs/quality_monitor.h"
#include "src/util/logging.h"

namespace qse {

namespace {

AsyncServerOptions Sanitize(AsyncServerOptions o) {
  if (o.num_workers == 0) o.num_workers = 1;
  return o;
}

}  // namespace

bool CheckServerStatsInvariant(const ServerStats& stats) {
  if (stats.submitted != stats.admitted + stats.rejected) return false;
  if (stats.admitted !=
      stats.completed + stats.expired + stats.cancelled + stats.shed) {
    return false;
  }
  return true;
}

AsyncRetrievalServer::AsyncRetrievalServer(const RetrievalBackend* backend,
                                           AsyncServerOptions options)
    : backend_(backend),
      options_(Sanitize(options)),
      queue_(options_.queue_capacity),
      owned_registry_(options_.registry == nullptr
                          ? std::make_unique<obs::MetricRegistry>()
                          : nullptr),
      registry_(options_.registry != nullptr ? options_.registry
                                             : owned_registry_.get()),
      submitted_(registry_->GetCounter("qse_server_submitted_total")),
      admitted_(registry_->GetCounter("qse_server_admitted_total")),
      rejected_(registry_->GetCounter("qse_server_rejected_total")),
      expired_(registry_->GetCounter("qse_server_expired_total")),
      cancelled_(registry_->GetCounter("qse_server_cancelled_total")),
      completed_(registry_->GetCounter("qse_server_completed_total")),
      queue_depth_(registry_->GetGauge("qse_server_queue_depth")) {
  workers_.reserve(options_.num_workers);
  for (size_t w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back(&AsyncRetrievalServer::WorkerLoop, this);
  }
}

AsyncRetrievalServer::AsyncRetrievalServer(RetrievalBackend* backend,
                                           AsyncServerOptions options)
    : AsyncRetrievalServer(static_cast<const RetrievalBackend*>(backend),
                           std::move(options)) {
  mutable_backend_ = backend;
}

AsyncRetrievalServer::~AsyncRetrievalServer() { Shutdown(DrainMode::kDrain); }

Status AsyncRetrievalServer::Insert(size_t db_id, const DxToDatabaseFn& dx) {
  if (mutable_backend_ == nullptr) {
    return Status::FailedPrecondition(
        "server was built over a read-only backend");
  }
  return mutable_backend_->Insert(db_id, dx);
}

Status AsyncRetrievalServer::Remove(size_t db_id) {
  if (mutable_backend_ == nullptr) {
    return Status::FailedPrecondition(
        "server was built over a read-only backend");
  }
  return mutable_backend_->Remove(db_id);
}

Future<StatusOr<RetrievalResponse>> AsyncRetrievalServer::Submit(
    RetrievalRequest request) {
  active_submits_.fetch_add(1, std::memory_order_acq_rel);
  struct ActiveSubmitGuard {
    std::atomic<size_t>* count;
    ~ActiveSubmitGuard() { count->fetch_sub(1, std::memory_order_release); }
  } guard{&active_submits_};
  submitted_->Increment();
  Promise<StatusOr<RetrievalResponse>> promise;
  Future<StatusOr<RetrievalResponse>> future = promise.future();
  Status valid = ValidateRetrievalOptions(request.options);
  if (!valid.ok()) {
    rejected_->Increment();
    promise.Set(std::move(valid));
    return future;
  }
#ifndef QSE_DISABLE_TRACING
  if (options_.trace_every_n > 0 && request.trace == nullptr &&
      trace_tick_.fetch_add(1, std::memory_order_relaxed) %
              options_.trace_every_n ==
          0) {
    request.trace = std::make_shared<obs::RequestTrace>();
  }
#endif
  // Offer the server's quality monitor to the backend; the 1-in-N
  // sampling decision itself happens inside the backend, once per
  // completed response.  A caller-provided monitor wins.
  if (options_.quality_monitor != nullptr &&
      request.options.audit_monitor == nullptr) {
    request.options.audit_monitor = options_.quality_monitor;
  }
  Request r{std::move(request), promise};
  // Stamp the admit span before the push moves `r` into the queue.  The
  // span stays on a rejected request's trace too; nobody reads it — a
  // rejection never returns a response.
  if (r.req.trace != nullptr) {
    r.queue_start_ns = obs::TraceNowNs(r.req.trace.get());
    obs::TraceMark(r.req.trace.get(), "admit", 0);
  }
  // The refusal reason comes from under the queue lock: a full-queue
  // rejection racing Shutdown still reports load shedding (retryable),
  // not shutdown (terminal).
  switch (queue_.TryPushWithReason(std::move(r))) {
    case QueuePushResult::kAccepted:
      break;
    case QueuePushResult::kFull:
      rejected_->Increment();
      promise.Set(Status::ResourceExhausted("admission queue full"));
      return future;
    case QueuePushResult::kClosed:
      rejected_->Increment();
      promise.Set(Status::FailedPrecondition("server is shut down"));
      return future;
  }
  admitted_->Increment();
  return future;
}

StatusOr<RetrievalResponse> AsyncRetrievalServer::Retrieve(
    RetrievalRequest request) {
  return Submit(std::move(request)).Get();
}

void AsyncRetrievalServer::Shutdown(DrainMode mode) {
  if (shutdown_.exchange(true)) return;
  if (mode == DrainMode::kCancel) {
    cancel_.store(true, std::memory_order_relaxed);
  }
  queue_.Close();  // New submits fail; the workers drain what is queued.
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // A Submit racing this shutdown may still hold the unset promise of
  // its own rejection; wait it out so every future is ready on return.
  while (active_submits_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  // Every future is ready and all threads are joined: the admission
  // accounting must balance exactly now, and a debug build refuses to
  // let a miscounted server exit quietly.
  QSE_DCHECK_MSG(CheckServerStatsInvariant(stats()),
                 "server admission accounting out of balance at shutdown");
}

void AsyncRetrievalServer::CompleteCancelled(Request* r) {
  cancelled_->Increment();
  r->promise.Set(Status::FailedPrecondition("server shut down before the "
                                            "request was executed"));
}

void AsyncRetrievalServer::WorkerLoop() {
  for (;;) {
    std::optional<Request> r = queue_.Pop();
    if (!r.has_value()) break;  // Closed and fully drained.
    Execute(std::move(*r));
  }
}

void AsyncRetrievalServer::Execute(Request r) {
  obs::RequestTrace* trace = r.req.trace.get();
  obs::TraceMark(trace, "queue", r.queue_start_ns);
  if (cancel_.load(std::memory_order_relaxed)) {
    CompleteCancelled(&r);
    return;
  }
  // The one deadline gate: a request that died waiting in the admission
  // queue is answered late-but-honestly, never served.  Nothing sits
  // between this gate and the backend call.
  if (RetrievalClock::now() > r.req.options.deadline) {
    expired_->Increment();
    r.promise.Set(
        Status::DeadlineExceeded("deadline expired in the admission queue"));
    return;
  }
  uint64_t exec_start = obs::TraceNowNs(trace);
  StatusOr<RetrievalResponse> result = backend_->Retrieve(r.req);
  completed_->Increment();
  obs::TraceMark(trace, "execute", exec_start);
  // The whole request, Submit to completion: the denominator the
  // span-coverage acceptance gate divides by.
  obs::TraceMark(trace, "request", 0);
  r.promise.Set(std::move(result));
}

ServerStats AsyncRetrievalServer::stats() const {
  ServerStats s;
  s.submitted = submitted_->Value();
  s.admitted = admitted_->Value();
  s.rejected = rejected_->Value();
  s.expired = expired_->Value();
  s.cancelled = cancelled_->Value();
  s.completed = completed_->Value();
  s.queue_depth = queue_.size();
  s.batch_size_histogram = {s.completed};
  return s;
}

obs::MetricRegistry& AsyncRetrievalServer::metrics() const {
  queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  return *registry_;
}

}  // namespace qse
