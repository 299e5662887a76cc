#include "src/server/async_retrieval_server.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/obs/quality_monitor.h"
#include "src/util/logging.h"

namespace qse {

namespace {

AsyncServerOptions Sanitize(AsyncServerOptions o) {
  if (o.max_batch == 0) o.max_batch = 1;
  if (o.num_workers == 0) o.num_workers = 1;
  return o;
}

/// Integer boundaries 1..max_batch: every batch size gets its own
/// bucket, so the exported histogram is exact, not interpolated.
std::vector<double> BatchSizeBoundaries(size_t max_batch) {
  std::vector<double> boundaries;
  boundaries.reserve(max_batch);
  for (size_t b = 1; b <= max_batch; ++b) {
    boundaries.push_back(static_cast<double>(b));
  }
  return boundaries;
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
      // One pending batch per worker: backlog accumulates in the bounded
      // admission queue (where overflow is observable), not in an elastic
      // dispatch buffer.
      dispatch_(options_.num_workers),
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
      queue_depth_(registry_->GetGauge("qse_server_queue_depth")),
      batch_size_hist_(registry_->GetHistogram(
          "qse_server_batch_size", BatchSizeBoundaries(options_.max_batch))) {
  batcher_ = std::thread(&AsyncRetrievalServer::BatcherLoop, this);
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
  queue_.Close();  // New submits fail; the batcher drains what is queued.
  if (batcher_.joinable()) batcher_.join();
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

bool AsyncRetrievalServer::AdmitToBatch(Request r, Batch* batch,
                                        RetrievalClock::time_point now) {
  if (r.req.trace != nullptr) {
    r.dequeue_ns = obs::TraceNowNs(r.req.trace.get());
    obs::TraceMark(r.req.trace.get(), "queue", r.queue_start_ns);
  }
  if (cancel_.load(std::memory_order_relaxed)) {
    CompleteCancelled(&r);
    return false;
  }
  // Deadline check #1, at dequeue: a request that died waiting in the
  // admission queue must not take a batch slot.
  if (now > r.req.options.deadline) {
    expired_->Increment();
    r.promise.Set(
        Status::DeadlineExceeded("deadline expired in the admission queue"));
    return false;
  }
  batch->push_back(std::move(r));
  return true;
}

void AsyncRetrievalServer::BatcherLoop() {
  for (;;) {
    std::optional<Request> first = queue_.Pop();
    if (!first.has_value()) break;  // Closed and fully drained.

    Batch batch;
    // The batching window opens when the batch's first request is
    // dequeued, so the first arrival bounds its own extra latency.
    RetrievalClock::time_point window_end =
        RetrievalClock::now() + options_.max_batch_delay;
    AdmitToBatch(std::move(*first), &batch, RetrievalClock::now());

    // Adaptive growth: keep coalescing while requests are available.
    // With no window this stops the moment the queue is empty (idle =>
    // singleton batches at single-query latency; backlog => full
    // batches); with a window it also waits out the remaining time for
    // stragglers.
    while (!batch.empty() && batch.size() < options_.max_batch) {
      std::optional<Request> next;
      if (options_.max_batch_delay.count() == 0) {
        next = queue_.TryPop();
      } else {
        auto remaining = window_end - RetrievalClock::now();
        if (remaining.count() <= 0) {
          next = queue_.TryPop();
          if (!next.has_value()) break;
        } else {
          next = queue_.PopFor(remaining);
        }
      }
      if (!next.has_value()) break;
      AdmitToBatch(std::move(*next), &batch, RetrievalClock::now());
    }
    if (batch.empty()) continue;  // Everything expired or cancelled.

    batch_size_hist_->Record(
        static_cast<double>(std::min(batch.size(), options_.max_batch)));
    for (Request& r : batch) {
      if (r.req.trace != nullptr) {
        r.dispatch_ns = obs::TraceNowNs(r.req.trace.get());
        obs::TraceMark(r.req.trace.get(), "batch_form", r.dequeue_ns,
                       {obs::TraceArg{"batch_size",
                                      static_cast<int64_t>(batch.size()),
                                      nullptr}});
      }
    }
    if (!dispatch_.Push(std::move(batch))) {
      // Only possible after the dispatch queue is closed, which this
      // thread does below — defensive: never drop promises.
      for (Request& r : batch) CompleteCancelled(&r);
    }
  }
  dispatch_.Close();  // Workers drain remaining batches, then exit.
}

void AsyncRetrievalServer::WorkerLoop() {
  for (;;) {
    std::optional<Batch> batch = dispatch_.Pop();
    if (!batch.has_value()) break;
    ExecuteBatch(std::move(*batch));
  }
}

void AsyncRetrievalServer::ExecuteBatch(Batch batch) {
  // Deadline check #2, before refine: the last gate before the backend
  // spends exact distances.  A request that expired while its batch sat
  // in the dispatch queue is answered late-but-honestly, not served.
  RetrievalClock::time_point now = RetrievalClock::now();
  Batch live;
  live.reserve(batch.size());
  for (Request& r : batch) {
    if (r.req.trace != nullptr) {
      obs::TraceMark(r.req.trace.get(), "dispatch_wait", r.dispatch_ns);
    }
    if (cancel_.load(std::memory_order_relaxed)) {
      CompleteCancelled(&r);
    } else if (now > r.req.options.deadline) {
      expired_->Increment();
      r.promise.Set(Status::DeadlineExceeded(
          "deadline expired before the refine step"));
    } else {
      live.push_back(std::move(r));
    }
  }

  // All requests sharing a result key — adjacent or not — execute as one
  // RetrieveBatch call; results[i] is bit-identical to
  // Retrieve(requests[i]) by the backend contract.  Group count is tiny
  // (bounded by max_batch), so a linear group scan beats hashing.
  // Traced requests get singleton groups: they go through the backend's
  // single-request path, the only one that records per-stage spans —
  // with identical results, again by the backend contract.
  std::vector<std::vector<size_t>> groups;
  for (size_t t = 0; t < live.size(); ++t) {
    std::vector<size_t>* group = nullptr;
    if (live[t].req.trace == nullptr) {
      for (std::vector<size_t>& g : groups) {
        if (live[g[0]].req.trace == nullptr &&
            live[g[0]].req.options.SameResultKey(live[t].req.options)) {
          group = &g;
          break;
        }
      }
    }
    if (group == nullptr) {
      groups.emplace_back();
      group = &groups.back();
    }
    group->push_back(t);
  }
  for (const std::vector<size_t>& group : groups) {
    if (group.size() == 1 && live[group[0]].req.trace != nullptr) {
      Request& r = live[group[0]];
      obs::RequestTrace* trace = r.req.trace.get();
      uint64_t exec_start = obs::TraceNowNs(trace);
      RetrievalRequest req = std::move(r.req);
      req.options.num_threads = options_.retrieve_threads;
      StatusOr<RetrievalResponse> result = backend_->Retrieve(req);
      completed_->Increment();
      obs::TraceMark(trace, "execute", exec_start);
      // The whole request, Submit to completion: the denominator the
      // span-coverage acceptance gate divides by.
      obs::TraceMark(trace, "request", 0);
      r.promise.Set(std::move(result));
      continue;
    }
    std::vector<DxToDatabaseFn> queries;
    queries.reserve(group.size());
    for (size_t t : group) queries.push_back(std::move(live[t].req.dx));
    // The server's worker policy, not the request, decides execution
    // parallelism; num_threads does not affect results.
    RetrievalOptions exec = live[group[0]].req.options;
    exec.num_threads = options_.retrieve_threads;
    StatusOr<std::vector<RetrievalResponse>> results =
        backend_->RetrieveBatch(queries, exec);
    for (size_t i = 0; i < group.size(); ++i) {
      completed_->Increment();
      if (results.ok()) {
        live[group[i]].promise.Set(std::move((*results)[i]));
      } else {
        live[group[i]].promise.Set(results.status());
      }
    }
  }
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
  // The batch-size histogram has one exact bucket per size 1..max_batch.
  obs::HistogramSnapshot batches = batch_size_hist_->Snapshot();
  s.batch_size_histogram.assign(options_.max_batch, 0);
  for (size_t b = 0; b < options_.max_batch && b < batches.bucket_counts.size();
       ++b) {
    s.batch_size_histogram[b] = batches.bucket_counts[b];
  }
  return s;
}

obs::MetricRegistry& AsyncRetrievalServer::metrics() const {
  queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  return *registry_;
}

}  // namespace qse
