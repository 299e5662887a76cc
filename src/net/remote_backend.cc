#include "src/net/remote_backend.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/timer.h"

namespace qse {
namespace net {
namespace {

uint64_t NsSince(MonotonicClock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          MonotonicClock::now() - start)
          .count());
}

bool IsReadOp(WireOp op) {
  return op == WireOp::kScan || op == WireOp::kRetrieve || op == WireOp::kInfo;
}

/// Transport faults where a second attempt over a fresh connection can
/// honestly succeed.  Deadline expiry is excluded: retrying a spent
/// budget only spends more of it.
bool IsRetryableTransportError(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDataLoss;
}

}  // namespace

RemoteRetrievalBackend::RemoteRetrievalBackend(const Embedder* embedder,
                                               std::string host, uint16_t port,
                                               RemoteBackendOptions options)
    : embedder_(embedder),
      host_(std::move(host)),
      port_(port),
      options_(std::move(options)),
      rpcs_total_(
          obs::MetricRegistry::Global().GetCounter("qse_remote_rpcs_total")),
      rpc_errors_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_remote_rpc_errors_total")),
      rpc_retries_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_remote_rpc_retries_total")),
      reconnects_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_remote_reconnects_total")),
      rpc_latency_ns_(obs::MetricRegistry::Global().GetHistogram(
          "qse_remote_rpc_latency_ns", obs::DefaultLatencyBoundariesNs())) {
  // This backend as the single shard of an engine: non-owning, since the
  // engine is a member and never outlives it.
  pipeline_ = std::make_unique<RetrievalEngine>(
      embedder_, std::vector<std::shared_ptr<RetrievalBackend>>{
                     std::shared_ptr<RetrievalBackend>(
                         std::shared_ptr<RetrievalBackend>(), this)});
}

StatusOr<Socket> RemoteRetrievalBackend::Dial(uint64_t deadline_budget_ns)
    const {
  // Dial with doubling backoff: a restarted peer (kill, WAL recovery,
  // re-listen) comes back within a few backoff periods, and since
  // nothing has been sent yet this is safe for every op, mutations
  // included.  The loop respects the deadline budget — waiting out a
  // backoff the request cannot afford just fails it later.
  const size_t attempts =
      options_.reconnect_attempts == 0 ? 1 : options_.reconnect_attempts;
  std::chrono::nanoseconds backoff = options_.reconnect_backoff;
  const MonotonicClock::time_point dial_start = MonotonicClock::now();
  for (size_t attempt = 0;; ++attempt) {
    StatusOr<Socket> dialed = Socket::Connect(host_, port_, options_.transport);
    if (dialed.ok()) return dialed;
    const bool budget_left =
        deadline_budget_ns == 0 ||
        NsSince(dial_start) + static_cast<uint64_t>(backoff.count()) <
            deadline_budget_ns;
    if (attempt + 1 >= attempts ||
        !IsRetryableTransportError(dialed.status()) || !budget_left) {
      return dialed.status();
    }
    reconnects_total_->Increment();
    std::this_thread::sleep_for(backoff);
    backoff *= 2;
  }
}

StatusOr<WireResponse> RemoteRetrievalBackend::CallOnce(
    const WireRequest& request, const std::string& payload) const {
  // Up to two SEND attempts: a pooled connection may have died while
  // idle (the peer restarted between requests).  A send failure on a
  // pooled socket is pre-delivery — the request never reached a live
  // connection — so retrying it over a fresh dial is safe for every op,
  // mutations included.  Failures AFTER a successful send are never
  // retried here; Call's read-only retry policy owns those.
  for (int attempt = 0;; ++attempt) {
    Socket sock;
    bool pooled = false;
    {
      // Checkout with a health check: a pooled connection whose peer died
      // while it sat idle (restart between requests) shows a pending EOF
      // — discard it instead of sending into it, so even a MUTATION's
      // first attempt after a peer restart lands on a fresh dial rather
      // than a socket known to be dead.
      std::lock_guard<std::mutex> lock(pool_mu_);
      while (!pool_.empty()) {
        Socket candidate = std::move(pool_.back());
        pool_.pop_back();
        if (!candidate.StaleWhileIdle()) {
          sock = std::move(candidate);
          pooled = true;
          break;
        }
        reconnects_total_->Increment();
      }
    }
    if (!sock.valid()) {
      StatusOr<Socket> dialed = Dial(request.deadline_budget_ns);
      QSE_RETURN_IF_ERROR(dialed.status());
      sock = std::move(dialed).value();
    }

    // Bound the response wait by the remaining deadline budget, so a
    // slow peer fails this call at the deadline instead of the full
    // transport timeout.
    std::chrono::nanoseconds read_timeout = options_.transport.read_timeout;
    if (request.deadline_budget_ns > 0) {
      read_timeout = std::min(
          read_timeout,
          std::chrono::nanoseconds(request.deadline_budget_ns));
    }
    Status status = sock.SetReadTimeout(read_timeout);
    if (status.ok()) status = sock.SendFrame(payload);
    if (!status.ok()) {
      if (pooled && attempt == 0 && IsRetryableTransportError(status)) {
        continue;  // stale pooled socket: redial and resend
      }
      return status;
    }
    StatusOr<std::string> frame = sock.RecvFrame();
    if (!frame.ok()) return frame.status();  // dead socket stays out of pool

    WireResponse response;
    Status decoded = DecodeResponse(frame.value(), &response);
    if (!decoded.ok()) return decoded;  // framing broken: drop the socket

    std::lock_guard<std::mutex> lock(pool_mu_);
    pool_.push_back(std::move(sock));
    return response;
  }
}

StatusOr<WireResponse> RemoteRetrievalBackend::Call(WireRequest request) const {
  rpcs_total_->Increment();
  const MonotonicClock::time_point start = MonotonicClock::now();

  // Deadline -> remaining budget, computed as late as possible so queue
  // and embed time already spent is reflected.
  if (request.options.deadline != RetrievalClock::time_point::max()) {
    auto remaining = request.options.deadline - MonotonicClock::now();
    if (remaining.count() <= 0) {
      rpc_errors_total_->Increment();
      return Status::DeadlineExceeded("deadline expired before RPC send");
    }
    request.deadline_budget_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(remaining)
            .count());
  }

  StatusOr<WireResponse> result = CallOnce(request, EncodeRequest(request));
  if (!result.ok() && options_.retry_reads && IsReadOp(request.op) &&
      IsRetryableTransportError(result.status())) {
    rpc_retries_total_->Increment();
    result = CallOnce(request, EncodeRequest(request));
  }
  if (!result.ok()) {
    rpc_errors_total_->Increment();
    return result.status();
  }
  rpc_latency_ns_->Record(NsSince(start));
  const WireResponse& response = result.value();
  if (response.code != StatusCode::kOk) {
    // An application-level error the server answered with; surface it
    // as-is — it is the backend's own contract (InvalidArgument,
    // FailedPrecondition, NotFound, ...) speaking through the wire.
    rpc_errors_total_->Increment();
    return Status(response.code, response.message);
  }
  return result;
}

StatusOr<ScanCandidatesResult> RemoteRetrievalBackend::ScanCandidates(
    const Vector& embedded_query, const RetrievalOptions& options) const {
  return TracedScanCandidates(embedded_query, options, /*trace=*/nullptr);
}

StatusOr<ScanCandidatesResult> RemoteRetrievalBackend::TracedScanCandidates(
    const Vector& embedded_query, const RetrievalOptions& options,
    obs::RequestTrace* trace) const {
  QSE_RETURN_IF_ERROR(ValidateRetrievalOptions(options));
  WireRequest request;
  request.op = WireOp::kScan;
  request.options = options;
  request.options.audit_monitor = nullptr;  // client-side only
  request.want_trace = trace != nullptr;
  request.query = embedded_query;
  uint64_t span_start = obs::TraceNowNs(trace);
  auto call = Call(std::move(request));
  obs::TraceMark(trace, "rpc_scan", span_start);
  QSE_RETURN_IF_ERROR(call.status());
  WireResponse& response = call.value();
  if (trace != nullptr) {
    // Graft server-side spans: their times are relative to the server's
    // receipt of the request, which from this trace's view is no earlier
    // than the RPC span's start.  Clocks of two processes are never
    // compared — only the server's own durations ride on our anchor.
    for (const WireSpan& span : response.spans) {
      obs::TraceSpan grafted;
      grafted.name = obs::InternString("remote:" + span.name);
      grafted.start_ns = span_start + span.start_ns;
      grafted.dur_ns = span.dur_ns;
      grafted.tid = span.tid;
      trace->AddSpan(std::move(grafted));
    }
  }
  ScanCandidatesResult result;
  result.candidates = std::move(response.neighbors);
  result.rows = static_cast<size_t>(response.rows);
  result.rows_pruned = static_cast<size_t>(response.rows_pruned);
  result.rows_prescreened = static_cast<size_t>(response.rows_prescreened);
  return result;
}

StatusOr<RetrievalResponse> RemoteRetrievalBackend::Retrieve(
    const RetrievalRequest& request) const {
  return pipeline_->Retrieve(request);
}

StatusOr<RetrievalResponse> RemoteRetrievalBackend::RetrieveRaw(
    const std::vector<double>& raw_query,
    const RetrievalOptions& options) const {
  QSE_RETURN_IF_ERROR(ValidateRetrievalOptions(options));
  WireRequest request;
  request.op = WireOp::kRetrieve;
  request.options = options;
  request.options.audit_monitor = nullptr;
  request.query = raw_query;
  auto call = Call(std::move(request));
  QSE_RETURN_IF_ERROR(call.status());
  WireResponse& wire = call.value();
  RetrievalResponse result;
  result.neighbors = std::move(wire.neighbors);
  result.exact_distances = static_cast<size_t>(wire.exact_distances);
  result.embedding_distances = static_cast<size_t>(wire.embedding_distances);
  result.shard_stats = std::move(wire.shard_stats);
  return result;
}

Status RemoteRetrievalBackend::Insert(size_t db_id, const DxToDatabaseFn& dx) {
  Vector row = embedder_->Embed(dx);
  return InsertEmbedded(db_id, row);
}

Status RemoteRetrievalBackend::InsertEmbedded(size_t db_id,
                                              const Vector& embedded_row) {
  WireRequest request;
  request.op = WireOp::kInsert;
  request.db_id = db_id;
  request.query = embedded_row;
  return Call(std::move(request)).status();
}

Status RemoteRetrievalBackend::Remove(size_t db_id) {
  WireRequest request;
  request.op = WireOp::kRemove;
  request.db_id = db_id;
  return Call(std::move(request)).status();
}

size_t RemoteRetrievalBackend::size() const {
  WireRequest request;
  request.op = WireOp::kInfo;
  // size() feeds load hints and routing, not correctness; an
  // unreachable peer reads as empty rather than erroring.
  auto call = Call(std::move(request));
  if (!call.ok()) return 0;
  return static_cast<size_t>(call.value().db_size);
}

}  // namespace net
}  // namespace qse
