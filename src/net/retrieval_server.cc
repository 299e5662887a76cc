#include "src/net/retrieval_server.h"

#include <algorithm>
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

/// Copies a backend status into a response envelope.
void SetStatus(WireResponse* response, const Status& status) {
  response->code = status.code();
  response->message = std::string(status.message());
}

/// Serializes a trace's spans into the response, times re-based to the
/// trace's own epoch (which the handler pins at request receipt).
void AttachSpans(const obs::RequestTrace& trace, WireResponse* response) {
  for (const obs::TraceSpan& span : trace.spans()) {
    if (response->spans.size() >= kMaxWireSpans) break;
    WireSpan wire;
    wire.name = span.name;
    wire.start_ns = span.start_ns;
    wire.dur_ns = span.dur_ns;
    wire.tid = span.tid;
    response->spans.push_back(std::move(wire));
  }
}

}  // namespace

RetrievalServer::RetrievalServer(RetrievalBackend* backend,
                                 RetrievalServerOptions options)
    : backend_(backend),
      options_(std::move(options)),
      requests_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_net_server_requests_total")),
      errors_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_net_server_errors_total")),
      expired_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_net_server_expired_total")),
      handle_ns_(obs::MetricRegistry::Global().GetHistogram(
          "qse_net_server_handle_latency_ns",
          obs::DefaultLatencyBoundariesNs())) {}

RetrievalServer::~RetrievalServer() { Stop(); }

Status RetrievalServer::Start(uint16_t port) {
  auto listener = ServerSocket::Listen(port, options_.transport);
  QSE_RETURN_IF_ERROR(listener.status());
  listener_ = std::move(listener).value();
  port_ = listener_.port();
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void RetrievalServer::Stop() {
  if (stopping_.exchange(true)) {
    // Second caller (destructor after explicit Stop): threads are
    // already joined or being joined by the first.
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  listener_.Shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  // Wake handler threads blocked in RecvFrame, then join them.  New
  // entries cannot appear: the acceptor is gone.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const auto& conn : live_conns_) conn->ShutdownBoth();
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  listener_.Close();
}

void RetrievalServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      // Shutdown (kUnavailable) or a listener-level failure either way
      // the acceptor is done.
      return;
    }
    auto conn = std::make_shared<Socket>(std::move(accepted).value());
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load(std::memory_order_acquire)) return;
    live_conns_.insert(conn);
    conn_threads_.emplace_back([this, conn] { ServeConnection(conn); });
  }
}

void RetrievalServer::ServeConnection(std::shared_ptr<Socket> conn) {
  while (!stopping_.load(std::memory_order_acquire)) {
    auto frame = conn->RecvFrame();
    if (!frame.ok()) break;  // closed peer, timeout, or broken framing

    WireRequest request;
    Status decoded = DecodeRequest(frame.value(), &request);
    WireResponse response;
    if (!decoded.ok()) {
      errors_total_->Increment();
      SetStatus(&response, decoded);
      (void)conn->SendFrame(EncodeResponse(response));
      if (decoded.code() == StatusCode::kDataLoss) break;
      continue;
    }

    response = Handle(request);
    if (!conn->SendFrame(EncodeResponse(response)).ok()) break;
  }
  conn->ShutdownBoth();
  std::lock_guard<std::mutex> lock(conn_mu_);
  live_conns_.erase(conn);
}

WireResponse RetrievalServer::Handle(const WireRequest& request) {
  requests_total_->Increment();
  const MonotonicClock::time_point arrival = MonotonicClock::now();
  WireResponse response;

  // Re-anchor the deadline: the wire carries the budget that remained at
  // send time, so transit cost is already subtracted from it.
  RetrievalOptions options = request.options;
  if (request.deadline_budget_ns > 0) {
    options.deadline =
        arrival + std::chrono::nanoseconds(request.deadline_budget_ns);
    if (options.deadline <= MonotonicClock::now()) {
      expired_total_->Increment();
      errors_total_->Increment();
      SetStatus(&response, Status::DeadlineExceeded(
                               "deadline budget exhausted before handling"));
      return response;
    }
  }

  std::shared_ptr<obs::RequestTrace> trace;
  if (request.want_trace) trace = std::make_shared<obs::RequestTrace>();

  Status status = Status::OK();
  switch (request.op) {
    case WireOp::kScan: {
      if (options_.debug_delay_every_n > 0 &&
          options_.debug_delay.count() > 0) {
        size_t n = scan_count_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (n % options_.debug_delay_every_n == 0) {
          std::this_thread::sleep_for(options_.debug_delay);
        }
      }
      uint64_t span_start = obs::TraceNowNs(trace.get());
      auto scan = backend_->ScanCandidates(request.query, options);
      if (scan.ok()) {
        ScanCandidatesResult result = std::move(scan).value();
        response.neighbors = std::move(result.candidates);
        response.rows = result.rows;
        response.rows_pruned = result.rows_pruned;
        obs::TraceMark(trace.get(), "server_scan", span_start,
                       {obs::TraceArg{
                           "candidates",
                           static_cast<int64_t>(response.neighbors.size()),
                           nullptr}});
      } else {
        status = scan.status();
      }
      break;
    }
    case WireOp::kRetrieve: {
      if (!options_.raw_query_resolver) {
        status = Status::FailedPrecondition(
            "server has no raw-query resolver; use kScan");
        break;
      }
      RetrievalRequest rpc;
      rpc.dx = options_.raw_query_resolver(request.query);
      rpc.options = options;
      rpc.trace = trace;
      auto retrieved = backend_->Retrieve(rpc);
      if (retrieved.ok()) {
        RetrievalResponse result = std::move(retrieved).value();
        response.neighbors = std::move(result.neighbors);
        response.exact_distances = result.exact_distances;
        response.embedding_distances = result.embedding_distances;
        response.shard_stats = std::move(result.shard_stats);
      } else {
        status = retrieved.status();
      }
      break;
    }
    case WireOp::kInsert:
      status = backend_->InsertEmbedded(static_cast<size_t>(request.db_id),
                                        request.query);
      break;
    case WireOp::kRemove:
      status = backend_->Remove(static_cast<size_t>(request.db_id));
      break;
    case WireOp::kInfo:
      break;  // size is piggybacked below on every success
  }

  if (!status.ok()) {
    errors_total_->Increment();
    SetStatus(&response, status);
    return response;
  }
  response.db_size = backend_->size();
  if (trace != nullptr) AttachSpans(*trace, &response);
  handle_ns_->Record(NsSince(arrival));
  return response;
}

}  // namespace net
}  // namespace qse
