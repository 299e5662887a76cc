#ifndef QSE_NET_RETRIEVAL_SERVER_H_
#define QSE_NET_RETRIEVAL_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/net/socket_transport.h"
#include "src/net/wire_codec.h"
#include "src/obs/metric_registry.h"
#include "src/retrieval/retrieval_backend.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace qse {
namespace net {

struct RetrievalServerOptions {
  TransportOptions transport;
  /// Fault injection for tests and examples: every Nth kScan (per
  /// server, 0 = never) sleeps debug_delay before scanning — a
  /// deterministic slow server for the wire deadline tests.
  size_t debug_delay_every_n = 0;
  std::chrono::milliseconds debug_delay{0};
};

/// Serves any RetrievalBackend over TCP: one acceptor thread plus one
/// thread per connection, blocking reads, one frame in -> one frame out.
/// The thread-per-connection model matches the deployment shape (a few
/// long-lived peer stubs per shard server, each issuing one RPC at a
/// time), and keeps every kernel wait bounded by the transport timeouts.
///
/// Request handling:
///  * kScan     -> backend->ScanCandidates (candidates already carry
///                 database ids).
///  * kInsert   -> backend->InsertEmbedded (the row was embedded
///                 client-side).
///  * kRemove   -> backend->Remove.
///  * kInfo     -> backend->size().
///
/// Deadlines: a request carrying deadline_budget_ns is re-anchored to
/// arrival time; a budget already spent in flight is rejected with
/// kDeadlineExceeded before the backend does any work.
///
/// Decode errors answer with the error status, then: kInvalidArgument
/// (intact frame, bad content) keeps the connection; kDataLoss (the
/// stream itself is broken) closes it — after corruption, frame
/// boundaries can no longer be trusted.
class RetrievalServer {
 public:
  /// Does not own `backend`, which must outlive the server.
  RetrievalServer(RetrievalBackend* backend, RetrievalServerOptions options);
  ~RetrievalServer();
  RetrievalServer(const RetrievalServer&) = delete;
  RetrievalServer& operator=(const RetrievalServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts the
  /// acceptor thread.
  Status Start(uint16_t port);

  /// Port actually bound; valid after a successful Start.
  uint16_t port() const { return port_; }

  /// Stops accepting, unblocks every in-flight connection read, joins
  /// all threads.  Idempotent; also runs at destruction.
  void Stop();

 private:
  void AcceptLoop();
  void ServeConnection(std::shared_ptr<Socket> conn);
  /// Executes one decoded request against the backend.
  WireResponse Handle(const WireRequest& request);
  /// Joins the handler threads that have exited so far.
  void JoinFinished();

  RetrievalBackend* backend_;
  RetrievalServerOptions options_;
  ServerSocket listener_;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> scan_count_{0};

  /// Live connections, so Stop can ShutdownBoth each socket and wake
  /// threads blocked in RecvFrame.  Each handler thread sits in
  /// conn_threads_ (keyed by its id) while it serves; on exit it moves
  /// itself to finished_threads_, which the acceptor joins at the next
  /// connection and Stop joins at the end, so a closed connection does
  /// not keep its thread's stack mapped.
  std::mutex conn_mu_;
  std::unordered_set<std::shared_ptr<Socket>> live_conns_;
  std::unordered_map<std::thread::id, std::thread> conn_threads_;
  std::vector<std::thread> finished_threads_;

  obs::Counter* requests_total_;
  obs::Counter* errors_total_;
  obs::Counter* expired_total_;
  obs::Histogram* handle_ns_;
};

}  // namespace net
}  // namespace qse

#endif  // QSE_NET_RETRIEVAL_SERVER_H_
