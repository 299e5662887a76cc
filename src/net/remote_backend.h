#ifndef QSE_NET_REMOTE_BACKEND_H_
#define QSE_NET_REMOTE_BACKEND_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/embedding/embedder.h"
#include "src/net/socket_transport.h"
#include "src/net/wire_codec.h"
#include "src/obs/metric_registry.h"
#include "src/retrieval/retrieval_backend.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace qse {
namespace net {

struct RemoteBackendOptions {
  TransportOptions transport;
  /// Idempotent read RPCs (kScan / kRetrieve / kInfo) are retried once
  /// on kUnavailable / kDataLoss over a fresh connection — a dropped
  /// connection between requests is routine, not an error.  Mutations
  /// are never retried (a duplicate Insert is not idempotent).
  bool retry_reads = true;
  /// Dial attempts per RPC when no pooled connection exists: a refused
  /// or timed-out CONNECT is retried with doubling backoff up to this
  /// many total attempts.  Unlike post-send read retries, dial retries
  /// are safe for mutations too — nothing has been sent yet — which is
  /// what lets a client ride out a shard server restart (kill, recover
  /// from WAL, re-listen) without itself being restarted.  1 = dial
  /// once, fail fast.
  size_t reconnect_attempts = 4;
  /// Backoff before the second dial attempt; doubles per attempt.
  std::chrono::milliseconds reconnect_backoff{10};
};

/// A RetrievalBackend whose data lives in another process, behind a
/// RetrievalServer.  Drop-in for local shards: RetrievalEngine's composed
/// constructor stacks on it unchanged, one backend per shard.
///
/// Division of labor (the paper's pipeline, cut at the only seam that
/// survives a process boundary): the EMBEDDING step runs client-side —
/// `dx` is an opaque closure — and only the embedded vector crosses the
/// wire (kScan).  The server runs the filter scan; the client refines
/// the returned candidates with its own dx.  Retrieve is a
/// RetrievalEngine composed over this backend as its single shard, so
/// it reproduces a local engine bit for bit.
///
/// Deadlines cross the wire as REMAINING budget: each RPC computes
/// options.deadline - now at send time, the server re-anchors against
/// its own clock, and the client caps its socket read timeout to the
/// same budget, so an expired deadline fails at whichever side notices
/// first.
///
/// Thread-safety: safe for concurrent use; connections are pooled, each
/// RPC checks one out (or dials a new one) and returns it on success.
class RemoteRetrievalBackend : public RetrievalBackend {
 public:
  /// `embedder` runs the client-side embedding step and must match the
  /// remote database's dimensionality.  Borrowed, must outlive this.
  RemoteRetrievalBackend(const Embedder* embedder, std::string host,
                         uint16_t port, RemoteBackendOptions options = {});

  StatusOr<RetrievalResponse> Retrieve(
      const RetrievalRequest& request) const override;

  /// Ships the embedded query; returns the remote backend's top-p.
  StatusOr<ScanCandidatesResult> ScanCandidates(
      const Vector& embedded_query,
      const RetrievalOptions& options) const override;
  /// Same, recording an rpc_scan span and grafting the server's spans
  /// (prefixed "remote:") into `trace`.
  StatusOr<ScanCandidatesResult> TracedScanCandidates(
      const Vector& embedded_query, const RetrievalOptions& options,
      obs::RequestTrace* trace) const override;

  /// Embeds client-side, ships the row (kInsert).
  Status Insert(size_t db_id, const DxToDatabaseFn& dx) override;
  Status InsertEmbedded(size_t db_id, const Vector& embedded_row) override;
  Status Remove(size_t db_id) override;

  /// Remote full retrieval (kRetrieve) for servers configured with a
  /// RawQueryResolver: ships the RAW query, embedding and refine both
  /// run server-side.  Not part of the scatter path — a convenience for
  /// thin clients that cannot evaluate dx themselves.
  StatusOr<RetrievalResponse> RetrieveRaw(
      const std::vector<double>& raw_query,
      const RetrievalOptions& options) const;

  /// Remote size via kInfo; 0 when the peer is unreachable (size() has
  /// no error channel — used for load hints, not correctness).
  size_t size() const override;

  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }

 private:
  /// One RPC: checkout/dial, send, receive, decode, return-to-pool.
  /// Applies the deadline budget from options and the read-retry policy.
  StatusOr<WireResponse> Call(WireRequest request) const;
  StatusOr<WireResponse> CallOnce(const WireRequest& request,
                                  const std::string& payload) const;
  /// Dials a fresh connection, retrying refused/unreachable connects
  /// with doubling backoff per options.reconnect_* within the deadline
  /// budget (0 = no deadline).
  StatusOr<Socket> Dial(uint64_t deadline_budget_ns) const;

  const Embedder* embedder_;
  std::string host_;
  uint16_t port_;
  RemoteBackendOptions options_;

  /// The read pipeline: an engine whose only shard is this backend.
  std::unique_ptr<RetrievalEngine> pipeline_;

  mutable std::mutex pool_mu_;
  mutable std::vector<Socket> pool_;

  obs::Counter* rpcs_total_;
  obs::Counter* rpc_errors_total_;
  obs::Counter* rpc_retries_total_;
  obs::Counter* reconnects_total_;
  obs::Histogram* rpc_latency_ns_;
};

}  // namespace net
}  // namespace qse

#endif  // QSE_NET_REMOTE_BACKEND_H_
