#ifndef QSE_NET_HEDGED_BACKEND_H_
#define QSE_NET_HEDGED_BACKEND_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/obs/metric_registry.h"
#include "src/retrieval/retrieval_backend.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace qse {
namespace net {

struct HedgedBackendOptions {
  /// Master switch; false degrades to plain failover (a lagging attempt
  /// is only abandoned when it errors, never raced) — the A/B arm the
  /// bench harness compares hedging against.
  bool enable_hedging = true;
  /// Latency quantile of the attempted replica's own history that arms
  /// the hedge timer: an attempt still in flight past its replica's
  /// q-quantile is presumed slow and a backup is launched.
  double hedge_quantile = 0.95;
  /// Hedge delay clamp and the fallback used until a replica has
  /// min_samples_for_quantile observations to estimate from.
  std::chrono::milliseconds min_hedge_delay{1};
  std::chrono::milliseconds max_hedge_delay{200};
  std::chrono::milliseconds initial_hedge_delay{20};
  uint64_t min_samples_for_quantile = 32;
};

/// N replicas of the SAME data behind one RetrievalBackend: reads go to
/// one replica and are hedged to the next when the first is slow
/// (first response wins), writes are broadcast to all.
///
/// Hedging policy: every read records its latency into the serving
/// replica's histogram; an attempt outstanding longer than that
/// replica's own observed `hedge_quantile` latency (clamped to
/// [min, max]_hedge_delay) triggers one backup attempt on the next
/// replica round-robin, and so on down the list.  An attempt that FAILS
/// triggers the next attempt immediately — failover spends no hedge
/// delay — which is what makes a killed replica invisible to callers
/// (modulo one connect timeout) rather than a source of errors.  The
/// call fails only when every replica has failed.
///
/// Replica sets hold the same logical database, so the first successful
/// response — whichever replica served it — is THE response;
/// scatter-level determinism is unaffected by which replica won.
///
/// Thread-safety: all reads are const and concurrent; broadcasts follow
/// the replicas' own mutation contracts.  Hedge attempts run on
/// detached threads that share state via shared_ptr, so a slow loser
/// finishing after the winner (or after this object is destroyed —
/// destruction waits for stragglers) touches only its own call state.
class HedgedReplicaBackend : public RetrievalBackend {
 public:
  explicit HedgedReplicaBackend(
      std::vector<std::shared_ptr<RetrievalBackend>> replicas,
      HedgedBackendOptions options = {});
  ~HedgedReplicaBackend() override;

  StatusOr<RetrievalResponse> Retrieve(
      const RetrievalRequest& request) const override;

  StatusOr<std::vector<RetrievalResponse>> RetrieveBatch(
      const std::vector<DxToDatabaseFn>& queries,
      const RetrievalOptions& options) const override;

  StatusOr<ScanCandidatesResult> ScanCandidates(
      const Vector& embedded_query,
      const RetrievalOptions& options) const override;

  /// Broadcast to every replica (replica sets must stay identical).
  /// The first error is returned, but all replicas are still attempted:
  /// a dead replica must not leave the live ones diverging.
  Status Insert(size_t db_id, const DxToDatabaseFn& dx) override;
  Status InsertEmbedded(size_t db_id, const Vector& embedded_row) override;
  Status Remove(size_t db_id) override;

  /// Max over replicas: unreachable replicas report 0 and must not make
  /// a healthy set look empty.
  size_t size() const override;

  size_t num_replicas() const { return replicas_.size(); }

 private:
  template <typename T>
  struct CallState;

  /// The hedged read driver shared by Retrieve and ScanCandidates:
  /// `attempt(replica_index)` runs one try against one replica.
  template <typename T>
  StatusOr<T> HedgedCall(
      const std::function<StatusOr<T>(size_t)>& attempt) const;

  /// Hedge delay for an attempt on replica `r`, from that replica's own
  /// latency history.
  std::chrono::nanoseconds HedgeDelayFor(size_t r) const;

  std::vector<std::shared_ptr<RetrievalBackend>> replicas_;
  HedgedBackendOptions options_;
  mutable std::atomic<size_t> next_primary_{0};

  /// Stragglers outstanding on detached threads; the destructor waits
  /// for this to drain so attempts never outlive the backend.
  mutable std::mutex inflight_mu_;
  mutable std::condition_variable inflight_cv_;
  mutable size_t inflight_ = 0;

  /// Per-replica counters and latency, labels-in-name ({replica="i"}).
  struct ReplicaMetrics {
    obs::Counter* attempts;
    obs::Counter* errors;
    obs::Counter* hedges;  // backup attempts launched ON this replica
    obs::Counter* wins;    // responses served from this replica
    obs::Histogram* latency_ns;
  };
  std::vector<ReplicaMetrics> replica_metrics_;
  obs::Counter* hedged_fired_total_;
  obs::Counter* hedged_wins_total_;
};

}  // namespace net
}  // namespace qse

#endif  // QSE_NET_HEDGED_BACKEND_H_
