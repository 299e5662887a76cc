#ifndef QSE_OBS_QUALITY_MONITOR_H_
#define QSE_OBS_QUALITY_MONITOR_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "src/embedding/embedder.h"
#include "src/obs/metric_registry.h"
#include "src/obs/trace.h"
#include "src/retrieval/embedded_database.h"
#include "src/util/bounded_queue.h"

namespace qse {
namespace obs {

/// Page-Hinkley change detector for a DOWNWARD shift in the mean of a
/// noisy quality signal (per-audit recall), in the signal's own noise
/// units.  Each sample x_t is standardised against the running mean and
/// spread of every sample since the last (re)baseline, z_t = (x_t -
/// mean_t) / sd_t, with x_t itself included in both, and winsorised to
/// [-3, 3].  The cumulative test then accumulates m_t += z_t + delta_sd,
/// tracks M_t = max m_t, and alarms once the gap M_t - m_t exceeds
/// lambda_sd: the signal has run below its own mean by more than
/// delta_sd standard deviations per sample, for long enough to sum past
/// lambda_sd.  The winsorising caps one sample's step at 3 - delta_sd,
/// so an alarm takes at least lambda_sd / (3 - delta_sd) low samples
/// (11 at the defaults): one miss among perfect audits, whose tiny
/// spread would standardise it to tens of standard deviations, cannot
/// alarm on its own.
///
/// On an alarm the detector re-baselines (mean, spread and the cumulative
/// test restart from the next sample) so it learns the new level.  The
/// alarm stays raised while the re-baselined test keeps tripping (the
/// level is still falling) and clears after clear_after samples in which
/// it does not; clearing re-baselines again, so a recurrent shift
/// alarms again.
///
/// Detects *change*, not low absolute quality: a database that always
/// had 0.6 recall never alarms; one that degrades 0.9 -> 0.6 does.
/// Not thread-safe — the QualityMonitor feeds it from its single audit
/// worker.
struct PageHinkleyOptions {
  /// Tolerated per-sample slack below the running mean, in standard
  /// deviations of the input.  A shift smaller than this never
  /// accumulates toward an alarm.
  double delta_sd = 0.25;
  /// Alarm threshold on the cumulative gap, in standard deviations of
  /// the input.  A shift of D standard deviations alarms after about
  /// lambda_sd / (min(D, 3) - delta_sd) samples.  A stationary Gaussian
  /// signal crosses it about once per exp(2 * delta_sd * lambda_sd) /
  /// (2 * delta_sd^2) samples (tens of millions at the defaults).  For
  /// any stationary input, however skewed, the winsorised steps drift
  /// upward by at least delta_sd - (sqrt(10) - 3) / 2 ~ delta_sd - 0.08
  /// per sample on average (Scarf's bound on a unit-variance tail past 3).
  double lambda_sd = 30.0;
  /// Samples after each (re)baseline before the test is armed.
  size_t min_samples = 16;
  /// Samples without a further drop that clear an active alarm.
  size_t clear_after = 32;
};

class PageHinkleyDetector {
 public:
  explicit PageHinkleyDetector(PageHinkleyOptions options = {});

  /// Feeds one sample.  Returns true when the alarm STATE CHANGED on
  /// this sample (raised or cleared); read alarmed() for the new state.
  bool Update(double x);

  bool alarmed() const { return alarmed_; }
  /// Samples since construction or the last re-baseline.
  size_t samples() const { return n_; }
  double mean() const { return mean_; }

 private:
  /// Restarts the mean, spread and cumulative test; keeps alarmed_.
  void Rebaseline();

  PageHinkleyOptions options_;
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // Sum of squared deviations from mean_ (Welford).
  double mh_ = 0.0;
  double max_mh_ = 0.0;
  bool alarmed_ = false;
};

/// The serving path's answer for one sampled query, in database-id
/// terms, plus everything needed to recompute the exact answer later:
/// the query's exact-distance resolver and the database snapshots the
/// serving path actually scanned.  Auditing against those snapshots
/// (not the live database) makes the comparison exact under
/// concurrent mutation — server and auditor score the same rows.
struct AuditNeighbor {
  size_t db_id = 0;
  double score = 0.0;
};

struct AuditTask {
  /// DX(query, o) for database ids o; invoked from the audit worker.
  DxToDatabaseFn dx;
  /// k the request asked for.
  size_t k = 0;
  /// Neighbors the serving path returned, in served order.
  std::vector<AuditNeighbor> served;
  /// The snapshots the serving path scanned, one per engine shard.
  /// Each holds its database version's memory until the audit is done,
  /// which is why the audit queue is bounded and sheds instead of
  /// growing.  Holding them never delays a serving read.
  std::vector<EmbeddedDatabase::Snapshot> snapshots;
  /// The request's trace when it carried one; the drift alarm stamps a
  /// mark into it.
  std::shared_ptr<RequestTrace> trace;
};

/// Counters/state mirror for tests and bench gates (metric values are
/// also published to the registry).
struct QualityMonitorStats {
  uint64_t sampled = 0;    ///< audits accepted for processing
  uint64_t completed = 0;  ///< audits fully processed
  uint64_t shed = 0;       ///< audits dropped because the queue was full
  uint64_t mismatches = 0; ///< audits whose served set != exact top-k
  uint64_t alarms = 0;     ///< drift alarm raise events
  bool drift_alarm = false;
  double recall_at_k = 0.0;        ///< rolling-window mean
  double rank_displacement = 0.0;  ///< rolling-window mean
  double score_error = 0.0;        ///< rolling-window mean
};

struct QualityMonitorOptions {
  /// Sample 1 of every N completed responses (ShouldSample ticks).
  size_t sample_every_n = 64;
  /// Bounded audit queue: when full, new audits are SHED (counted),
  /// never blocking or failing the serving path.
  size_t queue_capacity = 256;
  /// Rolling window (in audits) behind the published quality gauges.
  size_t window = 32;
  PageHinkleyOptions detector;
  /// Registry for the qse_quality_* instruments; null means Global().
  MetricRegistry* registry = nullptr;
};

/// Samples completed retrievals off the hot path and audits each one by
/// re-running the query as exact brute-force kNN over the same
/// database snapshot(s) the serving path used.  Publishes rolling
/// quality instruments (qse_quality_recall_at_k, _rank_displacement,
/// _score_error, audits_{sampled,completed,shed}_total) and feeds
/// per-audit recall to a Page-Hinkley drift detector whose state drives
/// the qse_quality_drift_alarm gauge, a WARN log line and a trace mark.
///
/// Hot-path cost: ShouldSample is one relaxed fetch_add; a sampled
/// response additionally moves its snapshots and copies its k neighbor
/// ids into the queue.  The exact re-scan happens on the single
/// background worker; under pressure audits are shed, requests never.
class QualityMonitor {
 public:
  explicit QualityMonitor(QualityMonitorOptions options = {});
  ~QualityMonitor();

  QualityMonitor(const QualityMonitor&) = delete;
  QualityMonitor& operator=(const QualityMonitor&) = delete;

  /// One relaxed tick; true on every sample_every_n-th call.  Callers
  /// (the engines) consult it once per completed retrieval.
  bool ShouldSample();

  /// Enqueues one audit; sheds (and counts) it when the queue is full
  /// or the monitor is shut down.  Never blocks.
  void SubmitAudit(AuditTask task);

  /// Blocks until every audit accepted before this call is processed
  /// (tests and benches that need deterministic metric reads).
  void Flush();

  /// Stops the worker after draining queued audits.  Idempotent; the
  /// destructor calls it.
  void Shutdown();

  QualityMonitorStats stats() const;

  /// Detector state, for gates that need it without metric parsing.
  bool drift_alarmed() const {
    return drift_alarm_->Value() != 0;
  }

 private:
  void WorkerLoop();
  void ProcessAudit(AuditTask& task);

  QualityMonitorOptions options_;
  std::atomic<uint64_t> tick_{0};

  BoundedQueue<AuditTask> queue_;

  /// Flush bookkeeping: accepted_ counts tasks that entered the queue,
  /// done_ counts tasks the worker finished.
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> done_{0};
  std::atomic<bool> shutdown_{false};

  // Registry instruments (resolved once at construction).
  Counter* audits_sampled_;
  Counter* audits_completed_;
  Counter* audits_shed_;
  Counter* audit_mismatches_;
  Counter* drift_alarms_;
  Gauge* drift_alarm_;
  FloatGauge* recall_gauge_;
  FloatGauge* displacement_gauge_;
  FloatGauge* score_error_gauge_;

  // Worker-thread-only state (no locking needed).
  PageHinkleyDetector detector_;
  std::vector<double> recall_window_;
  std::vector<double> displacement_window_;
  std::vector<double> score_error_window_;
  size_t window_next_ = 0;
  size_t window_filled_ = 0;

  std::thread worker_;
};

}  // namespace obs
}  // namespace qse

#endif  // QSE_OBS_QUALITY_MONITOR_H_
