#include "src/obs/quality_monitor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "src/util/logging.h"
#include "src/util/top_k.h"

namespace qse {
namespace obs {

PageHinkleyDetector::PageHinkleyDetector(PageHinkleyOptions options)
    : options_(options) {
  QSE_CHECK_MSG(options_.lambda_sd > 0,
                "PageHinkleyDetector needs lambda_sd > 0");
}

void PageHinkleyDetector::Rebaseline() {
  n_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
  mh_ = 0.0;
  max_mh_ = 0.0;
}

namespace {
// Winsorising bound on a standardised sample.  A tiny running spread
// (perfect audits with a rare miss) otherwise standardises one miss to
// tens of standard deviations, enough to pass lambda_sd on its own.
constexpr double kMaxAbsZ = 3.0;
}  // namespace

bool PageHinkleyDetector::Update(double x) {
  ++n_;
  const double deviation = x - mean_;
  mean_ += deviation / static_cast<double>(n_);
  m2_ += deviation * (x - mean_);
  const double sd = std::sqrt(m2_ / static_cast<double>(n_));
  const double z =
      sd > 0 ? std::clamp((x - mean_) / sd, -kMaxAbsZ, kMaxAbsZ) : 0.0;
  mh_ += z + options_.delta_sd;
  max_mh_ = std::max(max_mh_, mh_);
  if (n_ < options_.min_samples) return false;

  if (max_mh_ - mh_ > options_.lambda_sd) {
    // Learn the new level from the next sample on.  A trip while already
    // alarmed means the level is still falling: the alarm stays up.
    Rebaseline();
    if (alarmed_) return false;
    alarmed_ = true;
    return true;
  }
  if (alarmed_ && n_ >= options_.clear_after) {
    alarmed_ = false;
    Rebaseline();
    return true;
  }
  return false;
}

QualityMonitor::QualityMonitor(QualityMonitorOptions options)
    : options_(options),
      queue_(options.queue_capacity),
      detector_(options.detector) {
  if (options_.sample_every_n == 0) options_.sample_every_n = 1;
  if (options_.window == 0) options_.window = 1;
  MetricRegistry& reg =
      options_.registry != nullptr ? *options_.registry
                                   : MetricRegistry::Global();
  audits_sampled_ = reg.GetCounter("qse_quality_audits_sampled_total");
  audits_completed_ = reg.GetCounter("qse_quality_audits_completed_total");
  audits_shed_ = reg.GetCounter("qse_quality_audits_shed_total");
  audit_mismatches_ = reg.GetCounter("qse_quality_audit_mismatches_total");
  drift_alarms_ = reg.GetCounter("qse_quality_drift_alarms_total");
  drift_alarm_ = reg.GetGauge("qse_quality_drift_alarm");
  recall_gauge_ = reg.GetFloatGauge("qse_quality_recall_at_k");
  displacement_gauge_ = reg.GetFloatGauge("qse_quality_rank_displacement");
  score_error_gauge_ = reg.GetFloatGauge("qse_quality_score_error");
  recall_window_.assign(options_.window, 0.0);
  displacement_window_.assign(options_.window, 0.0);
  score_error_window_.assign(options_.window, 0.0);
  worker_ = std::thread([this] { WorkerLoop(); });
}

QualityMonitor::~QualityMonitor() { Shutdown(); }

bool QualityMonitor::ShouldSample() {
  return tick_.fetch_add(1, std::memory_order_relaxed) %
             options_.sample_every_n ==
         0;
}

void QualityMonitor::SubmitAudit(AuditTask task) {
  // Shed, never block: the audit queue backs up exactly when the
  // serving path is saturated, which is the worst moment to add work.
  if (queue_.TryPush(std::move(task))) {
    accepted_.fetch_add(1, std::memory_order_release);
    audits_sampled_->Increment();
  } else {
    audits_sampled_->Increment();
    audits_shed_->Increment();
  }
}

void QualityMonitor::Flush() {
  // Every accepted audit is eventually processed — Close() drains, it
  // does not drop — so waiting on the done_ watermark always terminates.
  const uint64_t target = accepted_.load(std::memory_order_acquire);
  while (done_.load(std::memory_order_acquire) < target) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void QualityMonitor::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) {
    if (worker_.joinable()) worker_.join();
    return;
  }
  queue_.Close();  // worker drains what is queued, then exits
  if (worker_.joinable()) worker_.join();
}

QualityMonitorStats QualityMonitor::stats() const {
  QualityMonitorStats s;
  s.sampled = audits_sampled_->Value();
  s.completed = audits_completed_->Value();
  s.shed = audits_shed_->Value();
  s.mismatches = audit_mismatches_->Value();
  s.alarms = drift_alarms_->Value();
  s.drift_alarm = drift_alarm_->Value() != 0;
  s.recall_at_k = recall_gauge_->Value();
  s.rank_displacement = displacement_gauge_->Value();
  s.score_error = score_error_gauge_->Value();
  return s;
}

void QualityMonitor::WorkerLoop() {
  for (;;) {
    std::optional<AuditTask> task = queue_.Pop();
    if (!task.has_value()) return;  // closed and drained
    ProcessAudit(*task);
    // Snapshots die here, before the done_ bump: by the time Flush
    // returns, every audited snapshot has been released.
    task.reset();
    done_.fetch_add(1, std::memory_order_release);
  }
}

void QualityMonitor::ProcessAudit(AuditTask& task) {
  // Ground truth: exact DX to every row of the snapshots the serving
  // path scanned, sorted ascending by (score, id) — the deterministic
  // ordering the repo uses everywhere.
  std::vector<ScoredIndex> universe;
  for (const EmbeddedDatabase::Snapshot& snap : task.snapshots) {
    const EmbeddedDatabase::View& view = snap.view();
    universe.reserve(universe.size() + view.size());
    for (size_t i = 0; i < view.size(); ++i) {
      size_t id = view.id_of(i);
      universe.push_back({id, task.dx(id)});
    }
  }
  std::sort(universe.begin(), universe.end());
  const size_t true_k = std::min(task.k, universe.size());
  if (true_k == 0) {
    audits_completed_->Increment();
    return;
  }

  std::unordered_set<size_t> true_ids;
  true_ids.reserve(true_k);
  for (size_t i = 0; i < true_k; ++i) true_ids.insert(universe[i].index);
  std::unordered_map<size_t, size_t> rank_of;
  rank_of.reserve(universe.size());
  for (size_t r = 0; r < universe.size(); ++r) {
    rank_of.emplace(universe[r].index, r);
  }

  // Recall@k: fraction of the exact top-k the filter step kept.
  size_t hits = 0;
  for (const AuditNeighbor& nb : task.served) {
    if (true_ids.count(nb.db_id) != 0) ++hits;
  }
  const double recall =
      static_cast<double>(hits) / static_cast<double>(true_k);

  // Rank displacement: how far each served position sits below where
  // the exact ranking would put it (0 for a perfect answer).
  double displacement = 0.0;
  for (size_t i = 0; i < task.served.size(); ++i) {
    auto it = rank_of.find(task.served[i].db_id);
    const size_t rank =
        it != rank_of.end() ? it->second : universe.size();
    if (rank > i) displacement += static_cast<double>(rank - i);
  }
  displacement /=
      static_cast<double>(std::max<size_t>(task.served.size(), 1));

  // Relative score error against the exact top-k distances, positionwise.
  double abs_err = 0.0, abs_true = 0.0;
  const size_t compare = std::min(task.served.size(), true_k);
  for (size_t i = 0; i < compare; ++i) {
    abs_err += std::fabs(task.served[i].score - universe[i].score);
    abs_true += std::fabs(universe[i].score);
  }
  const double score_error = abs_err / std::max(abs_true, 1e-12);

  // Mismatch: the served answer is not bit-identical to exact kNN —
  // different id sets or different distances.  Expected nonzero when
  // p < n (filter misses are the approximation); must be zero when
  // p = n and nothing drifted, which is what the CI verify gate pins.
  bool mismatch = task.served.size() != true_k || hits != true_k;
  if (!mismatch) {
    for (size_t i = 0; i < true_k; ++i) {
      if (task.served[i].score != universe[i].score) {
        mismatch = true;
        break;
      }
    }
  }
  if (mismatch) audit_mismatches_->Increment();

  // Rolling-window means behind the published gauges.
  recall_window_[window_next_] = recall;
  displacement_window_[window_next_] = displacement;
  score_error_window_[window_next_] = score_error;
  window_next_ = (window_next_ + 1) % options_.window;
  window_filled_ = std::min(window_filled_ + 1, options_.window);
  double recall_sum = 0, disp_sum = 0, err_sum = 0;
  for (size_t i = 0; i < window_filled_; ++i) {
    recall_sum += recall_window_[i];
    disp_sum += displacement_window_[i];
    err_sum += score_error_window_[i];
  }
  const double denom = static_cast<double>(window_filled_);
  recall_gauge_->Set(recall_sum / denom);
  displacement_gauge_->Set(disp_sum / denom);
  score_error_gauge_->Set(err_sum / denom);

  // Drift detection on per-audit recall.
  uint64_t mark_start = TraceNowNs(task.trace.get());
  const double baseline = detector_.mean();  // Update re-baselines on alarm.
  if (detector_.Update(recall)) {
    if (detector_.alarmed()) {
      drift_alarm_->Set(1);
      drift_alarms_->Increment();
      QSE_LOG_WARN("quality drift alarm RAISED: windowed recall@k "
                   << recall_gauge_->Value() << ", detector baseline "
                   << baseline << " after "
                   << audits_completed_->Value() + 1 << " audits");
      TraceMark(task.trace.get(), "quality_drift_alarm", mark_start);
    } else {
      drift_alarm_->Set(0);
      QSE_LOG("quality drift alarm cleared: recall stabilized at "
              << recall_gauge_->Value());
    }
  }

  audits_completed_->Increment();
}

}  // namespace obs
}  // namespace qse
