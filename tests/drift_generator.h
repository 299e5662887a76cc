#ifndef QSE_TESTS_DRIFT_GENERATOR_H_
#define QSE_TESTS_DRIFT_GENERATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/data/dataset.h"
#include "src/distance/distance.h"

namespace qse {

/// How the underlying distance structure changes over workload time.
/// The classic concept-drift taxonomy: an abrupt step change, a gradual
/// ramp, or a recurrent alternation between the original and drifted
/// regimes.
enum class DriftKind {
  kNone = 0,
  kAbrupt,
  kGradual,
  kRecurrent,
};

/// Stable lower-case name ("none", "abrupt", ...); "invalid" out of
/// range.
const char* DriftKindName(DriftKind kind);

/// When and how strongly drift applies, as a pure function of a
/// monotone workload step counter (one step per query, typically).
struct DriftSchedule {
  DriftKind kind = DriftKind::kNone;
  /// First drifted step; everything before it is the clean regime.
  size_t onset = 0;
  /// kGradual: steps from onset to full magnitude.
  size_t ramp = 1;
  /// kRecurrent: block length — after onset the regime alternates
  /// between fully drifted and clean every `period` steps.
  size_t period = 1;
  /// Displacement scale at full drift, in the units of the point
  /// coordinates (points live in [0,1]^d, so 0.25 rearranges the
  /// neighborhood structure substantially).
  double magnitude = 0.25;
};

/// Fraction of `schedule.magnitude` in effect at `step`, in [0, 1].
/// Pure and branch-cheap; kNone (and any schedule before its onset)
/// is 0.
double DriftFactor(const DriftSchedule& schedule, size_t step);

/// A point-set distance oracle whose TRUE distances drift over workload
/// time while any embeddings computed from it go stale.
///
/// Each object is a point in [0,1]^dims plus a fixed random unit
/// displacement direction (both seeded).  At step t, object i sits at
///   base_i + DriftFactor(schedule, t) * magnitude * dir_i
/// and Distance is L2 between the displaced positions.  Embed the
/// database at step 0, advance SetStep as queries flow, and the filter
/// step keeps ranking by the stale geometry while refine and ground
/// truth see the current one — recall degrades exactly the way a real
/// drifting corpus degrades a frozen embedding, which is the signal the
/// QualityMonitor's drift detector must catch.
///
/// Thread-safety: Distance reads the step once (relaxed atomic) per
/// call and touches only immutable arrays, so any number of query
/// threads may race SetStep; each distance evaluation is consistent
/// with some step at or near the current one.
class DriftingPointOracle : public DistanceOracle {
 public:
  DriftingPointOracle(size_t n, size_t dims, DriftSchedule schedule,
                      uint64_t seed);

  size_t size() const override { return base_.size(); }
  double Distance(size_t i, size_t j) const override;

  /// Advances (or rewinds) the workload clock.  Typically bumped once
  /// per issued query by the load generator.
  void SetStep(size_t step) {
    step_.store(step, std::memory_order_relaxed);
  }
  size_t step() const { return step_.load(std::memory_order_relaxed); }

  /// Current displacement scale: DriftFactor(schedule, step()) *
  /// magnitude.
  double CurrentDisplacement() const;

  const DriftSchedule& schedule() const { return schedule_; }

  /// Object i's position at the CURRENT step (tests and plots).
  Vector PositionAt(size_t i) const;

 private:
  std::vector<Vector> base_;
  std::vector<Vector> dir_;  // unit-norm, fixed per object
  DriftSchedule schedule_;
  std::atomic<size_t> step_{0};
};

namespace test {

/// The drift scenarios the drift suites share.  `onset` is in workload
/// steps; magnitudes are in point-coordinate units over [0,1]^d, where
/// 0.35 costs a frozen embedding a large recall fraction.
inline DriftSchedule AbruptDrift(size_t onset, double magnitude = 0.35) {
  DriftSchedule s;
  s.kind = DriftKind::kAbrupt;
  s.onset = onset;
  s.magnitude = magnitude;
  return s;
}

/// Linear ramp over `ramp` steps from `onset`.
inline DriftSchedule GradualDrift(size_t onset, size_t ramp,
                                  double magnitude = 0.35) {
  DriftSchedule s = AbruptDrift(onset, magnitude);
  s.kind = DriftKind::kGradual;
  s.ramp = ramp;
  return s;
}

/// Drifted and clean blocks of `period` steps, alternating from `onset`.
inline DriftSchedule RecurrentDrift(size_t onset, size_t period,
                                    double magnitude = 0.35) {
  DriftSchedule s = AbruptDrift(onset, magnitude);
  s.kind = DriftKind::kRecurrent;
  s.period = period;
  return s;
}

}  // namespace test
}  // namespace qse

#endif  // QSE_TESTS_DRIFT_GENERATOR_H_
