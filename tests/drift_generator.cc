#include "tests/drift_generator.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"
#include "src/util/random.h"

namespace qse {

const char* DriftKindName(DriftKind kind) {
  switch (kind) {
    case DriftKind::kNone:
      return "none";
    case DriftKind::kAbrupt:
      return "abrupt";
    case DriftKind::kGradual:
      return "gradual";
    case DriftKind::kRecurrent:
      return "recurrent";
  }
  return "invalid";
}

double DriftFactor(const DriftSchedule& schedule, size_t step) {
  if (schedule.kind == DriftKind::kNone || step < schedule.onset) return 0.0;
  const size_t since = step - schedule.onset;
  switch (schedule.kind) {
    case DriftKind::kNone:
      return 0.0;
    case DriftKind::kAbrupt:
      return 1.0;
    case DriftKind::kGradual: {
      const size_t ramp = std::max<size_t>(schedule.ramp, 1);
      return std::min(1.0, static_cast<double>(since + 1) /
                               static_cast<double>(ramp));
    }
    case DriftKind::kRecurrent: {
      const size_t period = std::max<size_t>(schedule.period, 1);
      // Drifted block first (the onset IS the first change), then clean,
      // alternating.
      return (since / period) % 2 == 0 ? 1.0 : 0.0;
    }
  }
  return 0.0;
}

DriftingPointOracle::DriftingPointOracle(size_t n, size_t dims,
                                         DriftSchedule schedule, uint64_t seed)
    : schedule_(schedule) {
  QSE_CHECK_MSG(dims > 0, "DriftingPointOracle needs dims > 0");
  Rng rng(seed);
  base_.reserve(n);
  dir_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Vector point(dims);
    for (double& c : point) c = rng.Uniform(0, 1);
    base_.push_back(std::move(point));
    // Isotropic unit direction: normalized Gaussian deviates.
    Vector dir(dims);
    double norm2 = 0;
    do {
      norm2 = 0;
      for (double& c : dir) {
        c = rng.Gaussian();
        norm2 += c * c;
      }
    } while (norm2 == 0);
    const double inv = 1.0 / std::sqrt(norm2);
    for (double& c : dir) c *= inv;
    dir_.push_back(std::move(dir));
  }
}

double DriftingPointOracle::CurrentDisplacement() const {
  return DriftFactor(schedule_, step()) * schedule_.magnitude;
}

double DriftingPointOracle::Distance(size_t i, size_t j) const {
  // One step read per evaluation: every coordinate of this distance is
  // consistent with the same workload time.
  const double disp = CurrentDisplacement();
  const Vector& bi = base_[i];
  const Vector& bj = base_[j];
  const Vector& di = dir_[i];
  const Vector& dj = dir_[j];
  double sum = 0;
  for (size_t c = 0; c < bi.size(); ++c) {
    const double delta = (bi[c] + disp * di[c]) - (bj[c] + disp * dj[c]);
    sum += delta * delta;
  }
  return std::sqrt(sum);
}

Vector DriftingPointOracle::PositionAt(size_t i) const {
  const double disp = CurrentDisplacement();
  Vector pos = base_[i];
  for (size_t c = 0; c < pos.size(); ++c) pos[c] += disp * dir_[i][c];
  return pos;
}

}  // namespace qse
