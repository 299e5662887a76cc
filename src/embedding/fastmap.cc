#include "src/embedding/fastmap.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/util/logging.h"
#include "src/util/serialize.h"

namespace qse {

namespace {

/// Residual squared distance at the current level given the raw distance
/// and the two objects' coordinates so far.
double ResidualSquared(double raw, const Vector& xa, const Vector& xb,
                       size_t levels) {
  double r = raw * raw;
  for (size_t l = 0; l < levels; ++l) {
    double d = xa[l] - xb[l];
    r -= d * d;
  }
  return r > 0.0 ? r : 0.0;
}

}  // namespace

FastMapModel BuildFastMap(const DistanceOracle& oracle,
                          const std::vector<size_t>& sample_ids,
                          const FastMapOptions& options) {
  QSE_CHECK_MSG(sample_ids.size() >= 2, "FastMap needs at least 2 objects");
  const size_t n = sample_ids.size();
  Rng rng(options.seed);

  // proj[i] = coordinates assigned so far to sample object i.
  std::vector<Vector> proj(n);
  std::vector<FastMapModel::Level> levels;
  levels.reserve(options.dims);

  // Raw-distance row cache for the current pivots.
  std::vector<double> dist_to_a(n), dist_to_b(n);

  for (size_t level = 0; level < options.dims; ++level) {
    // Choose-distant-objects heuristic [12]: start from a random object,
    // alternately jump to the farthest object in the residual space.
    size_t b = rng.Index(n);
    size_t a = b;
    std::vector<double> dist_row(n);
    for (size_t iter = 0; iter < options.pivot_iterations; ++iter) {
      for (size_t i = 0; i < n; ++i) {
        dist_row[i] = i == b ? 0.0
                             : oracle.Distance(sample_ids[b], sample_ids[i]);
      }
      size_t farthest = b;
      double best = -1.0;
      for (size_t i = 0; i < n; ++i) {
        double r = ResidualSquared(dist_row[i], proj[b], proj[i], level);
        if (r > best) {
          best = r;
          farthest = i;
        }
      }
      a = b;
      b = farthest;
      if (a == b) break;
    }
    if (a == b) break;  // Degenerate: all residual distances are zero.

    for (size_t i = 0; i < n; ++i) {
      dist_to_a[i] =
          i == a ? 0.0 : oracle.Distance(sample_ids[a], sample_ids[i]);
      dist_to_b[i] =
          i == b ? 0.0 : oracle.Distance(sample_ids[b], sample_ids[i]);
    }
    double dab2 = ResidualSquared(dist_to_a[b], proj[a], proj[b], level);
    double dab = std::sqrt(dab2);
    if (dab <= 1e-12) break;  // No spread left to project on.

    FastMapModel::Level lv;
    lv.pivot_a = static_cast<uint32_t>(sample_ids[a]);
    lv.pivot_b = static_cast<uint32_t>(sample_ids[b]);
    lv.dist_ab = dab;
    lv.coords_a = proj[a];
    lv.coords_b = proj[b];

    for (size_t i = 0; i < n; ++i) {
      double dia2 = ResidualSquared(dist_to_a[i], proj[a], proj[i], level);
      double dib2 = ResidualSquared(dist_to_b[i], proj[b], proj[i], level);
      double x = (dia2 + dab2 - dib2) / (2.0 * dab);
      proj[i].push_back(x);
    }
    levels.push_back(std::move(lv));
  }
  return FastMapModel(std::move(levels));
}

FastMapModel::FastMapModel(std::vector<Level> levels)
    : levels_(std::move(levels)) {
  for (const Level& lv : levels_) {
    ids_.Use(lv.pivot_a);
    ids_.Use(lv.pivot_b);
  }
}

Vector FastMapModel::Embed(const DxToDatabaseFn& dx,
                           size_t* num_exact) const {
  Vector raw = ids_.Distances(dx);
  const std::vector<uint32_t>& slots = ids_.slots();
  Vector coords;
  coords.reserve(levels_.size());
  for (const Level& lv : levels_) {
    size_t l = coords.size();
    double da2 = ResidualSquared(raw[slots[2 * l]], coords, lv.coords_a, l);
    double db2 =
        ResidualSquared(raw[slots[2 * l + 1]], coords, lv.coords_b, l);
    double dab2 = lv.dist_ab * lv.dist_ab;
    coords.push_back((da2 + dab2 - db2) / (2.0 * lv.dist_ab));
  }
  if (num_exact != nullptr) *num_exact = ids_.size();
  return coords;
}

FastMapModel FastMapModel::Prefix(size_t d) const {
  size_t take = d < levels_.size() ? d : levels_.size();
  std::vector<Level> prefix(levels_.begin(),
                            levels_.begin() + static_cast<long>(take));
  return FastMapModel(std::move(prefix));
}

namespace {
constexpr uint32_t kFastMapMagic = 0x51464D31;  // "QFM1"
}  // namespace

Status FastMapModel::Save(const std::string& path) const {
  ByteWriter w;
  w.WriteU32(kFastMapMagic);
  w.WriteU64(levels_.size());
  for (const Level& lv : levels_) {
    w.WriteU32(lv.pivot_a);
    w.WriteU32(lv.pivot_b);
    w.WriteDouble(lv.dist_ab);
    w.WriteDoubleVec(lv.coords_a);
    w.WriteDoubleVec(lv.coords_b);
  }
  return WriteFileBytes(path, w.bytes());
}

StatusOr<FastMapModel> FastMapModel::Load(const std::string& path) {
  StatusOr<std::string> bytes = ReadFileBytes(path);
  QSE_RETURN_IF_ERROR(bytes.status());
  ByteReader r(bytes.value());
  uint32_t magic = 0;
  QSE_RETURN_IF_ERROR(r.ReadU32(&magic));
  if (magic != kFastMapMagic) {
    return Status::IOError("bad magic in FastMap model file: " + path);
  }
  uint64_t n = 0;
  QSE_RETURN_IF_ERROR(r.ReadU64(&n));
  // A level is at least its pivots, distance and two vector counts.
  QSE_RETURN_IF_ERROR(r.CheckCount(n, 32, 1ull << 20));
  std::vector<Level> levels(n);
  for (Level& lv : levels) {
    QSE_RETURN_IF_ERROR(r.ReadU32(&lv.pivot_a));
    QSE_RETURN_IF_ERROR(r.ReadU32(&lv.pivot_b));
    QSE_RETURN_IF_ERROR(r.ReadDouble(&lv.dist_ab));
    QSE_RETURN_IF_ERROR(r.ReadDoubleVec(&lv.coords_a));
    QSE_RETURN_IF_ERROR(r.ReadDoubleVec(&lv.coords_b));
  }
  QSE_RETURN_IF_ERROR(r.RequireExhausted());
  return FastMapModel(std::move(levels));
}

}  // namespace qse
