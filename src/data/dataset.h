#ifndef QSE_DATA_DATASET_H_
#define QSE_DATA_DATASET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/distance/distance.h"

namespace qse {

/// The core library's view of the paper's "arbitrary space X with distance
/// DX": a universe of objects addressed by index, behind an opaque distance
/// oracle.  Everything above this interface (BoostMap training, FastMap,
/// filter-and-refine, evaluation) is independent of the object type.
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// Number of objects in the universe.
  virtual size_t size() const = 0;

  /// DX between objects i and j.  Implementations may be asymmetric (the
  /// paper's setting allows non-metric DX); callers must not assume
  /// Distance(i, j) == Distance(j, i) unless they know the measure.
  virtual double Distance(size_t i, size_t j) const = 0;
};

/// Binds a concrete object container and a DistanceFn into an oracle.
template <typename T>
class ObjectOracle : public DistanceOracle {
 public:
  ObjectOracle(std::vector<T> objects, DistanceFn<T> distance)
      : objects_(std::move(objects)), distance_(std::move(distance)) {}

  size_t size() const override { return objects_.size(); }
  double Distance(size_t i, size_t j) const override {
    return distance_(objects_[i], objects_[j]);
  }

  const std::vector<T>& objects() const { return objects_; }
  const T& object(size_t i) const { return objects_[i]; }

 private:
  std::vector<T> objects_;
  DistanceFn<T> distance_;
};

/// Decorator that counts every exact-distance evaluation.  The paper's
/// efficiency metric is precisely "number of exact distance computations
/// per query" (Sec. 9); benches wrap their oracles in this.  The count is
/// atomic: TrainingContext::Build calls Distance from several threads.
class CountingOracle : public DistanceOracle {
 public:
  explicit CountingOracle(const DistanceOracle* inner) : inner_(inner) {}

  size_t size() const override { return inner_->size(); }
  double Distance(size_t i, size_t j) const override {
    count_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Distance(i, j);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  const DistanceOracle* inner_;
  mutable std::atomic<uint64_t> count_{0};
};

}  // namespace qse

#endif  // QSE_DATA_DATASET_H_
