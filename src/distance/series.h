#ifndef QSE_DISTANCE_SERIES_H_
#define QSE_DISTANCE_SERIES_H_

#include <cassert>
#include <cstddef>
#include <vector>

#include "src/util/logging.h"

namespace qse {

/// A multi-dimensional time series: `length` samples, each a point in
/// R^dims, stored point-major in one flat buffer.
///
/// Matches the data model of the paper's second testbed [32]:
/// multi-dimensional sequences of varying length, mean-normalized per
/// dimension before comparison.
class Series {
 public:
  Series() : dims_(1) {}
  Series(size_t dims, std::vector<double> values)
      : dims_(dims), values_(std::move(values)) {
    assert(dims_ > 0);
    assert(values_.size() % dims_ == 0);
  }

  size_t dims() const { return dims_; }
  size_t length() const { return dims_ == 0 ? 0 : values_.size() / dims_; }
  bool empty() const { return values_.empty(); }

  // Bounds checks stay on in release builds: at() is not on the DTW hot
  // path (that uses raw row pointers), and a silent out-of-bounds read
  // here once corrupted a whole workload (see timeseries_generator.cc
  // warp normalization regression test).
  double at(size_t t, size_t d) const {
    QSE_CHECK(t < length() && d < dims_);
    return values_[t * dims_ + d];
  }
  double& at(size_t t, size_t d) {
    QSE_CHECK(t < length() && d < dims_);
    return values_[t * dims_ + d];
  }

  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

  /// Subtracts the per-dimension mean in place (the normalization applied
  /// to the paper's time-series dataset).
  void SubtractMean();

  /// Linear-interpolation resampling to `new_length` samples (per
  /// dimension).  Used to build the fixed-length variants required by
  /// LB_Keogh-style lower bounding.
  Series Resampled(size_t new_length) const;

 private:
  size_t dims_;
  std::vector<double> values_;
};

}  // namespace qse

#endif  // QSE_DISTANCE_SERIES_H_
