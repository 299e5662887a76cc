#include "src/util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace qse {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double QuantileNearestRank(std::vector<double> xs, double q) {
  assert(!xs.empty());
  assert(q >= 0.0 && q <= 1.0);
  std::sort(xs.begin(), xs.end());
  if (q <= 0.0) return xs.front();
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  if (rank == 0) rank = 1;
  if (rank > xs.size()) rank = xs.size();
  return xs[rank - 1];
}

double Min(const std::vector<double>& xs) {
  assert(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double Max(const std::vector<double>& xs) {
  assert(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

}  // namespace qse
