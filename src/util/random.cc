#include "src/util/random.h"

#include <cassert>
#include <numeric>

namespace qse {

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

size_t Rng::Index(size_t n) {
  assert(n > 0);
  std::uniform_int_distribution<size_t> dist(0, n - 1);
  return dist(engine_);
}

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::Gaussian(double mean, double stddev) {
  // std::normal_distribution requires stddev > 0, so draw N(0, 1) and
  // scale.  libstdc++ returns exactly z * stddev + mean from the same
  // draw, so every stddev > 0 stream is unchanged; stddev == 0 yields
  // the mean.
  std::normal_distribution<double> dist(0.0, 1.0);
  const double z = dist(engine_);
  return z * stddev + mean;
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  assert(k <= n);
  // Partial Fisher-Yates over an index vector; O(n) memory, O(n + k) time.
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + Index(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace qse
