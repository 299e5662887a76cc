#ifndef QSE_UTIL_RANDOM_H_
#define QSE_UTIL_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

namespace qse {

/// Deterministic random number generator used everywhere in the library.
///
/// Every stochastic component (dataset generators, triple samplers, the
/// AdaBoost weak learner) takes an explicit Rng (or seed) so that all
/// experiments are reproducible bit-for-bit from a seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive).  Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform index in [0, n).  Requires n > 0.
  size_t Index(size_t n);

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);

  /// Normal deviate with the given mean and standard deviation
  /// (stddev == 0 returns the mean).
  double Gaussian(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      std::swap((*v)[i], (*v)[Index(i + 1)]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace qse

#endif  // QSE_UTIL_RANDOM_H_
