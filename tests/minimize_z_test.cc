// Differential test of MinimizeZ against the plain bisection it replaces.
//
// MinimizeZ skips the dZ passes whose sign an error bound already proves
// (the derivation sits next to the code), so its α and Z must equal,
// bit for bit, those of a bisection that evaluates dZ at every step.
// That bisection is kept here, verbatim, as the reference.
//
// Environment knobs:
//   QSE_STRESS_ITERS  multiplies the number of random cases (default 1)
//   QSE_STRESS_SEED   replays one run's cases

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/adaboost.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace qse {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The bisection as it stood before sign certificates: every step runs
/// one exact pass of dZ over the active triples.
double PlainBisection(const std::vector<double>& weights,
                      const std::vector<double>& margins, double passive_mass,
                      double* z_min) {
  double total_active = 0.0;
  double max_abs = 0.0;
  for (size_t i = 0; i < margins.size(); ++i) {
    total_active += weights[i];
    max_abs = std::max(max_abs, std::fabs(margins[i]));
  }
  if (max_abs == 0.0 || weights.empty()) {
    if (z_min != nullptr) *z_min = passive_mass + total_active;
    return 0.0;
  }
  const double inv_scale = 1.0 / max_abs;
  auto z_at = [&](double beta) {
    double z = passive_mass;
    for (size_t i = 0; i < margins.size(); ++i) {
      z += weights[i] * std::exp(-beta * margins[i] * inv_scale);
    }
    return z;
  };
  auto dz_at = [&](double beta) {
    double d = 0.0;
    for (size_t i = 0; i < margins.size(); ++i) {
      double s = margins[i] * inv_scale;
      d -= weights[i] * s * std::exp(-beta * s);
    }
    return d;
  };
  constexpr double kBetaCap = 35.0;
  double d0 = dz_at(0.0);
  double lo_b, hi_b;
  bool lo_negative = true;
  if (d0 < 0.0) {
    lo_b = 0.0;
    hi_b = kBetaCap;
    if (dz_at(hi_b) < 0.0) {
      if (z_min != nullptr) *z_min = z_at(hi_b);
      return hi_b * inv_scale;
    }
  } else if (d0 > 0.0) {
    lo_b = -kBetaCap;
    hi_b = 0.0;
    double d_lo = dz_at(lo_b);
    if (d_lo > 0.0) {
      if (z_min != nullptr) *z_min = z_at(lo_b);
      return lo_b * inv_scale;
    }
    lo_negative = d_lo < 0.0;
  } else {
    if (z_min != nullptr) *z_min = z_at(0.0);
    return 0.0;
  }
  for (int iter = 0; iter < 64; ++iter) {
    double mid = 0.5 * (lo_b + hi_b);
    if (mid == hi_b || (mid == lo_b && lo_negative)) break;
    if (dz_at(mid) < 0.0) {
      lo_b = mid;
      lo_negative = true;
    } else {
      hi_b = mid;
    }
  }
  double beta = 0.5 * (lo_b + hi_b);
  if (z_min != nullptr) *z_min = z_at(beta);
  return beta * inv_scale;
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// 10^U(lo, hi).
double LogUniform(Rng* rng, double lo, double hi) {
  return std::pow(10.0, lo + (hi - lo) * rng->Uniform());
}

struct Case {
  std::vector<double> w, m;
  double passive = 0.0;
};

/// Weights of one of several shapes: AdaBoost-like (summing to 1), spread
/// log-uniformly over 1e-300..1, subnormal, or all equal.
std::vector<double> RandomWeights(size_t n, Rng* rng) {
  std::vector<double> w(n);
  switch (rng->Index(4)) {
    case 0: {
      double sum = 0.0;
      for (double& x : w) sum += x = rng->Uniform() + 1e-3;
      for (double& x : w) x /= sum;
      break;
    }
    case 1:
      for (double& x : w) x = LogUniform(rng, -300.0, 0.0);
      break;
    case 2:
      for (double& x : w) {
        x = rng->Bernoulli(0.5)
                ? std::numeric_limits<double>::denorm_min() *
                      static_cast<double>(1 + rng->Index(1u << 20))
                : LogUniform(rng, -20.0, 0.0);
      }
      break;
    default:
      std::fill(w.begin(), w.end(), 1.0 / static_cast<double>(n));
  }
  return w;
}

/// Margins of one of several shapes: spread, tied on a few values,
/// one-signed (a ±35 cap), one-hot, nearly one-signed (a root near a
/// cap), or in cancelling pairs (dZ(0) = 0 with equal weights).
std::vector<double> RandomMargins(size_t n, Rng* rng) {
  const double scale = LogUniform(rng, -8.0, 8.0);
  std::vector<double> m(n);
  switch (rng->Index(6)) {
    case 0:
      for (double& x : m) x = scale * (2.0 * rng->Uniform() - 1.0);
      break;
    case 1:
      for (double& x : m) {
        x = scale * (static_cast<double>(rng->Index(5)) - 2.0);
      }
      break;
    case 2: {
      const double sign = rng->Bernoulli(0.5) ? 1.0 : -1.0;
      for (double& x : m) x = sign * scale * rng->Uniform();
      break;
    }
    case 3:
      m[rng->Index(n)] = rng->Bernoulli(0.5) ? scale : -scale;
      break;
    case 4: {
      const double sign = rng->Bernoulli(0.5) ? 1.0 : -1.0;
      for (double& x : m) {
        x = sign * scale * (rng->Bernoulli(0.02) ? -1e-3 : rng->Uniform());
      }
      break;
    }
    default:
      for (size_t i = 0; i < n; ++i) {
        m[i] = i % 2 == 0 ? scale * rng->Uniform() : -m[i - 1];
      }
  }
  return m;
}

Case RandomCase(Rng* rng) {
  // n from 1 to 10k, log-uniform so small sets are common.
  const size_t n = std::min<size_t>(
      10000, static_cast<size_t>(LogUniform(rng, 0.0, 4.0)));
  Case c;
  c.m = RandomMargins(n, rng);
  c.w = RandomWeights(n, rng);
  if (n % 2 == 0 && rng->Bernoulli(0.2)) {
    // Cancelling pairs under equal pair weights: dZ(0) sums to exactly 0.
    for (size_t i = 1; i < n; i += 2) {
      c.m[i] = -c.m[i - 1];
      c.w[i] = c.w[i - 1];
    }
  }
  c.passive = rng->Bernoulli(0.5) ? rng->Uniform() : 0.0;
  return c;
}

/// Runs both and counts α or Z bit mismatches, printing the first few.
size_t Mismatches(const Case& c, const char* what) {
  double z_new = -1.0, z_old = -1.0;
  const double a_new = MinimizeZ(c.w, c.m, c.passive, &z_new);
  const double a_old = PlainBisection(c.w, c.m, c.passive, &z_old);
  if (Bits(a_new) == Bits(a_old) && Bits(z_new) == Bits(z_old)) return 0;
  ADD_FAILURE() << what << " n=" << c.w.size() << " alpha " << a_new
                << " vs " << a_old << ", Z " << z_new << " vs " << z_old;
  return 1;
}

TEST(MinimizeZTest, MatchesPlainBisectionBitForBit) {
  const uint64_t seed = test::StressSeed();
  QSE_LOG_STRESS_SEED(seed);
  Rng rng(seed);
  size_t mismatches = 0;

  // Random shapes.
  const size_t cases = 300 * test::StressScale();
  for (size_t k = 0; k < cases && mismatches < 5; ++k) {
    mismatches += Mismatches(RandomCase(&rng), "random");
  }

  // The fixed corners: both caps, dZ(0) = 0, a single triple.
  mismatches += Mismatches({{0.5, 0.5}, {1.0, 2.0}, 0.0}, "+cap");
  mismatches += Mismatches({{0.5, 0.5}, {-1.0, -2.0}, 0.0}, "-cap");
  mismatches += Mismatches({{0.25, 0.25}, {1.0, -1.0}, 0.5}, "dz0=0");
  mismatches += Mismatches({{1.0}, {3.0}, 0.0}, "one");
  mismatches += Mismatches({{1e-300, 1.0}, {1.0, -1e-300}, 0.0}, "tiny");

  // Inputs outside the certificate's premises take the plain path.
  for (double bad : {-0.25, kNaN, kInf, -kInf}) {
    Case c = RandomCase(&rng);
    c.w.push_back(bad);
    c.m.push_back(1.0);
    mismatches += Mismatches(c, "bad weight");
    Case d = RandomCase(&rng);
    d.w.push_back(0.5);
    d.m.push_back(bad);
    mismatches += Mismatches(d, "bad margin");
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace qse
