#include "src/retrieval/filter_precision.h"

#include <algorithm>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>

namespace qse {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Machine epsilon of float32 arithmetic.  FLT_EPSILON is a full ulp of
/// 1.0 — twice the worst-case rounding of any single operation — which
/// is the 2x safety margin the envelope constants lean on.
constexpr double kEps32 = FLT_EPSILON;

/// Relative envelope of a sixteen-lane float32 sum of d terms, each
/// term carrying a handful of input-rounding and mul/sub roundings:
/// d/16 additions per lane plus the depth-4 reduction tree plus ~8
/// per-term roundings, rounded up generously.
double F32RelativeEnvelope(size_t d) {
  return kEps32 * (static_cast<double>(d) / 16.0 + 16.0);
}

/// The float64 counterpart for the four-lane wl1_f64 kernel: d/4
/// additions per lane, a d % 4 tail and the depth-2 reduction, plus the
/// subtract and multiply roundings of each term.
double F64RelativeEnvelope(size_t d) {
  return DBL_EPSILON * (static_cast<double>(d) / 4.0 + 16.0);
}

/// Largest |qq_j - rq_j| between two int8 values clamped to ±127.
constexpr double kMaxI8Diff = 254.0;

}  // namespace

const char* FilterPrecisionName(FilterPrecision p) {
  switch (p) {
    case FilterPrecision::kExact64:
      return "exact64";
    case FilterPrecision::kFilter32:
      return "filter32";
    case FilterPrecision::kFilter8:
      return "filter8";
  }
  return "unknown";
}

uint32_t ShadowMaskFor(FilterPrecision p) {
  switch (p) {
    case FilterPrecision::kExact64:
      return 0;
    case FilterPrecision::kFilter32:
      return kShadowFloat32;
    case FilterPrecision::kFilter8:
      return kShadowInt8;
  }
  return 0;
}

int8_t QuantizeToInt8(double x, float scale) {
  if (!(scale > 0.0f) || std::isinf(scale)) return 0;
  long q = std::lround(x / static_cast<double>(scale));
  if (q > 127) q = 127;
  if (q < -127) q = -127;
  return static_cast<int8_t>(q);
}

bool FitsInt8(double x, float scale) {
  if (!std::isfinite(scale)) return true;
  if (!(scale > 0.0f)) return x == 0.0;
  return std::fabs(x) <= 127.5 * static_cast<double>(scale);
}

double WidenedAbandonThreshold(double threshold,
                               const ReducedPrecisionBound& bound) {
  if (!(bound.relative < 1.0) || std::isinf(threshold)) {
    return std::numeric_limits<double>::infinity();
  }
  return (threshold * (1.0 + bound.relative) + bound.additive) /
         (1.0 - bound.relative);
}

ReducedPrecisionBound F32BoundWeightedL1(const double* w, const double* q,
                                         size_t d) {
  double wq = 0.0;
  for (size_t j = 0; j < d; ++j) {
    wq += (w != nullptr ? w[j] : 1.0) * std::fabs(q[j]);
  }
  return {4.0 * kEps32 * wq, F32RelativeEnvelope(d)};
}

ReducedPrecisionBound F32BoundSquaredL2(const double* q, size_t d) {
  double qq = 0.0;
  for (size_t j = 0; j < d; ++j) qq += q[j] * q[j];
  return {4.0 * kEps32 * qq, F32RelativeEnvelope(d)};
}

ReducedPrecisionBound I8BoundWeightedL1(const double* w, const double* q,
                                        const int8_t* qq, const float* scales,
                                        size_t d) {
  double add = 0.0;
  for (size_t j = 0; j < d; ++j) {
    double s = scales[j];
    double resid = std::fabs(q[j] - s * qq[j]) + 0.5 * s;
    add += (w != nullptr ? w[j] : 1.0) * resid;
  }
  return {add, F32RelativeEnvelope(d)};
}

I8Prescreen QuantizeI8Prescreen(const double* w, const double* q,
                                const int8_t* qq, const float* scales,
                                size_t d) {
  I8Prescreen out;
  out.coeffs.assign(d, 0);
  out.margin = kInf;
  // The coefficient cap C keeps sum_j |cq_j| * 254 <= INT32_MAX.
  const double cap =
      std::min(32767.0, std::floor(static_cast<double>(INT32_MAX) /
                                   (kMaxI8Diff * std::max<size_t>(d, 1))));
  double cmax = 0.0;
  for (size_t j = 0; j < d; ++j) {
    double c = std::fabs(w[j] * static_cast<double>(scales[j]));
    if (!(c <= cmax)) cmax = c;  // NaN sticks
  }
  const double sigma = cmax / cap;
  if (!std::isfinite(sigma) || !(sigma > 0.0)) return out;
  out.scale = sigma;
  const double dd = static_cast<double>(d);
  double resid = 0.0;     // sum_j |w_j| (|q_j - s_j qq_j| + 0.5 s_j)
  double coef_err = 0.0;  // sum_j |c_j - σ cq_j|
  double mag32 = 0.0;     // sum_j |c_j|
  double mag64 = 0.0;     // bounds sum_j |w_j (q_j - x_j)|
  for (size_t j = 0; j < d; ++j) {
    double aw = std::fabs(w[j]);
    double s = scales[j];
    double c = w[j] * s;
    double k = std::nearbyint(c / sigma);
    k = std::min(cap, std::max(-cap, k));
    out.coeffs[j] = static_cast<int16_t>(k);
    coef_err += std::fabs(c - sigma * k);
    mag32 += std::fabs(c);
    resid += aw * (std::fabs(q[j] - s * qq[j]) + 0.5 * s);
    mag64 += aw * (std::fabs(q[j]) + 127.5 * s);
  }
  // Every partial sum the float64 kernel forms stays below twice its
  // term magnitude bound; keeping that finite rules out an overflow
  // turning a score into inf.  A NaN anywhere fails these comparisons.
  if (!(2.0 * mag64 <= DBL_MAX) || !(resid <= DBL_MAX)) return out;
  // Each computed c_j and σ * cq_j is within an ulp of its real value
  // (|σ cq_j| <= |c_j| + σ / 2), which 4 * DBL_EPSILON * (|c_j| + σ)
  // covers on top of the computed |c_j - σ cq_j|.
  const double coef_round = 4.0 * DBL_EPSILON * (mag32 + sigma * dd);
  double margin = resid + kMaxI8Diff * (coef_err + coef_round) +
                  F64RelativeEnvelope(d) * mag64;
  // The sums above round too, and a row's own half step is 0.5 * s_j
  // only up to the rounding of x_j / s_j inside QuantizeToInt8 (at most
  // 127.5 * 2^-53 of a step); one relative factor covers both.
  margin *= 1.0 + DBL_EPSILON * (dd + 260.0);
  if (margin <= DBL_MAX) out.margin = margin;
  return out;
}

int64_t I8Prescreen::Cut(double threshold) const {
  // (t + m) / σ rounded up at each step, then floored: S > floor(y)
  // means S > y >= (t + m) / σ in real arithmetic.
  double y = std::nextafter(threshold + margin, kInf);
  y = std::nextafter(y / scale, kInf);
  if (!(y < 0x1p62)) return INT64_MAX;  // +inf and NaN included
  if (y < -0x1p62) return -(int64_t{1} << 62);
  return static_cast<int64_t>(std::floor(y));
}

int64_t I8Prescreen::Slack() const {
  double y = std::nextafter((2.0 * margin) / scale, kInf);
  if (!(y < 0x1p53)) return INT64_MAX;
  return static_cast<int64_t>(std::ceil(y));
}

ReducedPrecisionBound I8BoundSquaredL2(const double* q, const int8_t* qq,
                                       const float* scales, size_t d) {
  double add = 0.0;
  for (size_t j = 0; j < d; ++j) {
    double s = scales[j];
    double e = std::fabs(q[j] - s * qq[j]) + 0.5 * s;
    add += e * (2.0 * (std::fabs(q[j]) + 127.5 * s) + e);
  }
  return {add, F32RelativeEnvelope(d)};
}

float FloatAtLeast(double x) {
  float f = static_cast<float>(x);
  if (static_cast<double>(f) < x) {
    f = std::nextafterf(f, std::numeric_limits<float>::infinity());
  }
  return f;
}

}  // namespace qse
