#ifndef QSE_RETRIEVAL_FILTER_PRECISION_H_
#define QSE_RETRIEVAL_FILTER_PRECISION_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace qse {

/// What the filter scan streams.  Refine always re-scores its
/// candidates from the float64 rows of the same snapshot, so reduced
/// precision here can only perturb WHICH top-p candidates are kept —
/// never the final reported distances.
enum class FilterPrecision : int {
  /// Scan the float64 rows.  Bit-identical to the pre-dispatch engine.
  /// A query-sensitive scan over a view large enough to stream from
  /// DRAM that carries an int8 matrix first scores every row's int8
  /// shadow exactly in integers and reads the float64 row only when the
  /// I8Prescreen margin cannot rule it out (FilterScorer::ScoreTopP);
  /// candidates and scores stay bit-identical.
  kExact64 = 0,
  /// Scan the float32 shadow matrix: half the bytes.
  kFilter32 = 1,
  /// Scan the int8 symmetric-quantized shadow: an eighth of the bytes.
  kFilter8 = 2,
};

inline constexpr int kNumFilterPrecisions = 3;

const char* FilterPrecisionName(FilterPrecision p);

/// Shadow-matrix bits for EmbeddedDatabase::EnableFilterShadows and
/// ShardedEngineOptions::filter_shadows.
inline constexpr uint32_t kShadowFloat32 = 1u << 0;
inline constexpr uint32_t kShadowInt8 = 1u << 1;

/// The shadow bit a precision needs (0 for kExact64).
uint32_t ShadowMaskFor(FilterPrecision p);

/// Symmetric int8 quantization: round(x / scale) clamped to ±127.
/// A non-positive scale marks an all-zero dimension and a non-finite one
/// a dimension holding ±inf or NaN; either way anything lands on 0.
int8_t QuantizeToInt8(double x, float scale);

/// Whether `x` quantizes under `scale` without clamping error beyond
/// the half-step bound, i.e. |x| <= 127.5 * scale (or x == 0 for a dead
/// dimension).  A non-finite scale bounds nothing, so every value fits
/// it.  The database keeps this true for every stored value by
/// re-quantizing the whole version when an insert would violate it.
bool FitsInt8(double x, float scale);

/// A two-parameter error envelope for a reduced-precision scan:
///
///     |approx - exact| <= additive + relative * (exact + approx)
///
/// where `exact` is the float64 score and `approx` the reduced-precision
/// one (both non-negative sums).  The lopsided `(exact + approx)` form
/// lets the widening below avoid needing either side alone.
struct ReducedPrecisionBound {
  double additive = 0.0;
  double relative = 0.0;
};

/// The early-abandon threshold to hand a reduced-precision kernel so
/// that abandonment stays sound: if the approx partial exceeds the
/// widened threshold W, the EXACT score provably exceeds the caller's
/// threshold T.  Derivation from the envelope:
///     exact >= (approx * (1 - rel) - add) / (1 + rel)
/// so requiring approx > W with W = (T * (1 + rel) + add) / (1 - rel)
/// forces exact > T.  Returns +infinity (never abandon) when the
/// envelope is too loose to widen (rel >= 1) or T is infinite.
double WidenedAbandonThreshold(double threshold,
                               const ReducedPrecisionBound& bound);

/// Envelope for scanning the float32 shadow with weighted-L1 terms
/// sum_j w_j |q_j - r_j| (pass w == nullptr for unit weights).  Only
/// query-side quantities appear — the row-side input rounding is folded
/// through |r_j| <= |q_j| + |q_j - r_j| into the relative part — so the
/// bound holds for every row without a per-version statistic that
/// in-place appends would race against.
ReducedPrecisionBound F32BoundWeightedL1(const double* w, const double* q,
                                         size_t d);

/// Envelope for the float32 squared-L2 scan sum_j (q_j - r_j)^2.
ReducedPrecisionBound F32BoundSquaredL2(const double* q, size_t d);

/// Envelope for the int8 weighted-L1 scan, where the kernel computes
/// sum_j c_j |qq_j - rq_j| with c_j = w_j * s_j.  `qq` is the quantized
/// query and `scales` the per-dimension scales; the dominant additive
/// term sums w_j * (|q_j - s_j * qq_j| + 0.5 * s_j): the query's exact
/// quantization residual plus the rows' half-step bound (guaranteed by
/// FitsInt8 maintenance).  Pass w == nullptr for unit weights.
ReducedPrecisionBound I8BoundWeightedL1(const double* w, const double* q,
                                        const int8_t* qq, const float* scales,
                                        size_t d);

/// The int8 prescreen in front of an exact weighted-L1 scan, quantized
/// for one query: integer coefficients `coeffs` (cq_j) for the kernel's
/// exact block entry (KernelTable::prescreen_i8), which gives each row
/// the integer score S = sum_j cq_j * |qq_j - rq_j|, a scale σ that
/// maps S back to the weighted-L1 scale, and a margin m.  For every row
/// x whose int8 shadow rq holds the database's invariant under `scales`
/// (|x_j - s_j * rq_j| <= 0.5 * s_j and |x_j| <= 127.5 * s_j, see
/// EmbeddedDatabase), with `exact` the float64 score wl1_f64 returns,
///
///     |exact - σ * S| <= m
///
/// in real arithmetic, whatever the sign of each w_j.
struct I8Prescreen {
  /// cq_j = round(c_j / σ) for c_j = w_j * s_j (in double), so
  /// |cq_j| <= C = min(32767, floor(INT32_MAX / (254 * d))) and
  /// sum_j |cq_j| * 254 <= INT32_MAX: the kernel's overflow
  /// precondition.
  std::vector<int16_t> coeffs;
  /// σ = max_j |c_j| / C.
  double scale = 0.0;
  /// m sums four parts: the quantization residual sum_j |w_j| *
  /// (|q_j - s_j * qq_j| + 0.5 * s_j), the coefficient rounding
  /// sum_j |c_j - σ * cq_j| * 254 (|qq_j - rq_j| <= 254), the float64
  /// rounding of the exact score (bounded through |x_j| <= 127.5 * s_j),
  /// and the rounding of m's own double arithmetic.  One margin serves
  /// every row.
  ///
  /// +infinity, which prescreens nothing, when no finite margin exists:
  /// a non-finite query value, weight or scale (a dimension holding ±inf
  /// or NaN carries a non-finite scale), magnitudes large enough that
  /// the float64 kernel could overflow, or a σ that is not finite and
  /// positive (all-zero weights, say).
  double margin = std::numeric_limits<double>::infinity();

  /// Largest integer score a row can have and still score at most
  /// `threshold` exactly: S > Cut(t) implies σ * S - m > t, so the exact
  /// score exceeds t.  Rounded up soundly; INT64_MAX (dismisses nothing)
  /// when t is +inf or the quotient leaves the int64 range.
  int64_t Cut(double threshold) const;

  /// ceil(2m / σ), rounded up soundly: with S_p the p-th smallest S of a
  /// set of rows, the p rows holding the smallest S all score at most
  /// σ * S_p + m exactly, so a row with S > S_p + Slack() scores more
  /// than the p-th best exact score of the whole set.  INT64_MAX when
  /// the quotient leaves the int53 range.
  int64_t Slack() const;
};

/// Quantizes the int8 prescreen for the weighted-L1 query (`w`, `q`),
/// its quantized form `qq` and the per-dimension `scales`.
I8Prescreen QuantizeI8Prescreen(const double* w, const double* q,
                                const int8_t* qq, const float* scales,
                                size_t d);

/// Envelope for the int8 squared-L2 scan (kernel term (c_j * fd) * fd
/// with c_j = s_j^2).  Per dimension, with e_j the combined query + row
/// quantization error, |u^2 - v^2| <= e_j * (2 * (|q_j| + 127.5 * s_j)
/// + e_j) since |q_j - r_j| <= |q_j| + 127.5 * s_j.
ReducedPrecisionBound I8BoundSquaredL2(const double* q, const int8_t* qq,
                                       const float* scales, size_t d);

/// The smallest float that is >= x (a plain cast rounds to nearest and
/// can land BELOW x, which would under-widen a float threshold).
float FloatAtLeast(double x);

}  // namespace qse

#endif  // QSE_RETRIEVAL_FILTER_PRECISION_H_
