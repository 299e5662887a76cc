#ifndef QSE_RETRIEVAL_FILTER_PRECISION_H_
#define QSE_RETRIEVAL_FILTER_PRECISION_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace qse {

/// The filter scan's precision.  Only kExact64 exists as a scan: the
/// exact float64 scan, prescreened losslessly on the int8 matrix every
/// local database keeps (FilterScorer::ScoreTopP).  The two reduced
/// enumerators name lossy scans that were removed; the enum survives
/// only because the benchmark harness's scan seam still passes a
/// precision through FilterScorer::ScoreTopP, and
/// ValidateRetrievalOptions rejects anything but kExact64 as
/// InvalidArgument.
enum class FilterPrecision : int {
  kExact64 = 0,
  kFilter32 = 1,
  kFilter8 = 2,
};

inline constexpr int kNumFilterPrecisions = 3;

const char* FilterPrecisionName(FilterPrecision p);

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

/// The int8 prescreen in front of an exact weighted-L1 scan, quantized
/// for one query: integer coefficients `coeffs` (cq_j) for the kernel's
/// exact block entry (KernelTable::prescreen_i8), which gives each row
/// the integer score S = sum_j cq_j * |qq_j - rq_j|, a scale σ that
/// maps S back to the weighted-L1 scale, and a margin m.  For every row
/// x whose int8 row rq holds the database's invariant under `scales`
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

}  // namespace qse

#endif  // QSE_RETRIEVAL_FILTER_PRECISION_H_
