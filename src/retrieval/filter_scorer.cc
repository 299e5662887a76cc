#include "src/retrieval/filter_scorer.h"

#include <algorithm>
#include <cmath>

#include "src/distance/lp.h"
#include "src/distance/simd/dispatch.h"
#include "src/distance/weighted_l1.h"
#include "src/util/logging.h"

namespace qse {
namespace {

/// Offers row i's completed (or abandoned) score to `top` under its
/// database id; returns whether the row was kept.  A score strictly
/// above the threshold loses whatever its id, so the id column is read
/// only for rows that can still enter the top p.
inline bool OfferRow(BoundedTopK* top, const EmbeddedDatabase::View& db,
                     size_t i, double score) {
  if (score > top->threshold()) return false;
  return top->Offer({db.id_of(i), score});
}

/// One streaming pass over the flat float64 buffer keeping the p
/// smallest rows.  `row_score(x, d, threshold)` scores one row with the
/// scorer's kernel and may stop early — returning any value strictly
/// greater than `threshold` — once its running partial sum provably
/// exceeds it.  Partial sums are monotone non-decreasing (non-negative
/// terms), so an abandoned row's true score also exceeds the threshold
/// and is rejected; completed rows return scores bit-identical to
/// Score()'s (the dispatched kernels hold the span kernels' lane
/// discipline, see src/distance/simd/kernels.h), and BoundedTopK breaks
/// ties by database id.
template <typename RowScoreFn>
std::vector<ScoredIndex> TopPScan(const EmbeddedDatabase::View& db, size_t p,
                                  const RowScoreFn& row_score,
                                  FilterScanStats* scan_stats) {
  const size_t n = db.size();
  const size_t d = db.dims();
  BoundedTopK top(std::min(p, n));
  size_t pruned = 0;
  for (size_t i = 0; i < n; ++i) {
    pruned += !OfferRow(&top, db, i, row_score(db.row(i), d, top.threshold()));
  }
  if (scan_stats != nullptr) *scan_stats = FilterScanStats{n, pruned};
  return top.TakeSortedAscending();
}

/// The reduced-precision counterpart: `row_score(i, widened)` scans a
/// shadow row against the threshold already widened by the quantization
/// error envelope, so abandonment stays sound relative to the exact
/// scores (see ScoreTopP's contract in the header).
template <typename RowScoreFn>
std::vector<ScoredIndex> TopPScanReduced(const EmbeddedDatabase::View& db,
                                         size_t p,
                                         const ReducedPrecisionBound& bound,
                                         const RowScoreFn& row_score,
                                         FilterScanStats* scan_stats) {
  const size_t n = db.size();
  BoundedTopK top(std::min(p, n));
  size_t pruned = 0;
  // Widening costs a divide; the threshold only moves when an Offer is
  // accepted (at most p times once the heap is warm), so cache the
  // widened value until it does.  +inf != +inf is false, so the initial
  // unbounded threshold takes the cached path too.
  double cached_threshold = top.threshold();
  float widened =
      FloatAtLeast(WidenedAbandonThreshold(cached_threshold, bound));
  for (size_t i = 0; i < n; ++i) {
    double t = top.threshold();
    if (t != cached_threshold) {
      cached_threshold = t;
      widened = FloatAtLeast(WidenedAbandonThreshold(t, bound));
    }
    pruned +=
        !OfferRow(&top, db, i, static_cast<double>(row_score(i, widened)));
  }
  if (scan_stats != nullptr) *scan_stats = FilterScanStats{n, pruned};
  return top.TakeSortedAscending();
}

/// The unpruned fallback's selection: the p best of a full score vector,
/// by (score, database id).
std::vector<ScoredIndex> TopPOfScores(const std::vector<double>& scores,
                                      const EmbeddedDatabase::View& db,
                                      size_t p, FilterScanStats* scan_stats) {
  BoundedTopK top(std::min(p, scores.size()));
  size_t pruned = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    pruned += !OfferRow(&top, db, i, scores[i]);
  }
  if (scan_stats != nullptr) {
    *scan_stats = FilterScanStats{scores.size(), pruned};
  }
  return top.TakeSortedAscending();
}

/// int8 shadow rows are only d bytes — a few cachelines — and the scan
/// touches just one or two of them before abandoning most rows, too
/// little demand pressure to keep the hardware stream prefetcher ahead
/// of a DRAM-resident matrix.  Fetching a handful of rows ahead
/// explicitly recovers ~35% of scan time at n=1M, d=256 (measured; the
/// float32/float64 paths stream whole kilobytes per row and need no
/// help).
constexpr size_t kI8PrefetchRowsAhead = 8;

inline void PrefetchI8Row(const int8_t* row, size_t d) {
  for (size_t b = 0; b < d; b += 64) {
    __builtin_prefetch(row + b, /*rw=*/0, /*locality=*/0);
  }
}

std::vector<float> ToFloat(const double* v, size_t d) {
  std::vector<float> out(d);
  for (size_t j = 0; j < d; ++j) out[j] = static_cast<float>(v[j]);
  return out;
}

std::vector<int8_t> QuantizeQuery(const double* q, const float* scales,
                                  size_t d) {
  std::vector<int8_t> out(d);
  for (size_t j = 0; j < d; ++j) out[j] = QuantizeToInt8(q[j], scales[j]);
  return out;
}

}  // namespace

std::vector<ScoredIndex> FilterScorer::ScoreTopP(
    const Vector& embedded_query, const EmbeddedDatabase::View& db, size_t p,
    FilterPrecision precision, FilterScanStats* scan_stats) const {
  QSE_CHECK_MSG(precision == FilterPrecision::kExact64,
                "the fallback ScoreTopP only implements kExact64; scorers "
                "with reduced-precision support override it");
  std::vector<double> scores;
  Score(embedded_query, db, &scores);
  return TopPOfScores(scores, db, p, scan_stats);
}

void QuerySensitiveScorer::ScoreWithWeights(const Vector& weights,
                                            const Vector& embedded_query,
                                            const EmbeddedDatabase::View& db,
                                            std::vector<double>* scores) {
  const size_t d = db.dims();
  QSE_CHECK(embedded_query.size() == d);
  scores->resize(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    (*scores)[i] = WeightedL1DistanceSpan(embedded_query.data(), db.row(i),
                                          weights.data(), d);
  }
}

void QuerySensitiveScorer::Score(const Vector& embedded_query,
                                 const EmbeddedDatabase::View& db,
                                 std::vector<double>* scores) const {
  ScoreWithWeights(model_->QueryWeights(embedded_query), embedded_query, db,
                   scores);
}

std::vector<ScoredIndex> QuerySensitiveScorer::ScoreTopP(
    const Vector& embedded_query, const EmbeddedDatabase::View& db, size_t p,
    FilterPrecision precision, FilterScanStats* scan_stats) const {
  Vector weights = model_->QueryWeights(embedded_query);
  const size_t d = db.dims();
  QSE_CHECK(embedded_query.size() == d);
  // A_i(q) sums AdaBoost alphas, which MinimizeZ may in principle drive
  // negative; early abandon (and the reduced-precision envelopes) are
  // only sound for non-negative terms, so verify once per query and
  // fall back to the unpruned exact scan otherwise.
  bool nonnegative = true;
  for (double w : weights) {
    if (w < 0.0) {
      nonnegative = false;
      break;
    }
  }
  if (!nonnegative) {
    // Unpruned fallback, reusing the weights computed above instead of
    // paying a second A_i(q) evaluation inside Score().
    std::vector<double> scores;
    ScoreWithWeights(weights, embedded_query, db, &scores);
    return TopPOfScores(scores, db, p, scan_stats);
  }
  const double* q = embedded_query.data();
  const double* w = weights.data();
  const simd::KernelTable* k = simd::ActiveKernels();
  if (precision == FilterPrecision::kFilter32) {
    QSE_CHECK_MSG(db.has_f32(), "kFilter32 scan on a view without a float32 "
                                "shadow (EnableFilterShadows)");
    std::vector<float> qf = ToFloat(q, d);
    std::vector<float> wf = ToFloat(w, d);
    ReducedPrecisionBound bound = F32BoundWeightedL1(w, q, d);
    return TopPScanReduced(db, p, bound, [&](size_t i, float widened) {
      return k->wl1_f32(qf.data(), db.row_f32(i), wf.data(), d, widened);
    }, scan_stats);
  }
  if (precision == FilterPrecision::kFilter8) {
    QSE_CHECK_MSG(db.has_i8(), "kFilter8 scan on a view without an int8 "
                               "shadow (EnableFilterShadows)");
    const float* s = db.i8_scales();
    std::vector<int8_t> qq = QuantizeQuery(q, s, d);
    // Coefficients fold weight and dequantization scale: the kernel's
    // c_j * |qq_j - rq_j| then approximates w_j * |q_j - r_j|.
    std::vector<float> c(d);
    for (size_t j = 0; j < d; ++j) {
      c[j] = static_cast<float>(w[j] * static_cast<double>(s[j]));
    }
    ReducedPrecisionBound bound = I8BoundWeightedL1(w, q, qq.data(), s, d);
    return TopPScanReduced(db, p, bound, [&](size_t i, float widened) {
      if (i + kI8PrefetchRowsAhead < db.size()) {
        PrefetchI8Row(db.row_i8(i + kI8PrefetchRowsAhead), d);
      }
      return k->wl1_i8(qq.data(), db.row_i8(i), c.data(), d, widened);
    }, scan_stats);
  }
  return TopPScan(db, p, [q, w, k](const double* x, size_t dd, double t) {
    return k->wl1_f64(q, x, w, dd, t);
  }, scan_stats);
}

void L2Scorer::Score(const Vector& embedded_query,
                     const EmbeddedDatabase::View& db,
                     std::vector<double>* scores) const {
  const size_t d = db.dims();
  QSE_CHECK(embedded_query.size() == d);
  scores->resize(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    (*scores)[i] = SquaredL2DistanceSpan(embedded_query.data(), db.row(i), d);
  }
}

std::vector<ScoredIndex> L2Scorer::ScoreTopP(const Vector& embedded_query,
                                             const EmbeddedDatabase::View& db,
                                             size_t p,
                                             FilterPrecision precision,
                                             FilterScanStats* scan_stats)
    const {
  const size_t d = db.dims();
  QSE_CHECK(embedded_query.size() == d);
  const double* q = embedded_query.data();
  const simd::KernelTable* k = simd::ActiveKernels();
  if (precision == FilterPrecision::kFilter32) {
    QSE_CHECK_MSG(db.has_f32(), "kFilter32 scan on a view without a float32 "
                                "shadow (EnableFilterShadows)");
    std::vector<float> qf = ToFloat(q, d);
    ReducedPrecisionBound bound = F32BoundSquaredL2(q, d);
    return TopPScanReduced(db, p, bound, [&](size_t i, float widened) {
      return k->l2_f32(qf.data(), db.row_f32(i), d, widened);
    }, scan_stats);
  }
  if (precision == FilterPrecision::kFilter8) {
    QSE_CHECK_MSG(db.has_i8(), "kFilter8 scan on a view without an int8 "
                               "shadow (EnableFilterShadows)");
    const float* s = db.i8_scales();
    std::vector<int8_t> qq = QuantizeQuery(q, s, d);
    // c_j = s_j^2 turns the kernel's (c_j * fd) * fd into
    // (s_j * (qq_j - rq_j))^2, the quantized squared difference.
    std::vector<float> c(d);
    for (size_t j = 0; j < d; ++j) {
      double sd = static_cast<double>(s[j]);
      c[j] = static_cast<float>(sd * sd);
    }
    ReducedPrecisionBound bound = I8BoundSquaredL2(q, qq.data(), s, d);
    return TopPScanReduced(db, p, bound, [&](size_t i, float widened) {
      if (i + kI8PrefetchRowsAhead < db.size()) {
        PrefetchI8Row(db.row_i8(i + kI8PrefetchRowsAhead), d);
      }
      return k->wl2_i8(qq.data(), db.row_i8(i), c.data(), d, widened);
    }, scan_stats);
  }
  return TopPScan(db, p, [q, k](const double* x, size_t dd, double t) {
    return k->l2_f64(q, x, dd, t);
  }, scan_stats);
}

void L1Scorer::Score(const Vector& embedded_query,
                     const EmbeddedDatabase::View& db,
                     std::vector<double>* scores) const {
  const size_t d = db.dims();
  QSE_CHECK(embedded_query.size() == d);
  scores->resize(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    (*scores)[i] = L1DistanceSpan(embedded_query.data(), db.row(i), d);
  }
}

std::vector<ScoredIndex> L1Scorer::ScoreTopP(const Vector& embedded_query,
                                             const EmbeddedDatabase::View& db,
                                             size_t p,
                                             FilterPrecision precision,
                                             FilterScanStats* scan_stats)
    const {
  const size_t d = db.dims();
  QSE_CHECK(embedded_query.size() == d);
  const double* q = embedded_query.data();
  const simd::KernelTable* k = simd::ActiveKernels();
  if (precision == FilterPrecision::kFilter32) {
    QSE_CHECK_MSG(db.has_f32(), "kFilter32 scan on a view without a float32 "
                                "shadow (EnableFilterShadows)");
    std::vector<float> qf = ToFloat(q, d);
    ReducedPrecisionBound bound = F32BoundWeightedL1(nullptr, q, d);
    return TopPScanReduced(db, p, bound, [&](size_t i, float widened) {
      return k->l1_f32(qf.data(), db.row_f32(i), d, widened);
    }, scan_stats);
  }
  if (precision == FilterPrecision::kFilter8) {
    QSE_CHECK_MSG(db.has_i8(), "kFilter8 scan on a view without an int8 "
                               "shadow (EnableFilterShadows)");
    const float* s = db.i8_scales();
    std::vector<int8_t> qq = QuantizeQuery(q, s, d);
    ReducedPrecisionBound bound =
        I8BoundWeightedL1(nullptr, q, qq.data(), s, d);
    return TopPScanReduced(db, p, bound, [&](size_t i, float widened) {
      if (i + kI8PrefetchRowsAhead < db.size()) {
        PrefetchI8Row(db.row_i8(i + kI8PrefetchRowsAhead), d);
      }
      return k->wl1_i8(qq.data(), db.row_i8(i), s, d, widened);
    }, scan_stats);
  }
  return TopPScan(db, p, [q, k](const double* x, size_t dd, double t) {
    return k->l1_f64(q, x, dd, t);
  }, scan_stats);
}

}  // namespace qse
