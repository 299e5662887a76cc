#include "src/retrieval/filter_scorer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "src/distance/lp.h"
#include "src/distance/simd/dispatch.h"
#include "src/distance/weighted_l1.h"
#include "src/util/logging.h"

namespace qse {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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
/// exceeds it.  With non-negative terms partial sums are monotone
/// non-decreasing, so an abandoned row's true score also exceeds the
/// threshold and is rejected (signed terms must never stop early);
/// completed rows return scores bit-identical to Score()'s (the
/// dispatched kernels hold the span kernels' lane discipline, see
/// src/distance/simd/kernels.h), and BoundedTopK breaks ties by
/// database id.
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

/// The prescreened scan's second pass reads a few hundred float64 rows
/// scattered over a DRAM-resident matrix, each a cold miss; its reading
/// order is known before the first read, so rows are fetched this many
/// reads ahead.
constexpr size_t kF64PrefetchRowsAhead = 4;

inline void PrefetchF64Row(const double* row, size_t d) {
  const char* bytes = reinterpret_cast<const char*>(row);
  const size_t len = d * sizeof(double);
  for (size_t b = 0; b < len; b += 64) __builtin_prefetch(bytes + b, 0, 0);
  if (len > 0) __builtin_prefetch(bytes + len - 1, 0, 0);
}

/// An exact scan in two passes over the view's int8 matrix, scored
/// exactly in integers by `k->prescreen_i8` (S_i for row i) under the
/// query's `pre` (QuantizeI8Prescreen, finite margin).
///
/// Pass 1 streams the int8 matrix one kPrescreenBlockRows block per
/// kernel call, keeps the p smallest S (ties by row) and collects every
/// row with S <= S_p + Slack(), S_p the running p-th smallest S.  The p
/// rows with the smallest S all score at most σ * S_p + m exactly, so
/// every row left out scores strictly more than the final p-th best
/// exact score, whatever its id.
///
/// Pass 2 reads float64 rows only for collected rows: the p best-S rows
/// first, so the running threshold t starts near its final value, then
/// the others in row order, each dismissed unread when S > Cut(t) (its
/// exact score then exceeds t).  Every row the plain scan would keep is
/// offered, and the top p by (score, id) of a set does not depend on
/// offer order, so ids and score bits match TopPScan's.
template <typename ExactFn>
std::vector<ScoredIndex> PrescreenedTopPScan(
    const EmbeddedDatabase::View& db, size_t p, const int8_t* qq,
    const I8Prescreen& pre, const simd::KernelTable* k,
    const ExactFn& exact_row, FilterScanStats* scan_stats) {
  const size_t n = db.size();
  const size_t d = db.dims();
  const size_t keep = std::min(p, n);
  if (keep == 0) {
    if (scan_stats != nullptr) *scan_stats = FilterScanStats{n, n, n};
    return {};
  }
  using RowScore = std::pair<int32_t, size_t>;  // (S, row)
  const int64_t slack = pre.Slack();
  auto bound_above = [slack](int32_t s) {
    return slack == INT64_MAX ? INT64_MAX : s + slack;
  };

  // Pass 1: a max-heap of the `keep` smallest (S, row), and every row
  // within the running bound, in row order.
  std::vector<RowScore> best;
  best.reserve(keep);
  std::vector<RowScore> collected;
  std::vector<int32_t> block(std::min(n, kPrescreenBlockRows));
  int64_t bound = INT64_MAX;
  for (size_t first = 0; first < n; first += kPrescreenBlockRows) {
    const size_t rows = std::min(kPrescreenBlockRows, n - first);
    k->prescreen_i8(qq, db.row_i8(first), rows, pre.coeffs.data(), d,
                    block.data());
    for (size_t r = 0; r < rows; ++r) {
      const int32_t s = block[r];
      if (s > bound) continue;
      const RowScore row{s, first + r};
      collected.push_back(row);
      if (best.size() < keep) {
        best.push_back(row);
        std::push_heap(best.begin(), best.end());
      } else if (row < best.front()) {
        std::pop_heap(best.begin(), best.end());
        best.back() = row;
        std::push_heap(best.begin(), best.end());
      }
      if (best.size() == keep) bound = bound_above(best.front().first);
    }
  }

  // Pass 2, in reading order: the `keep` best-S rows (never dismissed:
  // the threshold stays +inf until they fill the heap), then the other
  // collected rows within the final bound.  The order is known up front,
  // so each float64 row is prefetched a few reads ahead.
  const RowScore pth = best.front();
  std::vector<RowScore> order;
  order.reserve(collected.size());
  for (const RowScore& row : collected) {
    if (!(pth < row)) order.push_back(row);
  }
  for (const RowScore& row : collected) {
    if (pth < row && row.first <= bound) order.push_back(row);
  }
  BoundedTopK top(keep);
  size_t read = 0;
  size_t accepted = 0;
  // The cut only moves when an Offer is accepted; cache it.
  double cached_threshold = top.threshold();
  int64_t cut = pre.Cut(cached_threshold);
  for (size_t i = 0; i < order.size(); ++i) {
    if (i + kF64PrefetchRowsAhead < order.size()) {
      PrefetchF64Row(db.row(order[i + kF64PrefetchRowsAhead].second), d);
    }
    const double t = top.threshold();
    if (t != cached_threshold) {
      cached_threshold = t;
      cut = pre.Cut(t);
    }
    if (order[i].first > cut) continue;
    const size_t row = order[i].second;
    ++read;
    accepted += OfferRow(&top, db, row, exact_row(db.row(row), d, t));
  }
  if (scan_stats != nullptr) {
    *scan_stats = FilterScanStats{n, n - accepted, n - read};
  }
  return top.TakeSortedAscending();
}

/// The only scan there is (FilterPrecision).
void CheckExact(FilterPrecision precision) {
  QSE_CHECK_MSG(precision == FilterPrecision::kExact64,
                "filter precision " << FilterPrecisionName(precision)
                                    << " is not a scan; only exact64 is");
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
  CheckExact(precision);
  std::vector<double> scores;
  Score(embedded_query, db, &scores);
  return TopPOfScores(scores, db, p, scan_stats);
}

void QuerySensitiveScorer::Score(const Vector& embedded_query,
                                 const EmbeddedDatabase::View& db,
                                 std::vector<double>* scores) const {
  Vector weights = model_->QueryWeights(embedded_query);
  const size_t d = db.dims();
  QSE_CHECK(embedded_query.size() == d);
  scores->resize(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    (*scores)[i] = WeightedL1DistanceSpan(embedded_query.data(), db.row(i),
                                          weights.data(), d);
  }
}

std::vector<ScoredIndex> QuerySensitiveScorer::ScoreTopP(
    const Vector& embedded_query, const EmbeddedDatabase::View& db, size_t p,
    FilterPrecision precision, FilterScanStats* scan_stats) const {
  CheckExact(precision);
  return WeightedL1TopP(embedded_query, model_->QueryWeights(embedded_query),
                        db, p, db.has_i8(), simd::ActiveKernels(), scan_stats);
}

std::vector<ScoredIndex> WeightedL1TopP(const Vector& embedded_query,
                                        const Vector& weights,
                                        const EmbeddedDatabase::View& db,
                                        size_t p, bool prescreen,
                                        const simd::KernelTable* k,
                                        FilterScanStats* scan_stats) {
  const size_t d = db.dims();
  QSE_CHECK(embedded_query.size() == d && weights.size() == d);
  const double* q = embedded_query.data();
  const double* w = weights.data();
  // A_i(q) sums AdaBoost alphas, and the trained models here give most
  // queries a few negative ones.  Partial sums are then not monotone,
  // so no kernel may abandon a row early: every row is scored in full
  // (abandon = +inf), the threshold comparison alone selects.
  const bool nonnegative =
      std::none_of(weights.begin(), weights.end(),
                   [](double v) { return v < 0.0; });
  auto exact_row = [q, w, k, nonnegative](const double* x, size_t dd,
                                          double t) {
    return k->wl1_f64(q, x, w, dd, nonnegative ? t : kInf);
  };
  if (prescreen) {
    QSE_CHECK_MSG(db.has_i8(), "prescreened scan on a view without an int8 "
                               "matrix (RebuildPrescreenMatrix)");
    const float* s = db.i8_scales();
    std::vector<int8_t> qq = QuantizeQuery(q, s, d);
    I8Prescreen pre = QuantizeI8Prescreen(w, q, qq.data(), s, d);
    if (pre.margin < kInf) {
      return PrescreenedTopPScan(db, p, qq.data(), pre, k, exact_row,
                                 scan_stats);
    }
  }
  return TopPScan(db, p, exact_row, scan_stats);
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
  CheckExact(precision);
  QSE_CHECK(embedded_query.size() == db.dims());
  const double* q = embedded_query.data();
  const simd::KernelTable* k = simd::ActiveKernels();
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
  CheckExact(precision);
  // Unit weights: 1.0 * |q_j - x_j| is exact, so wl1_f64 returns l1_f64's
  // bits and the L1 scan is the weighted-L1 scan, prescreen included.
  return WeightedL1TopP(embedded_query, Vector(db.dims(), 1.0), db, p,
                        db.has_i8(), simd::ActiveKernels(), scan_stats);
}

}  // namespace qse
