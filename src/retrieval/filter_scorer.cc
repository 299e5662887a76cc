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
/// scattered over a DRAM-resident matrix, each a cold miss, and most of
/// the rows it collects are dismissed unread.  A cursor running ahead of
/// the reads prefetches the rows the current cut keeps, this many ahead.
constexpr size_t kF64PrefetchRowsAhead = 8;

/// Prefetches row i of the view: its float64 values and its id.
inline void PrefetchRow(const EmbeddedDatabase::View& db, size_t i) {
  const char* bytes = reinterpret_cast<const char*>(db.row(i));
  const size_t len = db.dims() * sizeof(double);
  for (size_t b = 0; b < len; b += 64) __builtin_prefetch(bytes + b, 0, 0);
  if (len > 0) __builtin_prefetch(bytes + len - 1, 0, 0);
  __builtin_prefetch(db.ids() + i, 0, 0);
}

/// An exact scan in two passes over the view's int8 matrix, scored
/// exactly in integers by `k->prescreen_i8` (S_i for row i) under the
/// query's `pre` (QuantizeI8Prescreen, finite margin).
///
/// Pass 1 streams the int8 matrix kPrescreenBlockRows rows per kernel
/// call, each call prefetching ahead into the rest of the matrix
/// (simd::kI8PrefetchBlocks), and collects, in row order, every row with
/// S <= τ, τ = U + Slack() for U an upper bound on the p-th smallest S
/// collected so far (no bound until the first one).  Each call compares
/// against τ as it stood when the call began; a stale τ only grows the
/// set.  Once the set holds twice what the last tightening left (at
/// least 2p), one radix histogram of its S gives U
/// (KthSmallestUpperBound, within a 128th of the set's S range of the
/// p-th smallest), τ tightens and the set drops the rows above it.
/// After the last block an exact radix select (SelectKthSmallest) gives
/// S_p, and τ = S_p + Slack() drops the rest.  Neither selection
/// branches on a score, so fresh scores cost no per-row mispredictions.
/// The final S_p and τ are exact: they are
/// those of the whole matrix, because a row ever dropped scored above a
/// τ no lower than the final one, so the collected set is every row with
/// S <= the final τ, in row order, however τ got there.  The p rows with
/// the smallest S all score at most σ * S_p + m exactly, so every row
/// left out scores strictly more than the final p-th best exact score,
/// whatever its id.
///
/// Pass 2 reads float64 rows only for collected rows: the p best by
/// (S, row) first, so the running threshold t starts near its final
/// value, then the others in row order, each dismissed unread when
/// S > Cut(t) (its exact score then exceeds t).  Every row the plain
/// scan would keep is offered, and the top p by (score, id) of a set
/// does not depend on offer order, so ids and score bits match
/// TopPScan's.  A cursor ahead of the reads prefetches the float64 row
/// and id of the next kF64PrefetchRowsAhead entries the cut of the time
/// keeps; it only prefetches, so every dismissal is decided as without
/// it.
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
  QSE_CHECK_MSG(n <= UINT32_MAX, "prescreened scan of " << n << " rows");
  const int64_t slack = pre.Slack();

  // Pass 1: the collected rows and their S, in row order, `count` of
  // them; each call may append up to kPrescreenBlockRows.
  std::vector<uint32_t> rows;
  std::vector<int32_t> scores;
  size_t count = 0;
  int32_t tau = INT32_MAX;
  // Sets τ to s_p plus the slack and drops the rows above it.
  auto tighten = [&](int32_t s_p) {
    tau = static_cast<int32_t>(std::min<int64_t>(
        INT32_MAX, slack == INT64_MAX ? INT64_MAX : s_p + slack));
    size_t kept = 0;
    for (size_t i = 0; i < count; ++i) {
      rows[kept] = rows[i];
      scores[kept] = scores[i];
      kept += scores[i] <= tau;
    }
    count = kept;
  };
  size_t select_at = 2 * keep;
  for (size_t first = 0; first < n; first += kPrescreenBlockRows) {
    const size_t block = std::min(kPrescreenBlockRows, n - first);
    if (rows.size() < count + block) {
      rows.resize(count + block);
      scores.resize(count + block);
    }
    const size_t got = k->prescreen_i8(
        qq, db.data_i8() + EmbeddedDatabase::I8Offset(first, 0, d), block,
        n - first, pre.coeffs.data(), d, tau, rows.data() + count,
        scores.data() + count);
    for (size_t i = count; i < count + got; ++i) {
      rows[i] += static_cast<uint32_t>(first);
    }
    count += got;
    if (count >= select_at) {
      tighten(KthSmallestUpperBound(scores.data(), count, keep));
      select_at = std::max(2 * keep, 2 * count);
    }
  }
  // Every row of the final p best has S <= every τ, so count >= keep.
  const int32_t s_p = SelectKthSmallest(scores.data(), count, keep);
  tighten(s_p);

  // Pass 2, in reading order: the `keep` best by (S, row) — the rows
  // below S_p and the first rows at S_p, in row order — never dismissed
  // (the threshold stays +inf until they fill the heap), then the other
  // collected rows.
  using RowScore = std::pair<int32_t, size_t>;  // (S, row)
  std::vector<RowScore> order(count);
  const size_t ties =
      keep - static_cast<size_t>(std::count_if(
                 scores.begin(), scores.begin() + count,
                 [s_p](int32_t s) { return s < s_p; }));
  // One pass placing each row in its half, without branching on S.
  size_t tied = 0;          // rows at S_p seen so far
  size_t next_best = 0;     // order[0, keep): the `keep` best
  size_t next_rest = keep;  // order[keep, count): the others
  for (size_t i = 0; i < count; ++i) {
    const int32_t s = scores[i];
    tied += s == s_p;
    const bool in_best = (s < s_p) | ((s == s_p) & (tied <= ties));
    order[in_best ? next_best : next_rest] = {s, rows[i]};
    next_best += in_best;
    next_rest += !in_best;
  }
  BoundedTopK top(keep);
  size_t read = 0;
  size_t accepted = 0;
  // The cut only moves when an Offer is accepted; cache it.
  double cached_threshold = top.threshold();
  int64_t cut = pre.Cut(cached_threshold);
  // The prefetch cursor: order[ahead] is the next entry it examines, and
  // `in_flight` entries of order[i, ahead) carry kFetched on their row,
  // the ones it prefetched (rows fit in 32 bits, checked above).
  constexpr size_t kFetched = size_t{1} << 63;
  size_t ahead = 0;
  size_t in_flight = 0;
  for (size_t i = 0; i < count; ++i) {
    for (; in_flight < kF64PrefetchRowsAhead && ahead < count; ++ahead) {
      if (order[ahead].first > cut) continue;
      PrefetchRow(db, order[ahead].second);
      order[ahead].second |= kFetched;
      ++in_flight;
    }
    in_flight -= (order[i].second & kFetched) != 0;
    const double t = top.threshold();
    if (t != cached_threshold) {
      cached_threshold = t;
      cut = pre.Cut(t);
    }
    if (order[i].first > cut) continue;
    const size_t row = order[i].second & ~kFetched;
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

std::vector<int8_t> QuantizeQuery(const double* q, const float* scales,
                                  size_t d) {
  std::vector<int8_t> out(d);
  for (size_t j = 0; j < d; ++j) out[j] = QuantizeToInt8(q[j], scales[j]);
  return out;
}

}  // namespace

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

}  // namespace qse
