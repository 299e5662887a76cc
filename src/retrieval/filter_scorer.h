#ifndef QSE_RETRIEVAL_FILTER_SCORER_H_
#define QSE_RETRIEVAL_FILTER_SCORER_H_

#include <vector>

#include "src/core/qs_embedding.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/filter_precision.h"
#include "src/util/top_k.h"

namespace qse {
namespace simd {
struct KernelTable;
}  // namespace simd

/// Counters from one ScoreTopP scan, for trace spans and engine metrics.
struct FilterScanStats {
  /// Rows the scan streamed over (the view's size).
  size_t rows_visited = 0;
  /// rows_visited minus the number of times the top-p heap accepted a
  /// row: rows early-abandoned by the pruning threshold, dismissed by
  /// the int8 prescreen or completed with a worse score.  A prescreened
  /// scan offers rows in another order than the plain scan, so its
  /// count differs from the plain scan's (never below rows_prescreened,
  /// and at least min(p, rows) rows are accepted either way).
  size_t rows_pruned = 0;
  /// Rows of a prescreened scan whose float64 row was never read:
  /// dismissed on their exact int8 score alone.  Counted in rows_pruned
  /// too.
  size_t rows_prescreened = 0;
};

/// Rows per prescreen kernel call in the prescreened scan's first pass:
/// 16 blocks of the int8 layout (d = 55: 14 KB of int8 rows per call).
/// Each call compares against the bound as it stood when the call began.
inline constexpr size_t kPrescreenBlockRows = 256;

/// Scores an embedded query against every database row; the filter step's
/// ranking function.  Implementations: the query-sensitive D_out for
/// BoostMap models and plain L2 for FastMap.
///
/// Scorers consume an EmbeddedDatabase::View — an immutable (rows, count)
/// view of one published database version.  The engines pass their
/// snapshot's view so scans stay consistent under concurrent
/// mutation; quiescent callers (tests, evaluation drivers, benches) can
/// pass an EmbeddedDatabase directly via its implicit View conversion.
class FilterScorer {
 public:
  virtual ~FilterScorer() = default;

  /// Fills scores->at(i) with the filter distance of row i; lower = more
  /// similar.  `scores` is resized by the callee.  Used where the full
  /// ranking is needed (the evaluation protocol's required-p statistics).
  virtual void Score(const Vector& embedded_query,
                     const EmbeddedDatabase::View& db,
                     std::vector<double>* scores) const = 0;

  /// The p best rows as (database id, score), ascending by (score, id):
  /// ids come from the view's id column, so ties break the same way
  /// whichever shard or row holds a candidate (a quiescent database's
  /// ids default to its rows).  The scores are exactly Score(...)'s, but
  /// computed as one blocked streaming pass over the flat buffer with
  /// early-abandon pruning: a row is dropped as soon as its partial sum
  /// exceeds the running p-th-best threshold.  Abandon needs
  /// non-negative per-dimension terms.  The L2 terms always are; the
  /// query-sensitive scorer checks A_i(q) once per query and, when any
  /// weight is negative, scores every row in full instead (the same
  /// streaming pass with abandon off).
  ///
  /// The query-sensitive scorer's weighted-L1 scan of a view that
  /// carries the int8 matrix — every local database does, at any size —
  /// runs in two passes, the VA-file's near-optimal search (Weber,
  /// Schek & Blott, VLDB 1998).
  /// Pass 1 scores every row's int8 row exactly in integers
  /// (KernelTable::prescreen_i8 under QuantizeI8Prescreen's
  /// coefficients, filter_precision.h), one block of rows per kernel
  /// call, and keeps only rows whose int8 score lies within the margin
  /// of the p-th smallest one.  Pass 2 reads float64 rows for those
  /// alone: the p best int8 rows first, then the rest, each skipped
  /// unread when its int8 score minus the margin exceeds the running
  /// threshold.  Both passes hide DRAM latency with software prefetch:
  /// the pass-1 kernel prefetches the int8 stream a fixed number of
  /// blocks ahead (simd::kI8PrefetchBlocks) across its calls, and a
  /// pass-2 cursor prefetches the float64 row and id of the next few
  /// rows the current cut keeps, so most rows the cut dismisses are
  /// never fetched.  Prefetching decides nothing.  Every skipped row's exact
  /// score provably exceeds the
  /// final p-th best, for either sign of the weights, so candidates,
  /// scores and ids stay bit-identical to the plain scan's.  The stats
  /// count rows whose float64 row was never read as rows_prescreened;
  /// rows_pruned stays rows_visited minus heap accepts, a different
  /// number than the plain scan's because the offer order differs.
  /// Non-finite query values, weights or stored values, or all-zero
  /// weights, make the margin +inf and the scan plain.  The L2 scorer
  /// (FastMap, a baseline) always scans the float64 rows.
  ///
  /// `precision` must be kExact64, the only scan there is (see
  /// FilterPrecision); anything else aborts.  The engines reject other
  /// values as InvalidArgument before they scan.
  ///
  /// A non-null `scan_stats` is filled with the scan's row counters
  /// (overwritten, not accumulated); null skips the bookkeeping.
  virtual std::vector<ScoredIndex> ScoreTopP(
      const Vector& embedded_query, const EmbeddedDatabase::View& db,
      size_t p, FilterPrecision precision = FilterPrecision::kExact64,
      FilterScanStats* scan_stats = nullptr) const = 0;
};

/// Weighted-L1 scorer with query-sensitive weights A_i(q) from a model
/// (Eq. 11).  Also serves query-insensitive models (constant weights).
class QuerySensitiveScorer : public FilterScorer {
 public:
  explicit QuerySensitiveScorer(const QuerySensitiveEmbedding* model)
      : model_(model) {}
  void Score(const Vector& embedded_query, const EmbeddedDatabase::View& db,
             std::vector<double>* scores) const override;
  std::vector<ScoredIndex> ScoreTopP(
      const Vector& embedded_query, const EmbeddedDatabase::View& db,
      size_t p, FilterPrecision precision = FilterPrecision::kExact64,
      FilterScanStats* scan_stats = nullptr) const override;

 private:
  const QuerySensitiveEmbedding* model_;
};

/// The weighted-L1 ScoreTopP with the weights already evaluated
/// (`weights`, any signs) and the kernel tier explicit.  `prescreen`
/// asks for the two-pass scan on the view's int8 matrix, which the view
/// must carry; the scorers pass db.has_i8(), and the tests and benches
/// pass false for the plain reference scan.  The result does not depend
/// on it.
std::vector<ScoredIndex> WeightedL1TopP(const Vector& embedded_query,
                                        const Vector& weights,
                                        const EmbeddedDatabase::View& db,
                                        size_t p, bool prescreen,
                                        const simd::KernelTable* kernels,
                                        FilterScanStats* scan_stats);

/// Unweighted L2 scorer (FastMap's native metric); scores are squared
/// Euclidean distances (monotone in L2, sqrt-free).
class L2Scorer : public FilterScorer {
 public:
  void Score(const Vector& embedded_query, const EmbeddedDatabase::View& db,
             std::vector<double>* scores) const override;
  std::vector<ScoredIndex> ScoreTopP(
      const Vector& embedded_query, const EmbeddedDatabase::View& db,
      size_t p, FilterPrecision precision = FilterPrecision::kExact64,
      FilterScanStats* scan_stats = nullptr) const override;
};

}  // namespace qse

#endif  // QSE_RETRIEVAL_FILTER_SCORER_H_
