#ifndef QSE_RETRIEVAL_FILTER_SCORER_H_
#define QSE_RETRIEVAL_FILTER_SCORER_H_

#include <vector>

#include "src/core/qs_embedding.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/filter_precision.h"
#include "src/util/top_k.h"

namespace qse {

/// Counters from one ScoreTopP scan, for trace spans and engine metrics.
struct FilterScanStats {
  /// Rows the scan streamed over (the view's size).
  size_t rows_visited = 0;
  /// Rows that never entered the running top-p: early-abandoned by the
  /// pruning threshold or completed with a worse score.  The complement
  /// (rows_visited - rows_pruned) is how many times the top-p heap
  /// accepted a row.
  size_t rows_pruned = 0;
};

/// Scores an embedded query against every database row; the filter step's
/// ranking function.  Implementations: the query-sensitive D_out for
/// BoostMap models, plain L2 for FastMap, plain L1 for Lipschitz.
///
/// Scorers consume an EmbeddedDatabase::View — an immutable (rows, count)
/// view of one published database version.  The engines pass their
/// epoch-pinned snapshot's view so scans stay consistent under concurrent
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
  /// ids default to its rows).  Under kExact64 the scores are exactly
  /// Score(...)'s, but computed as one blocked streaming pass over the
  /// flat buffer with early-abandon pruning: a row is dropped as soon as
  /// its partial sum exceeds the running p-th-best threshold.
  /// Valid for kernels with non-negative per-dimension terms (all three
  /// here; the query-sensitive scorer verifies its weights and falls back
  /// to a full scan if any are negative).
  ///
  /// Reduced precisions scan the view's shadow matrix instead (the view
  /// must carry it — the engines verify availability and fail the
  /// request cleanly first): the returned scores are the shadow scores,
  /// and the result equals an unpruned shadow scan's top p because the
  /// abandon threshold is widened by the computable quantization error
  /// envelope (filter_precision.h) — a row whose EXACT score is within
  /// the current threshold is never abandoned, so pruning cannot lose
  /// candidates beyond what quantized RANKING itself loses (which the
  /// benches measure as recall@k).  Refine re-scores candidates from the
  /// float64 rows of the same snapshot either way.
  ///
  /// The base implementation is the unpruned exact fallback (full Score
  /// then selection, kExact64 only); subclasses override with the fused
  /// dispatched kernels.
  ///
  /// A non-null `scan_stats` is filled with the scan's row counters
  /// (overwritten, not accumulated); null skips the bookkeeping.
  virtual std::vector<ScoredIndex> ScoreTopP(
      const Vector& embedded_query, const EmbeddedDatabase::View& db,
      size_t p, FilterPrecision precision = FilterPrecision::kExact64,
      FilterScanStats* scan_stats = nullptr) const;
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
  /// The scan with A_i(q) already evaluated; both public entry points
  /// funnel here so the weights are computed exactly once per query.
  static void ScoreWithWeights(const Vector& weights,
                               const Vector& embedded_query,
                               const EmbeddedDatabase::View& db,
                               std::vector<double>* scores);

  const QuerySensitiveEmbedding* model_;
};

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

/// Unweighted L1 scorer (Lipschitz embeddings).
class L1Scorer : public FilterScorer {
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
