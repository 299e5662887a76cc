#ifndef QSE_CORE_QS_EMBEDDING_H_
#define QSE_CORE_QS_EMBEDDING_H_

#include <string>
#include <vector>

#include "src/core/adaboost.h"
#include "src/core/training_context.h"
#include "src/distance/distance.h"
#include "src/embedding/embedder.h"
#include "src/util/statusor.h"

namespace qse {

/// The trained output of the paper's algorithm (Sec. 5.4): a
/// d-dimensional embedding F_out = (F_1, ..., F_d) together with the
/// query-sensitive weighted-L1 distance D_out of Eq. 11,
///
///   D_out(F(q), F(x)) = Σ_i A_i(q) |F_i(q) - F_i(x)|,
///
/// where A_i(q) (Eq. 10) sums the AdaBoost weights α_j of every weak
/// classifier using coordinate i whose splitter accepts q.  By
/// Proposition 1 the induced triple classifier equals the boosted
/// ensemble H; the test suite checks that identity numerically.
///
/// Models built with query_sensitive = false (original BoostMap) are the
/// degenerate case where every term's interval is all of R, making A_i(q)
/// constant: D_out reduces to a global weighted L1.
class QuerySensitiveEmbedding {
 public:
  /// One coordinate F_i of F_out with the weighted intervals attached to
  /// it.  Candidate objects are resolved to database ids so the model is
  /// self-contained.
  struct Coordinate {
    Embedding1DSpec::Type type = Embedding1DSpec::Type::kReference;
    uint32_t db_id1 = 0;
    uint32_t db_id2 = 0;        // Pivot only.
    double pivot_distance = 0;  // DX(x1, x2), pivot only.

    struct Term {
      double lo = 0, hi = 0, alpha = 0;
    };
    std::vector<Term> terms;

    /// F_i(x) given distances to the coordinate's defining objects.
    double Value(double d1, double d2) const;

    /// A_i(q) given this coordinate's value for q.
    double Weight(double fq) const;
  };

  QuerySensitiveEmbedding() = default;

  /// Assembles the model from AdaBoost output: collapses the J weak
  /// classifiers to the set of unique 1D embeddings (Sec. 5.4) and
  /// resolves candidate indices to database ids via `ctx`.
  static QuerySensitiveEmbedding FromTraining(
      const TrainingContext& ctx, const std::vector<WeakClassifier>& rounds,
      bool query_sensitive);

  /// Number of coordinates d of F_out.
  size_t dims() const { return coords_.size(); }

  /// Number of weak-classifier rounds the model was built from.
  size_t num_rounds() const { return rounds_.size(); }

  bool query_sensitive() const { return query_sensitive_; }

  const std::vector<Coordinate>& coordinates() const { return coords_; }

  /// Embeds an object.  Calls `dx` once per *unique* database object among
  /// the coordinates' reference/pivot objects (Sec. 7: "computing F_out(x)
  /// requires computing at most 2d distances DX"), in the order the
  /// coordinates first name them.  Duplicate ids are removed once per
  /// model, when its coordinates are built, not per call.  If `num_exact`
  /// is non-null it receives that count.
  Vector Embed(const DxToDatabaseFn& dx, size_t* num_exact = nullptr) const;

  /// Exact-distance cost of Embed (the number of unique database objects
  /// referenced, counted once per model); this is the per-query embedding
  /// cost of the paper's cost model.
  size_t EmbeddingCost() const { return ids_.size(); }

  /// A_i(q) for an embedded query (Eq. 10).
  Vector QueryWeights(const Vector& embedded_query) const;

  /// H(q, a, b) = D_out(F(q), F(b)) - D_out(F(q), F(a)), where
  /// D_out(F(q), F(x)) = sum_i A_i(q) |F_i(q) - F_i(x)| (Eq. 11); positive
  /// when the model predicts q closer to a (triple type 1).
  double TripleMargin(const Vector& fq, const Vector& fa,
                      const Vector& fb) const;

  /// The model truncated to its first `j` boosting rounds — the paper's
  /// mechanism for sweeping embedding dimensionality (Sec. 9 evaluates
  /// "embeddings of various dimensions" from one training run's prefixes).
  QuerySensitiveEmbedding Prefix(size_t j) const;

  /// Binary model persistence.
  Status Save(const std::string& path) const;
  static StatusOr<QuerySensitiveEmbedding> Load(const std::string& path);

 private:
  /// One weak classifier with candidate ids resolved; kept in round order
  /// so Prefix() can rebuild any truncation.
  struct StoredRound {
    Embedding1DSpec::Type type = Embedding1DSpec::Type::kReference;
    uint32_t db_id1 = 0;
    uint32_t db_id2 = 0;
    double pivot_distance = 0;
    double lo = 0, hi = 0, alpha = 0;
  };

  /// Rebuilds coords_ and ids_ from rounds_.
  void RebuildCoordinates();

  std::vector<StoredRound> rounds_;
  std::vector<Coordinate> coords_;
  /// Each coordinate's db_id1, then its db_id2 if a pivot, in order.
  DistinctIds ids_;
  bool query_sensitive_ = true;
};

}  // namespace qse

#endif  // QSE_CORE_QS_EMBEDDING_H_
