#ifndef QSE_EMBEDDING_FASTMAP_H_
#define QSE_EMBEDDING_FASTMAP_H_

#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/embedding/embedder.h"
#include "src/util/random.h"
#include "src/util/statusor.h"

namespace qse {

/// Options for building a FastMap embedding [12].
struct FastMapOptions {
  /// Output dimensionality (number of pivot pairs / recursion depth).
  size_t dims = 32;
  /// Iterations of the "choose-distant-objects" heuristic per level.
  size_t pivot_iterations = 5;
  /// Seed for the initial random object of the pivot heuristic.
  uint64_t seed = 3;
};

/// A trained FastMap model: a sequence of pivot pairs, one per output
/// dimension.  Level l projects objects onto the "line" through its two
/// pivots (Eq. 2 of the paper) in the *residual* space where the first
/// l-1 projections have been subtracted:
///
///   D_l(x,y)^2 = max(0, D_{l-1}(x,y)^2 - (x_{l-1} - y_{l-1})^2).
///
/// The max(0, .) clamp is required because the paper's distance measures
/// are non-metric, so residual squared distances can go negative — the
/// standard FastMap behaviour in that regime.
///
/// Distances between FastMap vectors are Euclidean (L2), as in [12].
class FastMapModel : public Embedder {
 public:
  struct Level {
    uint32_t pivot_a = 0;     // Database id.
    uint32_t pivot_b = 0;     // Database id.
    double dist_ab = 0.0;     // Residual distance between pivots at l.
    Vector coords_a;          // Pivot a's coordinates for levels < l.
    Vector coords_b;
  };

  FastMapModel() = default;
  explicit FastMapModel(std::vector<Level> levels);

  size_t dims() const override { return levels_.size(); }
  /// Calls `dx` once per distinct pivot, in the order the levels first
  /// name them (a, then b, per level).  Duplicate pivots are removed once
  /// per model, in the constructor, not per call.
  Vector Embed(const DxToDatabaseFn& dx,
               size_t* num_exact = nullptr) const override;
  /// Number of distinct pivots, counted once per model.
  size_t EmbeddingCost() const override { return ids_.size(); }

  /// The model truncated to its first `d` levels (FastMap's coordinates
  /// are naturally nested, so prefixes are exactly lower-dimensional
  /// FastMap embeddings).
  FastMapModel Prefix(size_t d) const;

  /// Binary model persistence (pivot ids, residual distances and pivot
  /// coordinate prefixes; applying a loaded model only needs the oracle).
  Status Save(const std::string& path) const;
  static StatusOr<FastMapModel> Load(const std::string& path);

  const std::vector<Level>& levels() const { return levels_; }

 private:
  std::vector<Level> levels_;
  /// The levels' pivot ids: a, then b, per level in order.
  DistinctIds ids_;
};

/// Builds a FastMap model on a database sample.  `sample_ids` are the
/// objects the pivot-selection heuristic may scan (the paper runs FastMap
/// "on a subset of the database, containing 5,000 objects").
FastMapModel BuildFastMap(const DistanceOracle& oracle,
                          const std::vector<size_t>& sample_ids,
                          const FastMapOptions& options);

}  // namespace qse

#endif  // QSE_EMBEDDING_FASTMAP_H_
