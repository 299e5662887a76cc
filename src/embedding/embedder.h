#ifndef QSE_EMBEDDING_EMBEDDER_H_
#define QSE_EMBEDDING_EMBEDDER_H_

#include <cstddef>
#include <functional>

#include "src/distance/distance.h"

namespace qse {

/// Resolves DX(x, o) from the object being embedded to the database
/// object with id `o`.  This is the only thing a model needs to embed an
/// arbitrary (possibly previously unseen) object — the "embedding step"
/// of filter-and-refine retrieval (Sec. 8).
using DxToDatabaseFn = std::function<double(size_t db_id)>;

/// Common interface of every embedding method in the repo (BoostMap
/// variants, FastMap, Lipschitz): map an object into R^d by evaluating a
/// bounded number of exact distances to database objects.
///
/// All methods in this family share the two properties the paper
/// highlights (Sec. 2): the embedding of a new query costs a small number
/// of DX evaluations, and the formulation is domain-independent.
class Embedder {
 public:
  virtual ~Embedder() = default;

  /// Dimensionality d of the produced vectors.
  virtual size_t dims() const = 0;

  /// Embeds an object given its distances to database objects.  If
  /// `num_exact` is non-null it receives the number of *unique* exact
  /// distances evaluated — the per-query embedding cost in the paper's
  /// cost model.
  virtual Vector Embed(const DxToDatabaseFn& dx,
                       size_t* num_exact = nullptr) const = 0;

  /// Embedding cost without performing an embedding (number of unique
  /// database objects this embedder consults).
  virtual size_t EmbeddingCost() const = 0;
};

}  // namespace qse

#endif  // QSE_EMBEDDING_EMBEDDER_H_
