#ifndef QSE_EMBEDDING_EMBEDDER_H_
#define QSE_EMBEDDING_EMBEDDER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/distance/distance.h"

namespace qse {

/// Resolves DX(x, o) from the object being embedded to the database
/// object with id `o`.  This is the only thing a model needs to embed an
/// arbitrary (possibly previously unseen) object — the "embedding step"
/// of filter-and-refine retrieval (Sec. 8).
using DxToDatabaseFn = std::function<double(size_t db_id)>;

/// The distinct database ids a model's coordinates name, in first-use
/// order, and the slot in that list of every use.  A model records its
/// uses once, when it builds its coordinates; Embed then calls DX once per
/// distinct id and reads each use's distance from its slot, so the
/// embedding cost (Sec. 7: "at most 2d distances DX") is size().
class DistinctIds {
 public:
  /// Records the next use of `db_id`; its first use appends it to the ids.
  void Use(uint32_t db_id) {
    size_t slot = 0;
    while (slot < ids_.size() && ids_[slot] != db_id) ++slot;
    if (slot == ids_.size()) ids_.push_back(db_id);
    slots_.push_back(static_cast<uint32_t>(slot));
  }

  size_t size() const { return ids_.size(); }
  /// The slot of every recorded use, in the order of the Use() calls.
  const std::vector<uint32_t>& slots() const { return slots_; }

  /// DX to every distinct id, in first-use order: one call each.
  Vector Distances(const DxToDatabaseFn& dx) const {
    Vector d(ids_.size());
    for (size_t i = 0; i < ids_.size(); ++i) d[i] = dx(ids_[i]);
    return d;
  }

 private:
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> slots_;
};

/// Common interface of every embedding method in the repo (BoostMap
/// variants, FastMap): map an object into R^d by evaluating a bounded
/// number of exact distances to database objects.
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
