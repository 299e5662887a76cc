#ifndef QSE_CORE_TRAINING_CONTEXT_H_
#define QSE_CORE_TRAINING_CONTEXT_H_

#include <vector>

#include "src/data/dataset.h"
#include "src/util/matrix.h"

namespace qse {

/// Precomputed distances that drive BoostMap training (Sec. 5.2): the
/// algorithm receives "a set C ⊂ X of candidate objects", "a matrix of
/// distances between any two objects in C, and a matrix of distances from
/// each c ∈ C to each qi, ai and bi appearing in one of the training
/// triples" — plus, to label triples and run the selective sampler of
/// Sec. 6, all pairwise distances within the training set Xtr.
///
/// Candidates and training objects are referenced by *local* indices in
/// [0, |C|) and [0, |Xtr|); the corresponding database ids are kept so the
/// final model can be applied to unseen queries.
class TrainingContext {
 public:
  /// Evaluates all required distance matrices through `oracle`.  This is
  /// the "one-time preprocessing cost" of Sec. 7 — quadratic in |C| and
  /// |Xtr|.  CandCand and TrainTrain hold DX(x_i, x_j) for i < j,
  /// mirrored; CandTrain holds DX(c, o) in that order.  When
  /// `candidate_ids == train_ids` the matrices share their values, and
  /// Build makes n(n - 1) DX calls for n = |C| instead of 2n(n - 1).
  static TrainingContext Build(const DistanceOracle& oracle,
                               std::vector<size_t> candidate_ids,
                               std::vector<size_t> train_ids);

  size_t num_candidates() const { return candidate_ids_.size(); }
  size_t num_train_objects() const { return train_ids_.size(); }

  /// DX between candidates c1 and c2 (local indices).
  double CandCand(size_t c1, size_t c2) const { return cand_cand_(c1, c2); }

  /// DX between candidate c and training object o (local indices).
  double CandTrain(size_t c, size_t o) const { return cand_train_(c, o); }

  /// DX between training objects o1 and o2 (local indices).
  double TrainTrain(size_t o1, size_t o2) const {
    return train_train_(o1, o2);
  }

  const Matrix& train_train_matrix() const { return train_train_; }

  const std::vector<size_t>& candidate_ids() const { return candidate_ids_; }
  const std::vector<size_t>& train_ids() const { return train_ids_; }

  /// Database id of candidate c (local index).
  size_t candidate_db_id(size_t c) const { return candidate_ids_[c]; }

 private:
  std::vector<size_t> candidate_ids_;  // Database ids of C.
  std::vector<size_t> train_ids_;      // Database ids of Xtr.
  Matrix cand_cand_;                   // |C| x |C|.
  Matrix cand_train_;                  // |C| x |Xtr|.
  Matrix train_train_;                 // |Xtr| x |Xtr|.
};

}  // namespace qse

#endif  // QSE_CORE_TRAINING_CONTEXT_H_
