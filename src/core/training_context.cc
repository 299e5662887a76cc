#include "src/core/training_context.h"

#include "src/util/logging.h"
#include "src/util/parallel.h"

namespace qse {

TrainingContext TrainingContext::Build(const DistanceOracle& oracle,
                                       std::vector<size_t> candidate_ids,
                                       std::vector<size_t> train_ids) {
  QSE_CHECK(!candidate_ids.empty());
  QSE_CHECK(!train_ids.empty());
  TrainingContext ctx;
  ctx.candidate_ids_ = std::move(candidate_ids);
  ctx.train_ids_ = std::move(train_ids);

  const size_t nc = ctx.candidate_ids_.size();
  const size_t nt = ctx.train_ids_.size();
  ctx.cand_cand_ = Matrix(nc, nc);
  ctx.cand_train_ = Matrix(nc, nt);

  // Candidate-candidate distances (needed by pivot embeddings, Eq. 2).
  // DX may be mildly asymmetric; we evaluate the (i, j) order and mirror,
  // which matches how the distance would be used at query time.
  ParallelFor(0, nc, [&](size_t i) {
    for (size_t j = i; j < nc; ++j) {
      double d = i == j ? 0.0
                        : oracle.Distance(ctx.candidate_ids_[i],
                                          ctx.candidate_ids_[j]);
      ctx.cand_cand_(i, j) = d;
      ctx.cand_cand_(j, i) = d;
    }
  });

  // When C and Xtr are one sample (the paper's setting), every value
  // below is an ordered DX call the candidate matrix already made: all of
  // train_train, and cand_train's upper triangle DX(c_i, c_j), i < j.
  // Only cand_train's strict lower triangle, DX(c_i, c_j) with i > j,
  // calls DX again, so an asymmetric DX still gets its own order.
  const bool shared = ctx.candidate_ids_ == ctx.train_ids_;

  // Candidate-to-training-object distances.  When a candidate and a
  // training object are the same database object the distance is 0 by
  // definition.
  ParallelFor(0, nc, [&](size_t i) {
    for (size_t j = 0; j < nt; ++j) {
      size_t ci = ctx.candidate_ids_[i];
      size_t tj = ctx.train_ids_[j];
      if (ci == tj) {
        ctx.cand_train_(i, j) = 0.0;
      } else if (shared && j > i) {
        ctx.cand_train_(i, j) = ctx.cand_cand_(i, j);
      } else {
        ctx.cand_train_(i, j) = oracle.Distance(ci, tj);
      }
    }
  });

  // Training-object pairwise distances (triple labels + Sec. 6 sampler).
  if (shared) {
    ctx.train_train_ = ctx.cand_cand_;
    return ctx;
  }
  ctx.train_train_ = Matrix(nt, nt);
  ParallelFor(0, nt, [&](size_t i) {
    for (size_t j = i; j < nt; ++j) {
      double d = i == j
                     ? 0.0
                     : oracle.Distance(ctx.train_ids_[i], ctx.train_ids_[j]);
      ctx.train_train_(i, j) = d;
      ctx.train_train_(j, i) = d;
    }
  });
  return ctx;
}

}  // namespace qse
