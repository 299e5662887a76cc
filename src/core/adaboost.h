#ifndef QSE_CORE_ADABOOST_H_
#define QSE_CORE_ADABOOST_H_

#include <vector>

#include "src/core/triple.h"
#include "src/core/weak_classifier.h"
#include "src/util/random.h"

namespace qse {

/// Options for the adapted AdaBoost training loop (Sec. 5.2 / Fig. 2).
struct AdaBoostOptions {
  /// Number of boosting rounds J.  Each round adds one weak classifier;
  /// the output embedding has at most `rounds` distinct coordinates.
  size_t rounds = 100;

  /// Number of candidate 1D embeddings sampled per round.  Together with
  /// the interval grid below this plays the role of the paper's parameter
  /// m ("the number of weak classifiers to evaluate at each training
  /// round"): m ≈ embeddings_per_round * interval_grid^2 / 2.
  size_t embeddings_per_round = 64;

  /// Number of quantile cut points of the query-projection distribution
  /// used to enumerate candidate intervals V; all O(grid^2) contiguous
  /// quantile ranges are scored.  Ignored in query-insensitive mode.
  size_t interval_grid = 16;

  /// Fraction of sampled 1D embeddings of pivot type F^{x1,x2}; the rest
  /// are reference type F^r.
  double pivot_fraction = 0.5;

  /// How candidate intervals V are scored during the weak-learner search.
  ///
  /// kCorrelation (default) picks the interval maximizing the total
  /// weighted margin correlation |sum_{i in V} w_i y_i ghat_i| — the
  /// Schapire-Singer Z <= sqrt(1 - r^2) criterion applied to the cropped
  /// classifier.  Because triples outside V contribute nothing to r, a
  /// cropped interval only wins when the discarded region is genuinely
  /// anti-correlated, so splitters *modulate* coordinates per query
  /// instead of sparsifying them (queries keep most coordinates active,
  /// which the ranking quality of D_out depends on).
  ///
  /// kZBound picks the interval minimizing the exact two-part bound
  /// W_out + sqrt(W_in^2 - r^2).  It is tighter for triple
  /// *classification* but systematically prefers narrow, near-perfect
  /// intervals; with small training sets those overfit and starve D_out
  /// of active coordinates (see EXPERIMENTS.md ablation).
  enum class IntervalSelection { kCorrelation, kZBound };
  IntervalSelection interval_selection = IntervalSelection::kCorrelation;

  /// Fraction of each round's candidate 1D embeddings drawn from the
  /// embeddings already chosen in earlier rounds (the rest are fresh
  /// random samples).  Re-picking an embedding with a different interval
  /// V gives that coordinate several weighted interval terms, which is
  /// how Eq. 10's A_i(q) becomes a graded (rather than on/off) function
  /// of the query — the paper explicitly allows "a particular 1D
  /// embedding F [to] be equal to multiple F'_j".  Only applies in
  /// query-sensitive mode.
  double reuse_fraction = 0.33;

  /// true  -> learn query-sensitive classifiers Q̃_{F,V} (this paper);
  /// false -> learn plain F̃ classifiers (original BoostMap); every
  ///          classifier has V = R.
  bool query_sensitive = true;

  /// Minimum fraction of total triple weight a splitter must accept; very
  /// narrow intervals overfit single triples.
  double min_split_mass = 0.02;

  /// Stop early when the best attainable Z of a round exceeds this (no
  /// classifier helps any more; Z >= 1 means no progress, Sec. 5.3).
  double z_stop_threshold = 0.99999;

  /// RNG seed for the weak-learner sampling.
  uint64_t seed = 7;

  /// Log per-round progress.
  bool verbose = false;
};

/// Per-round training telemetry.
struct RoundInfo {
  size_t round = 0;
  WeakClassifier chosen;
  double z = 1.0;               // Z_j of the chosen (h_j, α_j) (Eq. 8).
  double weighted_error = 0.0;  // Weighted misclassification of h_j alone.
  double training_error = 0.0;  // Ensemble H error on the training triples.
};

/// Result of training: the chosen weak classifiers in round order plus
/// telemetry.  Feed into QuerySensitiveEmbedding::FromTraining.
struct AdaBoostResult {
  std::vector<WeakClassifier> rounds;
  std::vector<RoundInfo> history;
  /// Final ensemble error on the training triples.
  double final_training_error = 1.0;
};

/// Runs the adapted AdaBoost of Sec. 5 on precomputed training data.
///
/// The weak learner of each round:
///  1. samples `embeddings_per_round` random 1D embeddings from the
///     candidate set (reference and pivot types, Sec. 5.3),
///  2. for each, scores every interval V of a quantile grid over the
///     query projections F(q_i) using the Schapire-Singer bound
///     Z <= W_out + sqrt(W_in^2 - r^2) computed in O(1) from prefix sums.
///     The prefix sums run over the triples in a canonical order: by
///     F(q_i), then query object q_i, then triple index.  The triples are
///     grouped by query object once per training, so a candidate sorts
///     only the distinct query objects (O(nt log nt + t), not O(t log t)).
///     Cut positions and the interval bounds depend only on where the
///     runs of equal F(q_i) lie, not on the order inside a run.  For a
///     reference embedding F^r they depend on r alone, so that order, its
///     cuts and their bounds are built once per candidate object and
///     reused by every round; a candidate then sums its weights at the
///     cuts in one O(t) walk,
///  3. picks the overall best (F, V), then minimizes the exact
///     Z_j(Q̃, α) = Σ_i w_i exp(-α y_i Q̃(q_i,a_i,b_i))  (Eq. 8)
///     over α by bisection on dZ/dα (MinimizeZ),
///  4. re-weights triples per Eq. 6.
AdaBoostResult TrainAdaBoost(const TrainingContext& ctx,
                             const std::vector<Triple>& triples,
                             const AdaBoostOptions& options);

/// Exact minimization of Z(α) = Σ w_i exp(-α s_i) + const for the margins
/// s_i = y_i * Q̃_i restricted to accepted triples.  Exposed for tests.
/// Returns the minimizing α (possibly negative) and sets *z_min to the
/// attained total Z (including the rejected-triple mass `passive_mass`).
///
/// α is the result of a 64-step bisection on the rounded dZ/dβ over
/// β = α max|s_i| in [-35, 35], as if every step ran an exact pass.  A
/// step whose sign a rounding-error bound already proves takes it without
/// the pass: a few Newton passes localise the root, and a pass far enough
/// from zero certifies the sign of every step on its side.  On
/// perfbench's trainings ~26 of ~58 passes remain.  Weights that are
/// negative or not finite, or margins that are not finite, run every
/// pass.  The result is bit for bit that of the plain bisection
/// (MinimizeZTest.MatchesPlainBisectionBitForBit).
double MinimizeZ(const std::vector<double>& weights,
                 const std::vector<double>& margins, double passive_mass,
                 double* z_min);

}  // namespace qse

#endif  // QSE_CORE_ADABOOST_H_
