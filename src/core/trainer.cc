#include "src/core/trainer.h"

#include <cmath>
#include <string>

#include "src/core/triple_sampler.h"
#include "src/util/logging.h"

namespace qse {

namespace {

/// InvalidArgument naming the first NaN distance of `ctx` (candidate
/// pairs, then candidate-to-training, then training pairs, row by row),
/// by database ids.  A NaN projection has no place in the order a weak
/// learner sorts by.  +inf passes: variable-length cDTW can return it.
Status CheckNoNaN(const TrainingContext& ctx) {
  auto nan_at = [](size_t a, size_t b) {
    return Status::InvalidArgument(
        "DX(" + std::to_string(a) + ", " + std::to_string(b) +
        ") is NaN; training needs every distance to be a number or +inf");
  };
  const std::vector<size_t>& cand = ctx.candidate_ids();
  const std::vector<size_t>& train = ctx.train_ids();
  for (size_t i = 0; i < cand.size(); ++i) {
    for (size_t j = 0; j < cand.size(); ++j) {
      if (std::isnan(ctx.CandCand(i, j))) return nan_at(cand[i], cand[j]);
    }
  }
  for (size_t i = 0; i < cand.size(); ++i) {
    for (size_t j = 0; j < train.size(); ++j) {
      if (std::isnan(ctx.CandTrain(i, j))) return nan_at(cand[i], train[j]);
    }
  }
  for (size_t i = 0; i < train.size(); ++i) {
    for (size_t j = 0; j < train.size(); ++j) {
      if (std::isnan(ctx.TrainTrain(i, j))) return nan_at(train[i], train[j]);
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<BoostMapArtifacts> TrainBoostMap(
    const DistanceOracle& oracle, const std::vector<size_t>& candidate_ids,
    const std::vector<size_t>& train_ids, const BoostMapConfig& config) {
  if (candidate_ids.empty()) {
    return Status::InvalidArgument("candidate set C must not be empty");
  }
  if (train_ids.size() < 4) {
    return Status::InvalidArgument(
        "training set Xtr needs at least 4 objects");
  }
  for (size_t id : candidate_ids) {
    if (id >= oracle.size()) {
      return Status::OutOfRange("candidate id exceeds oracle universe");
    }
  }
  for (size_t id : train_ids) {
    if (id >= oracle.size()) {
      return Status::OutOfRange("train id exceeds oracle universe");
    }
  }
  if (config.num_triples < 2) {
    return Status::InvalidArgument("need at least 2 training triples");
  }
  if (config.sampling == TripleSampling::kSelective) {
    if (config.k1 < 1 || config.k1 + 1 > train_ids.size() - 1) {
      return Status::InvalidArgument(
          "selective sampling requires 1 <= k1 <= |Xtr| - 2");
    }
  }
  if (config.boost.rounds == 0) {
    return Status::InvalidArgument("boosting needs at least 1 round");
  }

  CountingOracle counting(&oracle);
  TrainingContext ctx =
      TrainingContext::Build(counting, candidate_ids, train_ids);
  Status finite = CheckNoNaN(ctx);
  if (!finite.ok()) return finite;

  Rng rng(config.sampling_seed);
  std::vector<Triple> triples =
      config.sampling == TripleSampling::kRandom
          ? SampleRandomTriples(ctx.train_train_matrix(), config.num_triples,
                                &rng)
          : SampleSelectiveTriples(ctx.train_train_matrix(),
                                   config.num_triples, config.k1, &rng);

  AdaBoostResult boosted = TrainAdaBoost(ctx, triples, config.boost);
  if (boosted.rounds.empty()) {
    return Status::Internal(
        "boosting selected no classifiers; the distance measure may be "
        "degenerate (all-equal distances?)");
  }

  BoostMapArtifacts artifacts;
  artifacts.model = QuerySensitiveEmbedding::FromTraining(
      ctx, boosted.rounds, config.boost.query_sensitive);
  artifacts.history = std::move(boosted.history);
  artifacts.final_training_error = boosted.final_training_error;
  artifacts.preprocessing_distances = static_cast<size_t>(counting.count());
  return artifacts;
}

}  // namespace qse
