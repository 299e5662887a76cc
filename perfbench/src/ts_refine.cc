// ts_refine: fixed-length time series under constrained DTW (paper
// Sec. 9), a Se-QS model and one monolithic RetrievalEngine, one client
// in a closed loop.  Refine DX dominates and the filter scan is a few
// percent, so refine changes move this workload and scan or shard
// changes should not.  Fixed length keeps LB_Keogh and early-abandoned
// cDTW applicable.
#include <memory>
#include <numeric>

#include "perfbench/src/common.h"
#include "src/data/timeseries_generator.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/filter_refine.h"

namespace perfbench {
namespace {

class TsRefine : public Workload {
 public:
  explicit TsRefine(const Config& config) : config_(config) {
    if (config.tiny) {
      n_ = 150;
      num_queries_ = 12;
      spec_ = {60, 800, 8, 12, 16, 5};
      options_ = qse::RetrievalOptions(5, 40);
      reads_ = 30;
    } else {
      reads_ = static_cast<size_t>(config.seconds * kReadsPerSecond + 0.5);
    }
  }

  void Setup() override {
    qse::TimeSeriesGeneratorParams params;
    params.fixed_length = true;
    qse::TimeSeriesGenerator gen(params, config_.seed);
    objects_ = gen.Generate(n_);
    queries_ = gen.Generate(num_queries_);
    query_dx_ = std::make_unique<SeriesDx>(&queries_, &objects_);
    object_dx_ = std::make_unique<SeriesDx>(&objects_, &objects_);
    SourceOracle oracle(object_dx_.get(), objects_.size());

    db_ids_.resize(n_);
    std::iota(db_ids_.begin(), db_ids_.end(), 0);
    qse::Rng rng(config_.seed);
    model_ = TrainSeQs(oracle, rng.SampleWithoutReplacement(n_, spec_.sample),
                       spec_, config_.seed);
    adapter_ = std::make_unique<qse::QseEmbedderAdapter>(&model_);
    db_ = std::make_unique<qse::EmbeddedDatabase>(
        qse::EmbedDatabase(*adapter_, oracle, db_ids_, 1));
    scorer_ = std::make_unique<qse::QuerySensitiveScorer>(&model_);
    embedder_ = std::make_unique<TimedEmbedder>(adapter_.get());
    timed_scorer_ = std::make_unique<TimedScorer>(scorer_.get());
    engine_ = std::make_unique<qse::RetrievalEngine>(
        embedder_.get(), timed_scorer_.get(), db_.get(), db_ids_);
    top_ = std::make_unique<TimedBackend>(engine_.get(), kEngine, kEngineWrite);

    RequestRecord record;
    for (size_t q = 0; q < std::min<size_t>(num_queries_, 16); ++q) {
      record = RequestRecord{};
      (void)top_->Retrieve(
          {CountingDx{query_dx_.get(), q, &record}, options_, nullptr});
    }
  }

  RunResult Run(bool traced) override {
    qse::Rng rng(config_.seed * 7919 + (runs_++));
    return RunClosedLoop(ReadSchedule(reads_, num_queries_, &rng), top_.get(),
                         options_, query_dx_.get(), traced);
  }

  double Verify(const RunResult& first,
                std::vector<std::string>* errors) override {
    auto truth = GroundTruth(*query_dx_, num_queries_, db_ids_, options_.k);
    return CheckAnswers(first.answers, *query_dx_, truth, options_.k, errors);
  }

 private:
  // Closed-loop reads per second of --seconds on a 4-vCPU x86 VM; fixed,
  // so a run does the same work whatever the host's speed.
  static constexpr double kReadsPerSecond = 220;

  Config config_;
  size_t n_ = 1000;
  size_t num_queries_ = 256;
  TrainSpec spec_{150, 4000, 24, 40, 24, 9};
  qse::RetrievalOptions options_{10, 200};
  size_t reads_ = 0;
  size_t runs_ = 0;

  std::vector<qse::Series> objects_;
  std::vector<qse::Series> queries_;
  std::unique_ptr<SeriesDx> query_dx_;
  std::unique_ptr<SeriesDx> object_dx_;
  std::vector<size_t> db_ids_;
  qse::QuerySensitiveEmbedding model_;
  std::unique_ptr<qse::QseEmbedderAdapter> adapter_;
  std::unique_ptr<qse::EmbeddedDatabase> db_;
  std::unique_ptr<qse::QuerySensitiveScorer> scorer_;
  std::unique_ptr<TimedEmbedder> embedder_;
  std::unique_ptr<TimedScorer> timed_scorer_;
  std::unique_ptr<qse::RetrievalEngine> engine_;
  std::unique_ptr<TimedBackend> top_;
};

}  // namespace

std::unique_ptr<Workload> MakeTsRefine(const Config& config) {
  return std::make_unique<TsRefine>(config);
}

}  // namespace perfbench
