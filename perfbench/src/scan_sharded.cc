// scan_sharded: cheap L1 DX over clustered 16-D points, 200k rows whose
// embedding (~88 MB) is larger than cache, split over S = 4 shard
// engines behind one ShardedRetrievalEngine with serial scatter.  One
// client, closed loop, small p: the filter scan, per-shard early abandon
// and the merge dominate and refine is near zero.  Serial scatter is
// deliberate: a 4-thread scatter's tail swings with the host's load.
#include <memory>
#include <numeric>

#include "perfbench/src/common.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/filter_refine.h"
#include "src/serving/sharded_retrieval_engine.h"

namespace perfbench {
namespace {

constexpr size_t kShards = 4;

class ScanSharded : public Workload {
 public:
  explicit ScanSharded(const Config& config) : config_(config) {
    if (config.tiny) {
      n_ = 4000;
      num_queries_ = 16;
      spec_ = {60, 800, 12, 16, 16, 5};
      reads_ = 24;
    } else {
      reads_ = static_cast<size_t>(config.seconds * kReadsPerSecond + 0.5);
    }
  }

  void Setup() override {
    VectorData data =
        MakeVectorData(n_, spec_.sample, num_queries_, config_.seed);
    objects_ = std::move(data.objects);
    queries_ = std::move(data.queries);
    query_dx_ = std::make_unique<VectorDx>(&queries_, &objects_);
    object_dx_ = std::make_unique<VectorDx>(&objects_, &objects_);
    SourceOracle oracle(object_dx_.get(), objects_.size());

    db_ids_.resize(n_);
    std::iota(db_ids_.begin(), db_ids_.end(), 0);
    model_ = TrainSeQs(
        oracle, std::vector<size_t>(db_ids_.begin(), db_ids_.begin() + spec_.sample),
        spec_, kModelSeed);
    adapter_ = std::make_unique<qse::QseEmbedderAdapter>(&model_);
    scorer_ = std::make_unique<qse::QuerySensitiveScorer>(&model_);
    embedder_ = std::make_unique<TimedEmbedder>(adapter_.get());
    timed_scorer_ = std::make_unique<TimedScorer>(scorer_.get());

    std::vector<std::vector<size_t>> shard_ids(kShards);
    for (size_t id : db_ids_) {
      shard_ids[qse::HashShardOf(id, kShards)].push_back(id);
    }
    std::vector<std::shared_ptr<qse::RetrievalBackend>> shards;
    for (size_t s = 0; s < kShards; ++s) {
      dbs_.push_back(std::make_unique<qse::EmbeddedDatabase>(
          qse::EmbedDatabase(*adapter_, oracle, shard_ids[s], 1)));
      engines_.push_back(std::make_unique<qse::RetrievalEngine>(
          embedder_.get(), timed_scorer_.get(), dbs_.back().get(),
          shard_ids[s]));
      shards.push_back(std::make_shared<TimedBackend>(
          engines_.back().get(), kShardScan, kEngineWrite));
    }
    qse::ShardedEngineOptions sharded_options;
    sharded_options.scatter_threads = 1;
    sharded_ = std::make_unique<qse::ShardedRetrievalEngine>(
        embedder_.get(), std::move(shards), sharded_options);
    top_ = std::make_unique<TimedBackend>(sharded_.get(), kMerge, kWriteRoot);
    options_.want_stats = true;

    RequestRecord record;
    for (size_t q = 0; q < std::min<size_t>(num_queries_, 8); ++q) {
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
  // Closed-loop reads per second of --seconds on a 4-vCPU x86 VM.
  static constexpr double kReadsPerSecond = 42;

  Config config_;
  size_t n_ = 200000;
  size_t num_queries_ = 256;
  TrainSpec spec_{200, 6000, 55, 90, 24, 5};
  qse::RetrievalOptions options_{5, 100};
  size_t reads_ = 0;
  size_t runs_ = 0;

  std::vector<qse::Vector> objects_;
  std::vector<qse::Vector> queries_;
  std::unique_ptr<VectorDx> query_dx_;
  std::unique_ptr<VectorDx> object_dx_;
  std::vector<size_t> db_ids_;
  qse::QuerySensitiveEmbedding model_;
  std::unique_ptr<qse::QseEmbedderAdapter> adapter_;
  std::unique_ptr<qse::QuerySensitiveScorer> scorer_;
  std::unique_ptr<TimedEmbedder> embedder_;
  std::unique_ptr<TimedScorer> timed_scorer_;
  std::vector<std::unique_ptr<qse::EmbeddedDatabase>> dbs_;
  std::vector<std::unique_ptr<qse::RetrievalEngine>> engines_;
  std::unique_ptr<qse::ShardedRetrievalEngine> sharded_;
  std::unique_ptr<TimedBackend> top_;
};

}  // namespace

std::unique_ptr<Workload> MakeScanSharded(const Config& config) {
  return std::make_unique<ScanSharded>(config);
}

}  // namespace perfbench
