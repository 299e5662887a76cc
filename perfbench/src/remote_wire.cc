// remote_wire: two RetrievalServer shards on loopback inside the
// process, a ShardedRetrievalEngine composed over RemoteRetrievalBackend
// stubs, one client in a closed loop.  Rows are small and DX is cheap,
// so the wire and the merge are a visible share of each read; without
// this workload the net layer would go unmeasured.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "perfbench/src/common.h"
#include "src/net/remote_backend.h"
#include "src/net/retrieval_server.h"
#include "src/net/wire_codec.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/filter_refine.h"
#include "src/serving/sharded_retrieval_engine.h"

namespace perfbench {
namespace {

constexpr size_t kShards = 2;

class RemoteWire : public Workload {
 public:
  explicit RemoteWire(const Config& config) : config_(config) {
    if (config.tiny) {
      n_ = 2000;
      num_queries_ = 16;
      spec_ = {60, 800, 12, 16, 16, 5};
      reads_ = 60;
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
      server_side_.push_back(std::make_unique<TimedBackend>(
          engines_.back().get(), kRemoteServer, kEngineWrite));
      servers_.push_back(std::make_unique<qse::net::RetrievalServer>(
          server_side_.back().get(), qse::net::RetrievalServerOptions{}));
      qse::Status started = servers_.back()->Start(0);
      if (!started.ok()) {
        std::fprintf(stderr, "shard server start failed: %s\n",
                     started.ToString().c_str());
        std::exit(2);
      }
      remotes_.push_back(std::make_unique<qse::net::RemoteRetrievalBackend>(
          embedder_.get(), "127.0.0.1", servers_.back()->port()));
      shards.push_back(std::make_shared<TimedBackend>(
          remotes_.back().get(), kShardScan, kEngineWrite));
    }
    qse::ShardedEngineOptions sharded_options;
    sharded_options.scatter_threads = 1;
    sharded_ = std::make_unique<qse::ShardedRetrievalEngine>(
        embedder_.get(), std::move(shards), sharded_options);
    top_ = std::make_unique<TimedBackend>(sharded_.get(), kMerge, kWriteRoot);
    options_.want_stats = true;

    RequestRecord record;
    for (size_t q = 0; q < std::min<size_t>(num_queries_, 64); ++q) {
      record = RequestRecord{};
      (void)top_->Retrieve(
          {CountingDx{query_dx_.get(), q, &record}, options_, nullptr});
    }
  }

  RunResult Run(bool traced) override {
    qse::Rng rng(config_.seed * 7919 + (runs_++));
    RunResult r = RunClosedLoop(ReadSchedule(reads_, num_queries_, &rng),
                                top_.get(), options_, query_dx_.get(), traced);
    double reads = static_cast<double>(r.reads);
    r.layer_values["net.wire_ms"] =
        1e-6 *
        static_cast<double>(r.layers.incl_ns[kShardScan] -
                            std::min(r.layers.incl_ns[kShardScan],
                                     r.layers.incl_ns[kRemoteServer])) /
        reads;
    if (traced) r.layer_values["net.wire_bytes_per_query"] = WireBytes();
    return r;
  }

  double Verify(const RunResult& first,
                std::vector<std::string>* errors) override {
    auto truth = GroundTruth(*query_dx_, num_queries_, db_ids_, options_.k);
    double recall =
        CheckAnswers(first.answers, *query_dx_, truth, options_.k, errors);

    // Parity: an in-process sharded engine over the same partition must
    // answer every read bit for bit (ids and scores).
    SourceOracle oracle(object_dx_.get(), objects_.size());
    qse::EmbeddedDatabase full = qse::EmbedDatabase(*adapter_, oracle, db_ids_);
    qse::ShardedEngineOptions ref_options;
    ref_options.num_shards = kShards;
    ref_options.scatter_threads = 1;
    qse::ShardedRetrievalEngine reference(adapter_.get(), scorer_.get(), full,
                                          db_ids_, ref_options);
    std::unordered_map<size_t, std::vector<qse::ScoredIndex>> want;
    for (const ReadAnswer& a : first.answers) {
      auto it = want.find(a.query);
      if (it == want.end()) {
        RequestRecord record;
        auto response = reference.Retrieve(
            {CountingDx{query_dx_.get(), a.query, &record}, options_, nullptr});
        if (!response.ok()) {
          errors->push_back("reference engine failed");
          return recall;
        }
        it = want.emplace(a.query, response->neighbors).first;
      }
      bool same = a.ok && a.ids.size() == it->second.size();
      for (size_t i = 0; same && i < a.ids.size(); ++i) {
        same = a.ids[i] == it->second[i].index &&
               a.scores[i] == it->second[i].score;
      }
      if (!same) {
        errors->push_back(Format(
            "remote_wire query %zu differs from the in-process engine",
            a.query));
        break;
      }
    }
    return recall;
  }

 private:
  // Closed-loop reads per second of --seconds on a 4-vCPU x86 VM.
  static constexpr double kReadsPerSecond = 1000;

  /// Encoded kScan request plus response bytes per read, summed over the
  /// shards: what the wire carries.  /proc/self/io's wchar does not
  /// count socket send(), so the codec measures it, off the timed path,
  /// over a fixed sample of queries.
  double WireBytes() const {
    size_t sample = std::min<size_t>(num_queries_, 32);
    double bytes = 0;
    for (size_t q = 0; q < sample; ++q) {
      RequestRecord record;
      qse::Vector embedded =
          adapter_->Embed(CountingDx{query_dx_.get(), q, &record});
      for (size_t s = 0; s < kShards; ++s) {
        qse::net::WireRequest request;
        request.op = qse::net::WireOp::kScan;
        request.options = options_;
        request.query = embedded;
        auto scan = engines_[s]->ScanCandidates(embedded, options_);
        if (!scan.ok()) continue;
        qse::net::WireResponse response;
        response.neighbors = scan->candidates;
        response.rows = scan->rows;
        response.rows_pruned = scan->rows_pruned;
        bytes += static_cast<double>(qse::net::EncodeRequest(request).size() +
                                     qse::net::EncodeResponse(response).size());
      }
    }
    return bytes / static_cast<double>(sample);
  }

  Config config_;
  size_t n_ = 20000;
  size_t num_queries_ = 256;
  TrainSpec spec_{200, 5000, 16, 28, 24, 5};
  qse::RetrievalOptions options_{10, 100};
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
  // Destroyed in reverse: client stubs close before the servers stop.
  std::vector<std::unique_ptr<qse::EmbeddedDatabase>> dbs_;
  std::vector<std::unique_ptr<qse::RetrievalEngine>> engines_;
  std::vector<std::unique_ptr<TimedBackend>> server_side_;
  std::vector<std::unique_ptr<qse::net::RetrievalServer>> servers_;
  std::vector<std::unique_ptr<qse::net::RemoteRetrievalBackend>> remotes_;
  std::unique_ptr<qse::ShardedRetrievalEngine> sharded_;
  std::unique_ptr<TimedBackend> top_;
};

}  // namespace

std::unique_ptr<Workload> MakeRemoteWire(const Config& config) {
  return std::make_unique<RemoteWire>(config);
}

}  // namespace perfbench
