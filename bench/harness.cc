#include "bench/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "src/data/digit_generator.h"
#include "src/data/timeseries_generator.h"
#include "src/distance/dtw.h"
#include "src/matching/shape_context_distance.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace qse {
namespace bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unknown argument: %s (use --key=value)\n",
                   arg.c_str());
      std::exit(2);
    }
    size_t eq = arg.find('=');
    std::string key = arg.substr(2, eq == std::string::npos ? arg.npos
                                                            : eq - 2);
    std::string value = eq == std::string::npos ? "1" : arg.substr(eq + 1);
    kv_.emplace_back(key, value);
  }
}

size_t Flags::GetSize(const std::string& key, size_t def) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return static_cast<size_t>(std::strtoull(v.c_str(),
                                                           nullptr, 10));
  }
  return def;
}

double Flags::GetDouble(const std::string& key, double def) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return std::strtod(v.c_str(), nullptr);
  }
  return def;
}

std::string Flags::GetString(const std::string& key, std::string def) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return v;
  }
  return def;
}

bool Flags::GetBool(const std::string& key, bool def) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return v == "1" || v == "true";
  }
  return def;
}

void Workload::SaveCache() const {
  if (cache_path.empty()) return;
  Status s = oracle->Save(cache_path);
  if (!s.ok()) {
    QSE_LOG("warning: failed to save distance cache: " << s.ToString());
  } else {
    QSE_LOG("saved distance cache (" << oracle->cached_pairs() << " pairs) to "
                                     << cache_path);
  }
}

namespace {

std::string CacheDir() {
  std::filesystem::create_directories("bench_cache");
  return "bench_cache";
}

void AttachCache(Workload* w, const std::string& fingerprint) {
  w->oracle = std::make_unique<CachingOracle>(w->raw_oracle.get(),
                                              fingerprint);
  w->cache_path = CacheDir() + "/" + fingerprint + ".bin";
  Status s = w->oracle->Load(w->cache_path);
  if (s.ok()) {
    QSE_LOG("loaded distance cache with " << w->oracle->cached_pairs()
                                          << " pairs from " << w->cache_path);
  }
}

}  // namespace

Workload MakeDigitsWorkload(const WorkloadScale& scale) {
  Workload w;
  size_t total = scale.db_size + scale.num_queries;
  DigitGeneratorParams gen_params;
  DigitGenerator gen(gen_params, scale.seed);
  std::vector<PointSet> shapes;
  shapes.reserve(total);
  for (const LabeledPointSet& s : gen.Generate(total)) {
    shapes.push_back(s.shape);
  }
  ShapeContextDistanceParams sc_params;
  w.raw_oracle = std::make_unique<ObjectOracle<PointSet>>(
      std::move(shapes), [sc_params](const PointSet& a, const PointSet& b) {
        return ShapeContextDistance(a, b, sc_params);
      });
  for (size_t i = 0; i < scale.db_size; ++i) w.db_ids.push_back(i);
  for (size_t i = 0; i < scale.num_queries; ++i) {
    w.query_ids.push_back(scale.db_size + i);
  }
  std::ostringstream fp;
  fp << "digits-sc-n" << scale.db_size << "-q" << scale.num_queries << "-s"
     << scale.seed;
  w.name = fp.str();
  AttachCache(&w, w.name);
  return w;
}

Workload MakeTimeSeriesWorkload(const WorkloadScale& scale,
                                bool fixed_length) {
  Workload w;
  size_t total = scale.db_size + scale.num_queries;
  TimeSeriesGeneratorParams params;
  params.fixed_length = fixed_length;
  TimeSeriesGenerator gen(params, scale.seed);
  std::vector<Series> series = gen.Generate(total);
  w.raw_oracle = std::make_unique<ObjectOracle<Series>>(
      std::move(series), [](const Series& a, const Series& b) {
        return ConstrainedDtw(a, b, 0.1);
      });
  for (size_t i = 0; i < scale.db_size; ++i) w.db_ids.push_back(i);
  for (size_t i = 0; i < scale.num_queries; ++i) {
    w.query_ids.push_back(scale.db_size + i);
  }
  std::ostringstream fp;
  fp << "timeseries-cdtw-n" << scale.db_size << "-q" << scale.num_queries
     << "-s" << scale.seed << (fixed_length ? "-fixed" : "");
  w.name = fp.str();
  AttachCache(&w, w.name);
  return w;
}

std::vector<Series> MakeFixedLengthSeries(const WorkloadScale& scale,
                                          size_t count, uint64_t salt) {
  TimeSeriesGeneratorParams params;
  params.fixed_length = true;
  TimeSeriesGenerator gen(params, scale.seed + salt);
  return gen.Generate(count);
}

std::vector<size_t> DoublingLadder(size_t max) {
  std::vector<size_t> ladder;
  for (size_t v = 1; v < max; v *= 2) ladder.push_back(v);
  ladder.push_back(max);
  return ladder;
}

GroundTruth ComputeWorkloadGroundTruth(const Workload& workload,
                                       size_t kmax) {
  Timer timer;
  GroundTruth gt = ComputeGroundTruth(*workload.oracle, workload.db_ids,
                                      workload.query_ids, kmax);
  QSE_LOG(workload.name << ": ground truth (" << workload.query_ids.size()
                        << " queries x " << workload.db_ids.size()
                        << " db) in " << timer.Seconds() << "s");
  return gt;
}

namespace {

/// Samples candidate/training ids deterministically from the database.
std::vector<size_t> SampleDbIds(const Workload& workload, size_t count,
                                uint64_t seed) {
  Rng rng(seed);
  count = std::min(count, workload.db_ids.size());
  std::vector<size_t> picks =
      rng.SampleWithoutReplacement(workload.db_ids.size(), count);
  std::vector<size_t> ids;
  ids.reserve(count);
  for (size_t p : picks) ids.push_back(workload.db_ids[p]);
  return ids;
}

MethodLadder EvaluateQseLadder(const Workload& workload,
                               const GroundTruth& gt, const std::string& name,
                               const QuerySensitiveEmbedding& model) {
  MethodLadder result;
  result.name = name;
  for (size_t j : DoublingLadder(model.num_rounds())) {
    QuerySensitiveEmbedding prefix = model.Prefix(j);
    QseEmbedderAdapter adapter(&prefix);
    QuerySensitiveScorer scorer(&prefix);
    EmbeddedDatabase db =
        EmbedDatabase(adapter, *workload.oracle, workload.db_ids);
    result.ladder.push_back(
        EvaluateLadderPoint(adapter, scorer, db, *workload.oracle,
                            workload.db_ids, workload.query_ids, gt, j));
  }
  return result;
}

}  // namespace

MethodLadder RunBoostMapVariant(const Workload& workload,
                                const GroundTruth& gt,
                                const std::string& name,
                                TripleSampling sampling, bool query_sensitive,
                                const TrainingScale& scale) {
  Timer timer;
  BoostMapConfig config;
  config.sampling = sampling;
  config.num_triples = scale.num_triples;
  config.k1 = scale.k1;
  config.sampling_seed = scale.seed + 13;
  config.boost.rounds = scale.rounds;
  config.boost.embeddings_per_round = scale.embeddings_per_round;
  config.boost.query_sensitive = query_sensitive;
  config.boost.seed = scale.seed + 29;

  std::vector<size_t> cand =
      SampleDbIds(workload, scale.num_cand, scale.seed + 1);
  std::vector<size_t> train =
      scale.num_cand == scale.num_train
          ? cand  // Paper: C and Xtr have equal size; share the sample.
          : SampleDbIds(workload, scale.num_train, scale.seed + 2);

  auto artifacts = TrainBoostMap(*workload.oracle, cand, train, config);
  QSE_CHECK_MSG(artifacts.ok(), artifacts.status().ToString());
  QSE_LOG(workload.name << ": trained " << name << " ("
                        << artifacts->model.num_rounds() << " rounds, "
                        << artifacts->model.dims() << " dims, train_err "
                        << artifacts->final_training_error << ") in "
                        << timer.Seconds() << "s");
  timer.Restart();
  MethodLadder ladder = EvaluateQseLadder(workload, gt, name,
                                          artifacts->model);
  ladder.preprocessing_distances = artifacts->preprocessing_distances;
  QSE_LOG(workload.name << ": evaluated " << name << " ladder in "
                        << timer.Seconds() << "s");
  return ladder;
}

MethodLadder RunFastMap(const Workload& workload, const GroundTruth& gt,
                        size_t dims, const TrainingScale& scale) {
  Timer timer;
  FastMapOptions options;
  options.dims = dims;
  options.seed = scale.seed + 3;
  // The paper constructs FastMap "on a subset of the database" sized like
  // the BoostMap candidate sample budget (scaled).
  std::vector<size_t> sample = SampleDbIds(
      workload, std::max<size_t>(scale.num_cand, 2 * dims), scale.seed + 4);
  FastMapModel model = BuildFastMap(*workload.oracle, sample, options);
  QSE_LOG(workload.name << ": built FastMap with " << model.dims()
                        << " dims in " << timer.Seconds() << "s");
  timer.Restart();
  MethodLadder result;
  result.name = "FastMap";
  L2Scorer scorer;
  for (size_t d : DoublingLadder(model.dims())) {
    FastMapModel prefix = model.Prefix(d);
    EmbeddedDatabase db =
        EmbedDatabase(prefix, *workload.oracle, workload.db_ids);
    result.ladder.push_back(
        EvaluateLadderPoint(prefix, scorer, db, *workload.oracle,
                            workload.db_ids, workload.query_ids, gt, d));
  }
  QSE_LOG(workload.name << ": evaluated FastMap ladder in "
                        << timer.Seconds() << "s");
  return result;
}

std::string ResultsPath(const std::string& stem) {
  std::filesystem::create_directories("bench_results");
  return "bench_results/" + stem + ".csv";
}

void WriteSeriesCsv(const std::string& stem,
                    const std::vector<MethodLadder>& methods, size_t kmax,
                    double accuracy, size_t db_size) {
  std::vector<std::string> header = {"k"};
  for (const MethodLadder& m : methods) header.push_back(m.name);
  Table table(header);
  for (size_t k = 1; k <= kmax; ++k) {
    std::vector<std::string> row = {Table::Fmt(k)};
    for (const MethodLadder& m : methods) {
      row.push_back(Table::Fmt(OptimalCost(m.ladder, k, accuracy, db_size)));
    }
    table.AddRow(std::move(row));
  }
  Status s = table.WriteCsv(ResultsPath(stem));
  if (!s.ok()) QSE_LOG("warning: " << s.ToString());
}

std::vector<MethodLadder> RunAccuracyFigure(
    const Workload& workload, const TrainingScale& scale,
    const std::string& stem, const std::vector<double>& accuracies,
    const std::vector<size_t>& print_ks, size_t kmax, bool include_ra_qs) {
  GroundTruth gt = ComputeWorkloadGroundTruth(workload, kmax);
  workload.SaveCache();  // Persist the expensive ground-truth distances.

  std::vector<MethodLadder> methods;
  methods.push_back(RunFastMap(workload, gt, scale.rounds, scale));
  methods.push_back(RunBoostMapVariant(workload, gt, "Ra-QI",
                                       TripleSampling::kRandom, false,
                                       scale));
  if (include_ra_qs) {
    methods.push_back(RunBoostMapVariant(workload, gt, "Ra-QS",
                                         TripleSampling::kRandom, true,
                                         scale));
  }
  methods.push_back(RunBoostMapVariant(workload, gt, "Se-QI",
                                       TripleSampling::kSelective, false,
                                       scale));
  methods.push_back(RunBoostMapVariant(workload, gt, "Se-QS",
                                       TripleSampling::kSelective, true,
                                       scale));
  workload.SaveCache();

  for (double accuracy : accuracies) {
    std::ostringstream panel;
    panel << stem << "_acc" << static_cast<int>(accuracy * 100);
    ReportAccuracyTable(
        workload.name + " — exact distances per query for " +
            std::to_string(static_cast<int>(accuracy * 100)) + "% accuracy",
        panel.str(), methods, print_ks, kmax, accuracy,
        workload.db_ids.size());
    WriteSeriesCsv(panel.str() + "_series", methods, kmax, accuracy,
                   workload.db_ids.size());
  }
  return methods;
}

void ReportAccuracyTable(const std::string& title, const std::string& stem,
                         const std::vector<MethodLadder>& methods,
                         const std::vector<size_t>& ks, size_t kmax,
                         double accuracy, size_t db_size) {
  std::vector<std::string> header = {"k"};
  for (const MethodLadder& m : methods) header.push_back(m.name);
  Table table(header);
  for (size_t k : ks) {
    if (k > kmax) continue;  // The ground truth holds only kmax neighbors.
    std::vector<std::string> row = {Table::Fmt(k)};
    for (const MethodLadder& m : methods) {
      row.push_back(Table::Fmt(OptimalCost(m.ladder, k, accuracy, db_size)));
    }
    table.AddRow(std::move(row));
  }
  std::printf("\n%s (accuracy %.0f%%, brute force = %zu distances)\n%s",
              title.c_str(), accuracy * 100.0, db_size,
              table.ToPretty().c_str());
  Status s = table.WriteCsv(ResultsPath(stem));
  if (!s.ok()) QSE_LOG("warning: " << s.ToString());
}

}  // namespace bench
}  // namespace qse
