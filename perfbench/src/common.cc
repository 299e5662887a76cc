#include "perfbench/src/common.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "src/core/trainer.h"
#include "src/distance/dtw.h"
#include "src/distance/lp.h"
#include "src/retrieval/exact_knn.h"
#include "src/util/parallel.h"

namespace perfbench {

double VectorDx::Distance(size_t query, size_t db_id) const {
  return qse::L1Distance((*queries_)[query], (*objects_)[db_id]);
}

double SeriesDx::Distance(size_t query, size_t db_id) const {
  return qse::ConstrainedDtw((*queries_)[query], (*objects_)[db_id], 0.1);
}

namespace {

std::vector<qse::Vector> Centres(size_t clusters, size_t dims) {
  qse::Rng rng(kModelSeed);
  std::vector<qse::Vector> centres(clusters, qse::Vector(dims));
  for (qse::Vector& c : centres) {
    for (double& x : c) x = rng.Uniform(0, 1);
  }
  return centres;
}

std::vector<qse::Vector> ClusteredPoints(size_t count, size_t dims,
                                         const std::vector<qse::Vector>& centres,
                                         double spread, qse::Rng* rng) {
  std::vector<qse::Vector> points(count, qse::Vector(dims));
  for (qse::Vector& p : points) {
    const qse::Vector& c = centres[rng->Index(centres.size())];
    for (size_t j = 0; j < dims; ++j) p[j] = c[j] + rng->Gaussian(0, spread);
  }
  return points;
}

}  // namespace

VectorData MakeVectorData(size_t objects, size_t fixed, size_t queries,
                          uint64_t seed) {
  constexpr size_t kDims = 16;
  constexpr double kSpread = 0.05;
  std::vector<qse::Vector> centres = Centres(64, kDims);
  qse::Rng fixed_rng(kModelSeed + 1);
  qse::Rng rng(seed);
  VectorData data;
  data.objects = ClusteredPoints(fixed, kDims, centres, kSpread, &fixed_rng);
  std::vector<qse::Vector> rest =
      ClusteredPoints(objects - fixed, kDims, centres, kSpread, &rng);
  data.objects.insert(data.objects.end(), rest.begin(), rest.end());
  data.queries = ClusteredPoints(queries, kDims, centres, kSpread, &rng);
  return data;
}

qse::QuerySensitiveEmbedding TrainSeQs(const qse::DistanceOracle& oracle,
                                       const std::vector<size_t>& sample,
                                       const TrainSpec& spec, uint64_t seed) {
  qse::BoostMapConfig config;
  config.sampling = qse::TripleSampling::kSelective;
  config.num_triples = spec.triples;
  config.k1 = spec.k1;
  config.sampling_seed = seed + 1;
  config.boost.rounds = spec.rounds;
  config.boost.embeddings_per_round = spec.embeddings_per_round;
  config.boost.query_sensitive = true;
  // Reference-object coordinates only: embedding a query then costs
  // exactly d distances, the same for every seed, so dx_per_query moves
  // only when the library's own DX spending does.
  config.boost.pivot_fraction = 0;
  config.boost.seed = seed + 2;
  auto artifacts = qse::TrainBoostMap(oracle, sample, sample, config);
  if (!artifacts.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 artifacts.status().ToString().c_str());
    std::exit(2);
  }
  const qse::QuerySensitiveEmbedding& model = artifacts->model;
  for (size_t j = 1; j < model.num_rounds(); ++j) {
    qse::QuerySensitiveEmbedding prefix = model.Prefix(j);
    if (prefix.dims() >= spec.dims) return prefix;
  }
  return model;
}

void BeginPhase(bool traced, RunResult* result) {
  ResetAllClocks();
  g_counters.Reset();
  result->before = SampleHost();
  g_trace.store(traced, std::memory_order_relaxed);
}

void EndPhase(RunResult* result) {
  g_trace.store(false, std::memory_order_relaxed);
  result->after = SampleHost();
  result->layers = SumAllClocks();
  result->filter_rows = g_counters.filter_rows;
  result->filter_pruned = g_counters.filter_pruned;
  result->filter_bytes = g_counters.filter_bytes;
  result->listed_candidates = g_counters.listed_candidates;
}

std::vector<size_t> ReadSchedule(size_t reads, size_t num_queries,
                                 qse::Rng* rng) {
  std::vector<size_t> queries(reads);
  for (size_t& q : queries) q = rng->Index(num_queries);
  return queries;
}

RunResult RunClosedLoop(const std::vector<size_t>& queries,
                        const qse::RetrievalBackend* backend,
                        const qse::RetrievalOptions& options,
                        const DxSource* source, bool traced) {
  RunResult r;
  std::vector<RequestRecord> records(queries.size());
  r.answers.reserve(queries.size());
  r.read_ms.reserve(queries.size());
  BeginPhase(traced, &r);
  for (size_t i = 0; i < queries.size(); ++i) {
    uint64_t start = NowNs();
    ReadAnswer answer;
    answer.query = queries[i];
    {
      Span root(kClient);
      auto response = backend->Retrieve(
          {CountingDx{source, queries[i], &records[i]}, options, nullptr});
      answer.ok = response.ok();
      if (answer.ok) {
        for (const qse::ScoredIndex& nb : response->neighbors) {
          answer.ids.push_back(backend->db_id_of(nb.index));
          answer.scores.push_back(nb.score);
        }
        for (const qse::ShardScanStats& s : response->shard_stats) {
          answer.stats_candidates += s.candidates;
        }
      }
    }
    r.read_ms.push_back(1e-6 * static_cast<double>(NowNs() - start));
    r.cal.push_back(Calibrate());
    r.cal_cpu_ns += r.cal.back().cpu_ns;
    r.read_dx += records[i].dx_calls;
    r.failed += answer.ok ? 0 : 1;
    r.answers.push_back(std::move(answer));
  }
  EndPhase(&r);
  r.reads = queries.size();
  for (double ms : r.read_ms) r.e2e_ns += 1e6 * ms;
  r.unattributed_ns = static_cast<double>(r.layers.self_ns[kClient]);
  return r;
}

std::vector<double> RefScaled(const std::vector<double>& read_ms,
                              const std::vector<Calibration>& cal) {
  constexpr size_t kHalfWindow = 16;
  std::vector<double> scaled(read_ms.size());
  std::vector<double> window;
  for (size_t i = 0; i < read_ms.size(); ++i) {
    size_t lo = i > kHalfWindow ? i - kHalfWindow : 0;
    size_t hi = std::min(cal.size(), i + kHalfWindow + 1);
    window.clear();
    for (size_t j = lo; j < hi; ++j) window.push_back(cal[j].wall_ns);
    scaled[i] = read_ms[i] * Ratio(kRefKernelNs, Quantile(window, 0.5));
  }
  return scaled;
}

double RefCpuMsPerOp(const RunResult& r) {
  std::vector<double> cpu_ns;
  cpu_ns.reserve(r.cal.size());
  for (const Calibration& c : r.cal) cpu_ns.push_back(c.cpu_ns);
  double cpu_s = r.after.cpu_s - r.before.cpu_s - 1e-9 * r.cal_cpu_ns;
  double ops = static_cast<double>(r.reads + r.writes);
  return 1e3 * Ratio(cpu_s, ops) * Ratio(kRefKernelNs, Quantile(cpu_ns, 0.5));
}

std::vector<std::vector<size_t>> GroundTruth(const DxSource& source,
                                             size_t num_queries,
                                             const std::vector<size_t>& db_ids,
                                             size_t k) {
  std::vector<std::vector<size_t>> truth(num_queries);
  // Not timed and not part of set-up, so it may use every core.
  qse::ParallelForGrain(0, num_queries, 2, [&](size_t q) {
    std::vector<qse::ScoredIndex> top = qse::ExactKnnExternal(
        [&](size_t id) { return source.Distance(q, id); }, db_ids, k);
    for (const qse::ScoredIndex& s : top) truth[q].push_back(db_ids[s.index]);
  });
  return truth;
}

double CheckAnswers(const std::vector<ReadAnswer>& answers,
                    const DxSource& source,
                    const std::vector<std::vector<size_t>>& truth, size_t k,
                    std::vector<std::string>* errors) {
  std::unordered_map<size_t, const ReadAnswer*> first;
  double recall_sum = 0;
  size_t checked = 0;
  for (const ReadAnswer& a : answers) {
    if (!a.ok) continue;
    ++checked;
    if (a.ids.size() != k || a.scores.size() != k) {
      errors->push_back(Format("query %zu: %zu neighbours, want %zu", a.query,
                               a.ids.size(), k));
      continue;
    }
    std::unordered_set<size_t> distinct(a.ids.begin(), a.ids.end());
    if (distinct.size() != k) {
      errors->push_back(Format("query %zu: repeated neighbour ids", a.query));
    }
    for (size_t i = 1; i < k; ++i) {
      if (a.scores[i] < a.scores[i - 1]) {
        errors->push_back(Format("query %zu: scores out of order", a.query));
        break;
      }
    }
    auto seen = first.find(a.query);
    if (seen == first.end()) {
      first.emplace(a.query, &a);
      for (size_t i = 0; i < k; ++i) {
        double exact = source.Distance(a.query, a.ids[i]);
        if (exact != a.scores[i]) {
          errors->push_back(Format("query %zu: neighbour %zu score %.17g, "
                                   "exact distance %.17g",
                                   a.query, a.ids[i], a.scores[i], exact));
          break;
        }
      }
    } else if (seen->second->ids != a.ids ||
               seen->second->scores != a.scores) {
      errors->push_back(
          Format("query %zu: repeated query answered differently", a.query));
    }
    const std::vector<size_t>& want = truth[a.query];
    std::unordered_set<size_t> want_set(want.begin(), want.end());
    size_t hits = 0;
    for (size_t id : a.ids) hits += want_set.count(id);
    recall_sum += static_cast<double>(hits) / static_cast<double>(k);
  }
  if (errors->size() > 20) errors->resize(20);
  return checked == 0 ? 0 : recall_sum / static_cast<double>(checked);
}

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace perfbench
