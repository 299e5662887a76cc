// Microbenchmark of the filter step (google-benchmark).
//
// Backs the paper's Sec. 8 observation: "with embeddings of up to 1,000
// dimensions, the filter step always takes negligible time; retrieval
// time is dominated by the few exact distance computations" — and checks
// that the engine's layout decisions actually buy time:
//
//   * AoS vs SoA: the old rows-of-vectors layout (one heap allocation per
//     row) against the flat row-major EmbeddedDatabase scan, same kernel,
//     at up to n = 100k, d = 256.
//   * full scan + SmallestK vs the fused early-abandon ScoreTopP pass.
//   * one-query-at-a-time Retrieve over a 32-query loop.
//   * the monolithic single-query scan vs the sharded scatter/gather
//     engine (S shards x 1 query): does sharding speed up ONE query, not
//     just a batch?
//   * the seed's scalar scan against the dispatched exact scan and the
//     int8-prescreened weighted-L1 scan at n = 1M, d = 256.
//   * the prescreen's integer block kernel alone, in ns per row.
//   * the whole prescreened scan at the shard shapes perfbench serves.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cmath>
#include <memory>
#include <vector>

#include "src/distance/simd/dispatch.h"
#include "src/distance/weighted_l1.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/util/logging.h"
#include "src/util/random.h"
#include "src/util/top_k.h"

namespace qse {
namespace {

/// The pre-refactor AoS layout, kept here as the benchmark baseline.
struct AosDatabase {
  std::vector<Vector> rows;
};

/// The pre-refactor scan kernel (single running sum), kept verbatim so
/// the AoS benchmark measures the old code path, not the old layout with
/// the new four-lane kernel.
double SeedWeightedL1(const Vector& a, const Vector& b, const Vector& w) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += w[i] * std::fabs(a[i] - b[i]);
  }
  return sum;
}

AosDatabase MakeAosDb(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  AosDatabase db;
  db.rows.resize(n);
  for (auto& row : db.rows) {
    row.resize(d);
    for (double& v : row) v = rng.Uniform(0, 1);
  }
  return db;
}

EmbeddedDatabase MakeSoaDb(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  EmbeddedDatabase db(d);
  db.Resize(n);
  for (size_t i = 0; i < n; ++i) {
    double* row = db.mutable_row(i);
    for (size_t j = 0; j < d; ++j) row[j] = rng.Uniform(0, 1);
  }
  return db;
}

void FillQueryAndWeights(size_t d, Vector* q, Vector* w) {
  Rng rng(2);
  q->resize(d);
  w->resize(d);
  for (size_t i = 0; i < d; ++i) {
    (*q)[i] = rng.Uniform(0, 1);
    (*w)[i] = rng.Uniform(0, 1);
  }
}

// --- Layout comparison: identical weighted-L1 kernel, AoS vs SoA. -------

void BM_FilterScanWeightedL1_AoS(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t d = static_cast<size_t>(state.range(1));
  AosDatabase db = MakeAosDb(n, d, 1);
  Vector q, w;
  FillQueryAndWeights(d, &q, &w);
  std::vector<double> scores(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      scores[i] = SeedWeightedL1(q, db.rows[i], w);
    }
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FilterScanWeightedL1_AoS)
    ->Args({1000, 10})
    ->Args({1000, 100})
    ->Args({1000, 1000})
    ->Args({10000, 100})
    ->Args({100000, 100})
    ->Args({100000, 256})
    ->Unit(benchmark::kMicrosecond);

void BM_FilterScanWeightedL1_SoA(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t d = static_cast<size_t>(state.range(1));
  EmbeddedDatabase db = MakeSoaDb(n, d, 1);
  Vector q, w;
  FillQueryAndWeights(d, &q, &w);
  std::vector<double> scores(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      scores[i] = WeightedL1DistanceSpan(q.data(), db.row(i), w.data(), d);
    }
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FilterScanWeightedL1_SoA)
    ->Args({1000, 10})
    ->Args({1000, 100})
    ->Args({1000, 1000})
    ->Args({10000, 100})
    ->Args({100000, 100})
    ->Args({100000, 256})
    ->Unit(benchmark::kMicrosecond);

// --- Selection: full scan + SmallestK vs fused early-abandon TopP. ------

void BM_TopPSelection(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t p = static_cast<size_t>(state.range(1));
  Rng rng(3);
  std::vector<double> scores(n);
  for (double& s : scores) s = rng.Uniform(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SmallestK(scores, p));
  }
}
BENCHMARK(BM_TopPSelection)
    ->Args({10000, 100})
    ->Args({100000, 500})
    ->Unit(benchmark::kMicrosecond);

void BM_ScoreTopP_FullScan(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t d = static_cast<size_t>(state.range(1));
  size_t p = static_cast<size_t>(state.range(2));
  EmbeddedDatabase db = MakeSoaDb(n, d, 1);
  Vector q, w;
  FillQueryAndWeights(d, &q, &w);
  L2Scorer scorer;
  std::vector<double> scores;
  for (auto _ : state) {
    scorer.Score(q, db, &scores);
    benchmark::DoNotOptimize(SmallestK(scores, p));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ScoreTopP_FullScan)
    ->Args({100000, 100, 500})
    ->Args({100000, 256, 500})
    ->Unit(benchmark::kMicrosecond);

void BM_ScoreTopP_EarlyAbandon(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t d = static_cast<size_t>(state.range(1));
  size_t p = static_cast<size_t>(state.range(2));
  EmbeddedDatabase db = MakeSoaDb(n, d, 1);
  Vector q, w;
  FillQueryAndWeights(d, &q, &w);
  L2Scorer scorer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.ScoreTopP(q, db, p));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ScoreTopP_EarlyAbandon)
    ->Args({100000, 100, 500})
    ->Args({100000, 256, 500})
    ->Unit(benchmark::kMicrosecond);

// --- Single-query loop vs batched, thread-parallel retrieval. -----------

/// Embedder stub with zero exact-distance cost: the benchmark isolates
/// the engine's filter/refine machinery from any real embedding.
class FixedEmbedder : public Embedder {
 public:
  explicit FixedEmbedder(Vector v) : v_(std::move(v)) {}
  size_t dims() const override { return v_.size(); }
  size_t EmbeddingCost() const override { return 0; }
  Vector Embed(const DxToDatabaseFn&, size_t* num_exact) const override {
    if (num_exact != nullptr) *num_exact = 0;
    return v_;
  }

 private:
  Vector v_;
};

struct EngineFixture {
  EmbeddedDatabase db;
  std::vector<size_t> db_ids;
  FixedEmbedder embedder;
  L2Scorer scorer;
  std::unique_ptr<RetrievalEngine> engine;
  std::vector<DxToDatabaseFn> queries;

  EngineFixture(size_t n, size_t d, size_t num_queries)
      : db(MakeSoaDb(n, d, 1)), embedder([&] {
          Vector q, w;
          FillQueryAndWeights(d, &q, &w);
          return q;
        }()) {
    db_ids.resize(n);
    for (size_t i = 0; i < n; ++i) db_ids[i] = i;
    engine =
        std::make_unique<RetrievalEngine>(&embedder, &scorer, &db, db_ids);
    for (size_t i = 0; i < num_queries; ++i) {
      queries.push_back([](size_t) { return 0.0; });
    }
  }
};

void BM_RetrieveSingleLoop(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t d = static_cast<size_t>(state.range(1));
  size_t q = static_cast<size_t>(state.range(2));
  EngineFixture f(n, d, q);
  for (auto _ : state) {
    for (const auto& dx : f.queries) {
      auto r = f.engine->Retrieve({dx, RetrievalOptions(10, 100)});
      QSE_CHECK(r.ok());
      benchmark::DoNotOptimize(r.value());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(q));
}
BENCHMARK(BM_RetrieveSingleLoop)
    ->Args({100000, 64, 32})
    ->Unit(benchmark::kMillisecond);

// --- Sharded scatter/gather: S shards x ONE query. ----------------------
//
// The monolithic filter step is a serial scan over all n rows; the
// sharded engine splits the same scan across S per-shard engines and
// merges the per-shard top-p lists.  Same k, p and data as the
// monolithic baseline below, so time(monolithic) / time(sharded) is the
// single-query speedup the serving layer buys.  The CI threshold check
// (tools/check_bench_regressions.py) keys on these two benchmark names.

constexpr size_t kShardedK = 10;
constexpr size_t kShardedP = 500;

void BM_RetrieveMonolithicSingleQuery(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t d = static_cast<size_t>(state.range(1));
  EngineFixture f(n, d, 1);
  for (auto _ : state) {
    auto r = f.engine->Retrieve(
        {f.queries[0], RetrievalOptions(kShardedK, kShardedP)});
    QSE_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RetrieveMonolithicSingleQuery)
    ->Args({100000, 256})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_RetrieveShardedSingleQuery(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t d = static_cast<size_t>(state.range(1));
  size_t num_shards = static_cast<size_t>(state.range(2));
  // Built without EngineFixture: the monolithic engine (and its
  // 100k-entry id map) would be pure setup waste here.
  EmbeddedDatabase db = MakeSoaDb(n, d, 1);
  std::vector<size_t> db_ids(n);
  for (size_t i = 0; i < n; ++i) db_ids[i] = i;
  Vector q, w;
  FillQueryAndWeights(d, &q, &w);
  FixedEmbedder embedder(q);
  L2Scorer scorer;
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  RetrievalEngine sharded(&embedder, &scorer, db, db_ids, options);
  DxToDatabaseFn dx = [](size_t) { return 0.0; };
  for (auto _ : state) {
    auto r = sharded.Retrieve({dx, RetrievalOptions(kShardedK, kShardedP)});
    QSE_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RetrieveShardedSingleQuery)
    ->Args({100000, 256, 1})
    ->Args({100000, 256, 2})
    ->Args({100000, 256, 4})
    ->Args({100000, 256, 8})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// --- Exact filter scans at n = 1M: the CI throughput gates. ----------
//
// One fixed workload — n = 1M rows, d = 256, top p = 500 — scanned three
// ways: the seed's scalar float64 L2 path (via the scalar kernel table,
// which is bit-identical to the pre-dispatch code), the dispatched
// float64 L2 path, and the two-pass int8-prescreened weighted-L1 scan
// the query-sensitive scorer runs.  tools/check_bench_regressions.py
// gates both of the latter on throughput against the seed scan.  Every
// scan is exact; that the prescreened scan's candidates are
// bit-identical to the plain scan's at this shape is a ctest
// (PrescreenScanTest.GateShapeCandidatesBitIdentical).

constexpr size_t kPrecN = 1000000;
constexpr size_t kPrecD = 256;
constexpr size_t kPrecP = 500;

struct PrecisionFixture {
  EmbeddedDatabase db;
  Vector q, w;
  L2Scorer scorer;

  static const PrecisionFixture& Get() {
    static PrecisionFixture f;
    return f;
  }

  PrecisionFixture() : db(MakeSoaDb(kPrecN, kPrecD, 1)) {
    FillQueryAndWeights(kPrecD, &q, &w);
    db.RebuildPrescreenMatrix();
  }
};

/// The seed's filter scan, reproduced through the scalar kernel table
/// (bit-identical to the pre-dispatch four-lane code): the denominator
/// of the throughput gates.
void BM_FilterScanPrecision_SeedScalar(benchmark::State& state) {
  const PrecisionFixture& f = PrecisionFixture::Get();
  const EmbeddedDatabase::View view = f.db;
  const simd::KernelTable* k = simd::ScalarKernels();
  for (auto _ : state) {
    BoundedTopK top(kPrecP);
    for (size_t i = 0; i < view.size(); ++i) {
      top.Offer({i, k->l2_f64(f.q.data(), view.row(i), kPrecD,
                              top.threshold())});
    }
    std::vector<ScoredIndex> out = top.TakeSortedAscending();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPrecN));
}
BENCHMARK(BM_FilterScanPrecision_SeedScalar)->Unit(benchmark::kMillisecond);

void BM_FilterScanPrecision_Exact64(benchmark::State& state) {
  const PrecisionFixture& f = PrecisionFixture::Get();
  const EmbeddedDatabase::View view = f.db;
  for (auto _ : state) {
    std::vector<ScoredIndex> out = f.scorer.ScoreTopP(f.q, view, kPrecP);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPrecN));
}
BENCHMARK(BM_FilterScanPrecision_Exact64)->Unit(benchmark::kMillisecond);

void BM_FilterScanPrecision_Prescreened(benchmark::State& state) {
  const PrecisionFixture& f = PrecisionFixture::Get();
  const EmbeddedDatabase::View view = f.db;
  const simd::KernelTable* k = simd::ActiveKernels();
  FilterScanStats stats;
  for (auto _ : state) {
    std::vector<ScoredIndex> out =
        WeightedL1TopP(f.q, f.w, view, kPrecP, /*prescreen=*/true, k, &stats);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPrecN));
  state.counters["prescreened_frac"] =
      static_cast<double>(stats.rows_prescreened) /
      static_cast<double>(kPrecN);
}
BENCHMARK(BM_FilterScanPrecision_Prescreened)
    ->Unit(benchmark::kMillisecond);

// --- The prescreen's integer block kernel alone. ------------------------
//
// Time per row of KernelTable::prescreen_i8 on the active tier, one
// kPrescreenBlockRows call at a time over a 512 KiB int8 matrix in the
// blocked layout: small enough to stay in L2, so the figure is the
// kernel's compute cost, not the memory bandwidth a DRAM-resident shard
// adds.  The bound emits the 10% of rows with the smallest S, about what
// the scan's first pass collects.  Clamp the tier with QSE_SIMD_LEVEL.
// Arg: d.

void BM_PrescreenKernel(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = (size_t{512} << 10) / d;
  Rng rng(12);
  std::vector<int8_t> rows(EmbeddedDatabase::I8Bytes(n, d)), q(d);
  std::vector<int16_t> c(d);
  auto byte = [&rng] {
    return static_cast<int8_t>(static_cast<int>(rng.Index(255)) - 127);
  };
  for (int8_t& v : rows) v = byte();
  for (int8_t& v : q) v = byte();
  for (int16_t& v : c) {
    v = static_cast<int16_t>(static_cast<int>(rng.Index(2001)) - 1000);
  }
  const simd::KernelTable* k = simd::ActiveKernels();
  std::vector<uint32_t> emitted(n);
  std::vector<int32_t> scores(n);
  k->prescreen_i8(q.data(), rows.data(), n, c.data(), d, INT32_MAX,
                  emitted.data(), scores.data());
  std::nth_element(scores.begin(), scores.begin() + n / 10, scores.end());
  const int32_t bound = scores[n / 10];
  for (auto _ : state) {
    for (size_t first = 0; first < n; first += kPrescreenBlockRows) {
      const size_t rows_here = std::min(kPrescreenBlockRows, n - first);
      benchmark::DoNotOptimize(k->prescreen_i8(
          q.data(), rows.data() + EmbeddedDatabase::I8Offset(first, 0, d),
          rows_here, c.data(), d, bound, emitted.data(), scores.data()));
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
  // Seconds per row (shown with an SI prefix: "1.5n" is 1.5 ns).
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate |
                                  benchmark::Counter::kInvert);
}
BENCHMARK(BM_PrescreenKernel)->Arg(16)->Arg(24)->Arg(55)->Arg(130);

// --- The prescreened scan at perfbench's shard shapes. -----------------
//
// One WeightedL1TopP(prescreen = true) call per iteration on an
// L2-sized shard: d / rows / p = 16 / 10k / 100 (remote_wire), 24 / 20k
// / 50 (serve_churn) and 55 / 50k / 100 (scan_sharded), with weights in
// [0, 1) or signed ([-0.5, 1) with one forced negative, the trained
// models' usual case).  Here the int8 kernel is no longer the whole
// cost: pass 1's selections of S_p and pass 2's float64 reads are a
// visible share.  Iterations cycle over kScanQueries queries, each near
// a different row, so selection code sees fresh scores, as a served
// scan does, rather than one score vector its branches have learnt.
// Args: d, rows, p, signed.

constexpr size_t kScanQueries = 64;

void BM_PrescreenedScan(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const size_t p = static_cast<size_t>(state.range(2));
  const bool signed_weights = state.range(3) != 0;
  EmbeddedDatabase db = MakeSoaDb(n, d, 1);
  db.RebuildPrescreenMatrix();
  const EmbeddedDatabase::View view = db;
  Rng rng(5);
  std::vector<Vector> queries(kScanQueries), weights(kScanQueries);
  for (size_t i = 0; i < kScanQueries; ++i) {
    queries[i] = db.RowVector(rng.Index(n));
    for (double& v : queries[i]) v += rng.Uniform(-0.05, 0.05);
    weights[i].resize(d);
    for (double& v : weights[i]) {
      v = rng.Uniform(signed_weights ? -0.5 : 0.0, 1.0);
    }
    if (signed_weights) weights[i][0] = -std::fabs(weights[i][0]) - 0.1;
  }
  const simd::KernelTable* k = simd::ActiveKernels();
  FilterScanStats stats;
  size_t read = 0;
  size_t i = 0;
  for (auto _ : state) {
    std::vector<ScoredIndex> out =
        WeightedL1TopP(queries[i], weights[i], view, p, /*prescreen=*/true,
                       k, &stats);
    benchmark::DoNotOptimize(out.data());
    read += stats.rows_visited - stats.rows_prescreened;
    i = (i + 1) % kScanQueries;
  }
  // Mean float64 rows read per scan (pass 2's share of the work).
  state.counters["f64_rows"] = static_cast<double>(read) /
                               static_cast<double>(state.iterations());
}
BENCHMARK(BM_PrescreenedScan)
    ->ArgNames({"d", "rows", "p", "signed"})
    ->Args({16, 10000, 100, 0})
    ->Args({16, 10000, 100, 1})
    ->Args({24, 20000, 50, 0})
    ->Args({24, 20000, 50, 1})
    ->Args({55, 50000, 100, 0})
    ->Args({55, 50000, 100, 1})
    ->Unit(benchmark::kMicrosecond);

// --- A_i(q) evaluation cost (unchanged from the seed). ------------------

void BM_QueryWeightsEvaluation(benchmark::State& state) {
  // A_i(q) evaluation cost for a model with many terms per coordinate.
  size_t d = static_cast<size_t>(state.range(0));
  Rng rng(4);
  Vector fq(d);
  for (double& v : fq) v = rng.Uniform(0, 1);
  // Simulate 4 interval terms per coordinate.
  struct Term {
    double lo, hi, alpha;
  };
  std::vector<std::vector<Term>> terms(d);
  for (auto& t : terms) {
    for (int j = 0; j < 4; ++j) {
      double lo = rng.Uniform(0, 1), hi = lo + rng.Uniform(0, 0.5);
      t.push_back({lo, hi, rng.Uniform(0, 1)});
    }
  }
  Vector weights(d);
  for (auto _ : state) {
    for (size_t i = 0; i < d; ++i) {
      double a = 0.0;
      for (const Term& t : terms[i]) {
        if (fq[i] >= t.lo && fq[i] <= t.hi) a += t.alpha;
      }
      weights[i] = a;
    }
    benchmark::DoNotOptimize(weights.data());
  }
}
BENCHMARK(BM_QueryWeightsEvaluation)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace qse

BENCHMARK_MAIN();
