// Microbenchmarks of every distance measure in the repo (google-benchmark).
//
// Backs the paper's Sec. 3.1 premise: "with our PC we can measure close to
// a million L1 distances between high-dimensional vectors in R^100 in one
// second, whereas only 15 shape context distances can be evaluated per
// second" — i.e. vector distances are orders of magnitude cheaper than the
// exact DX, which is what makes filter-and-refine worthwhile.
#include <benchmark/benchmark.h>

#include "src/data/digit_generator.h"
#include "src/data/timeseries_generator.h"
#include "src/distance/dtw.h"
#include "src/distance/edit_distance.h"
#include "src/distance/lp.h"
#include "src/distance/point_set.h"
#include "src/distance/weighted_l1.h"
#include "src/matching/hungarian.h"
#include "src/matching/shape_context.h"
#include "src/matching/shape_context_distance.h"
#include "src/util/random.h"

namespace qse {
namespace {

Vector RandomVector(Rng* rng, size_t d) {
  Vector v(d);
  for (double& x : v) x = rng->Uniform(-1, 1);
  return v;
}

void BM_L1Distance(benchmark::State& state) {
  Rng rng(1);
  size_t d = static_cast<size_t>(state.range(0));
  Vector a = RandomVector(&rng, d), b = RandomVector(&rng, d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(L1Distance(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_L1Distance)->Arg(100)->Arg(600);

void BM_WeightedL1Distance(benchmark::State& state) {
  Rng rng(2);
  size_t d = static_cast<size_t>(state.range(0));
  Vector a = RandomVector(&rng, d), b = RandomVector(&rng, d);
  Vector w(d, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WeightedL1Distance(a, b, w));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WeightedL1Distance)->Arg(100)->Arg(600);

void BM_L2Distance(benchmark::State& state) {
  Rng rng(3);
  Vector a = RandomVector(&rng, 100), b = RandomVector(&rng, 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(L2Distance(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_L2Distance);

void BM_EditDistance(benchmark::State& state) {
  Rng rng(5);
  size_t len = static_cast<size_t>(state.range(0));
  std::string a, b;
  for (size_t i = 0; i < len; ++i) {
    a += static_cast<char>('a' + rng.Index(4));
    b += static_cast<char>('a' + rng.Index(4));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistance(a, b));
  }
}
BENCHMARK(BM_EditDistance)->Arg(64)->Arg(256);

// Args: the lengths of the two series.  Equal lengths whose 10% band
// fits the active tier's registers (AVX-512: 96 and 256; AVX2: 96) take
// the wavefront kernel; 500 samples and 96 vs 80 take the row DP.
// Args: length of a, length of b (resampled when they differ), dims.
// Dims 1 and 2 run the wavefront's specialised copies, others the
// runtime-dims one.
void BM_ConstrainedDtw(benchmark::State& state) {
  TimeSeriesGeneratorParams params;
  params.base_length = static_cast<size_t>(state.range(0));
  params.fixed_length = true;
  params.dims = static_cast<size_t>(state.range(2));
  TimeSeriesGenerator gen(params, 6);
  Series a = gen.MakeVariant(0), b = gen.MakeVariant(1);
  if (state.range(1) != state.range(0)) {
    b = b.Resampled(static_cast<size_t>(state.range(1)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConstrainedDtw(a, b, 0.1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ConstrainedDtw)
    ->Args({96, 96, 2})
    ->Args({96, 96, 1})
    ->Args({96, 96, 5})
    ->Args({256, 256, 2})
    ->Args({500, 500, 2})
    ->Args({96, 80, 2});

void BM_LbKeogh(benchmark::State& state) {
  TimeSeriesGeneratorParams params;
  params.base_length = 96;
  params.fixed_length = true;
  TimeSeriesGenerator gen(params, 7);
  Series a = gen.MakeVariant(0), b = gen.MakeVariant(1);
  DtwEnvelope env = BuildEnvelope(a, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LbKeogh(env, b));
  }
}
BENCHMARK(BM_LbKeogh);

void BM_Hungarian(benchmark::State& state) {
  Rng rng(9);
  size_t n = static_cast<size_t>(state.range(0));
  Matrix cost(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) cost(i, j) = rng.Uniform(0, 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveAssignment(cost));
  }
}
BENCHMARK(BM_Hungarian)->Arg(24)->Arg(64)->Arg(100);

void BM_ShapeContextDescriptors(benchmark::State& state) {
  DigitGeneratorParams params;
  params.points_per_digit = static_cast<size_t>(state.range(0));
  DigitGenerator gen(params, 10);
  PointSet ps = gen.Sample().shape;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeShapeContexts(ps, {}));
  }
}
BENCHMARK(BM_ShapeContextDescriptors)->Arg(24)->Arg(100);

void BM_ShapeContextDistance(benchmark::State& state) {
  DigitGeneratorParams params;
  params.points_per_digit = static_cast<size_t>(state.range(0));
  DigitGenerator gen(params, 11);
  PointSet a = gen.Sample().shape, b = gen.Sample().shape;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShapeContextDistance(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
// n = 24 is the repo's experiment setting; n = 100 matches the paper's
// "100 shape context features per image" (expect ~tens of distances per
// second, versus ~10^6/s for BM_L1Distance/100 — the Sec. 3.1 gap).
BENCHMARK(BM_ShapeContextDistance)->Arg(24)->Arg(100)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace qse

BENCHMARK_MAIN();
