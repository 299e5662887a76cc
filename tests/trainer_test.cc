#include "src/core/trainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "src/data/timeseries_generator.h"
#include "src/distance/dtw.h"
#include "src/distance/lp.h"
#include "tests/test_util.h"

namespace qse {
namespace {

BoostMapConfig SmallConfig() {
  BoostMapConfig config;
  config.num_triples = 400;
  config.k1 = 3;
  config.boost.rounds = 12;
  config.boost.embeddings_per_round = 10;
  return config;
}

TEST(TrainerTest, TrainsOnPlaneData) {
  auto oracle = test::MakePlaneOracle(60, 1);
  auto result = TrainBoostMap(oracle, test::Iota(20), test::Iota(40, 20),
                              SmallConfig());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->model.dims(), 0u);
  EXPECT_FALSE(result->history.empty());
  EXPECT_LT(result->final_training_error, 0.35);
  EXPECT_GT(result->preprocessing_distances, 0u);
}

TEST(TrainerTest, RejectsEmptyCandidates) {
  auto oracle = test::MakePlaneOracle(20, 2);
  auto result = TrainBoostMap(oracle, {}, test::Iota(10), SmallConfig());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TrainerTest, RejectsTinyTrainingSet) {
  auto oracle = test::MakePlaneOracle(20, 3);
  auto result =
      TrainBoostMap(oracle, test::Iota(5), {5, 6, 7}, SmallConfig());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TrainerTest, RejectsOutOfRangeIds) {
  auto oracle = test::MakePlaneOracle(20, 4);
  auto bad_cand = TrainBoostMap(oracle, {0, 1, 99}, test::Iota(10, 3),
                                SmallConfig());
  EXPECT_EQ(bad_cand.status().code(), StatusCode::kOutOfRange);
  auto bad_train = TrainBoostMap(oracle, test::Iota(3), {4, 5, 6, 99},
                                 SmallConfig());
  EXPECT_EQ(bad_train.status().code(), StatusCode::kOutOfRange);
}

TEST(TrainerTest, RejectsBadK1) {
  auto oracle = test::MakePlaneOracle(20, 5);
  BoostMapConfig config = SmallConfig();
  config.sampling = TripleSampling::kSelective;
  config.k1 = 50;  // Larger than |Xtr| - 2.
  auto result =
      TrainBoostMap(oracle, test::Iota(5), test::Iota(10, 5), config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TrainerTest, RejectsZeroRounds) {
  auto oracle = test::MakePlaneOracle(20, 6);
  BoostMapConfig config = SmallConfig();
  config.boost.rounds = 0;
  auto result =
      TrainBoostMap(oracle, test::Iota(5), test::Iota(10, 5), config);
  ASSERT_FALSE(result.ok());
}

TEST(TrainerTest, RandomSamplingIgnoresK1) {
  auto oracle = test::MakePlaneOracle(30, 7);
  BoostMapConfig config = SmallConfig();
  config.sampling = TripleSampling::kRandom;
  config.k1 = 10000;  // Must be ignored for Ra sampling.
  auto result =
      TrainBoostMap(oracle, test::Iota(10), test::Iota(20, 10), config);
  EXPECT_TRUE(result.ok()) << result.status();
}

TEST(TrainerTest, AllFourPaperVariantsTrain) {
  auto oracle = test::MakePlaneOracle(60, 8);
  for (TripleSampling sampling :
       {TripleSampling::kRandom, TripleSampling::kSelective}) {
    for (bool qs : {false, true}) {
      BoostMapConfig config = SmallConfig();
      config.sampling = sampling;
      config.boost.query_sensitive = qs;
      auto result = TrainBoostMap(oracle, test::Iota(20),
                                  test::Iota(40, 20), config);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->model.query_sensitive(), qs);
      EXPECT_GT(result->model.dims(), 0u);
    }
  }
}

TEST(TrainerTest, PreprocessingCostIsQuadraticScale) {
  // |C| x |C| / 2 + |C| x |Xtr| + |Xtr| x |Xtr| / 2 (diagonals free and
  // shared objects free).
  auto oracle = test::MakePlaneOracle(30, 9);
  auto result = TrainBoostMap(oracle, test::Iota(10), test::Iota(20, 10),
                              SmallConfig());
  ASSERT_TRUE(result.ok());
  size_t expected = 10 * 9 / 2 + 10 * 20 + 20 * 19 / 2;
  EXPECT_EQ(result->preprocessing_distances, expected);
}

TEST(TrainerTest, SharedSampleCountIsExactAcrossThreads) {
  // At |C| = |Xtr| = 300 TrainingContext::Build splits its rows over
  // threads, and each thread counts through the one CountingOracle: the
  // count must still be exactly n(n - 1), and race-free under TSan.
  constexpr size_t n = 300;
  auto oracle = test::MakePlaneOracle(n, 10);
  BoostMapConfig config = SmallConfig();
  config.boost.rounds = 2;
  config.boost.embeddings_per_round = 4;
  auto result = TrainBoostMap(oracle, test::Iota(n), test::Iota(n), config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->preprocessing_distances, n * (n - 1));
}

TEST(TrainerTest, RejectsNaNDistancesNamingTheFirstPair) {
  // NaN for DX(7, 3) only: candidate pairs are scanned first, row by
  // row, so the first NaN met is the mirrored read at row 3.
  auto plane = test::MakePlaneOracle(60, 11);
  test::FunctionOracle oracle(60, [&](size_t i, size_t j) {
    if ((i == 3 && j == 7) || (i == 7 && j == 3)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return plane.Distance(i, j);
  });
  auto result =
      TrainBoostMap(oracle, test::Iota(20), test::Iota(40, 20), SmallConfig());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("DX(3, 7) is NaN"),
            std::string::npos)
      << result.status();
}

TEST(TrainerTest, InfinitePivotDistancesTrainDeterministically) {
  // Candidates 0..9 lie at +inf from training objects 20..24.  A pivot
  // pair among them projects those objects to inf - inf = NaN and the
  // rest to numbers, so the weak learner sorts NaN projections; the
  // order must be total for the result to be defined.
  auto plane = test::MakePlaneOracle(60, 12);
  test::FunctionOracle oracle(60, [&](size_t i, size_t j) {
    const size_t c = std::min(i, j), o = std::max(i, j);
    if (c < 10 && o >= 20 && o < 25) {
      return std::numeric_limits<double>::infinity();
    }
    return plane.Distance(i, j);
  });
  BoostMapConfig config = SmallConfig();
  config.boost.pivot_fraction = 0.9;
  auto first =
      TrainBoostMap(oracle, test::Iota(20), test::Iota(40, 20), config);
  auto second =
      TrainBoostMap(oracle, test::Iota(20), test::Iota(40, 20), config);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_EQ(first->history.size(), second->history.size());
  for (size_t r = 0; r < first->history.size(); ++r) {
    const WeakClassifier& a = first->history[r].chosen;
    const WeakClassifier& b = second->history[r].chosen;
    EXPECT_TRUE(a.spec == b.spec) << "round " << r;
    EXPECT_EQ(std::memcmp(&a.lo, &b.lo, sizeof a.lo), 0) << "round " << r;
    EXPECT_EQ(std::memcmp(&a.hi, &b.hi, sizeof a.hi), 0) << "round " << r;
    EXPECT_EQ(std::memcmp(&a.alpha, &b.alpha, sizeof a.alpha), 0)
        << "round " << r;
  }
}

// Golden pins of trained Se-QS models.  C and Xtr are one sample, as in
// the paper and perfbench, so both the shared training context and the
// weak-learner search are pinned.  A trainer change that moves any bit
// of a chosen round fails here, before it can move Table 1 unseen.

// The bits of one trained round: its 1D embedding (type and local
// candidate ids) and its weak classifier's interval and weight.
struct RoundPin {
  int type;
  uint32_t c1, c2;
  uint64_t lo, hi, alpha;
};

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

// One pin per line in the initializer form of the tables below, so a
// mismatch prints as a line diff and a deliberate retrain can be pasted.
std::string Format(const std::vector<RoundPin>& pins) {
  std::string out;
  char line[128];
  for (const RoundPin& p : pins) {
    std::snprintf(line, sizeof line,
                  "{%d, %u, %u, 0x%016llx, 0x%016llx, 0x%016llx},\n", p.type,
                  p.c1, p.c2, static_cast<unsigned long long>(p.lo),
                  static_cast<unsigned long long>(p.hi),
                  static_cast<unsigned long long>(p.alpha));
    out += line;
  }
  return out;
}

std::string TrainedPins(const DistanceOracle& oracle,
                        const BoostMapConfig& config) {
  const std::vector<size_t> sample = test::Iota(oracle.size());
  auto result = TrainBoostMap(oracle, sample, sample, config);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return "";
  std::vector<RoundPin> pins;
  for (const RoundInfo& info : result->history) {
    const WeakClassifier& wc = info.chosen;
    pins.push_back({static_cast<int>(wc.spec.type), wc.spec.c1, wc.spec.c2,
                    Bits(wc.lo), Bits(wc.hi), Bits(wc.alpha)});
  }
  return Format(pins);
}

BoostMapConfig GoldenConfig() {
  BoostMapConfig config;
  config.sampling = TripleSampling::kSelective;
  config.num_triples = 800;
  config.k1 = 3;
  config.boost.rounds = 10;
  config.boost.embeddings_per_round = 12;
  config.boost.pivot_fraction = 0.5;
  return config;
}

ObjectOracle<Vector> GoldenL1Oracle() {
  Rng rng(101);
  std::vector<Vector> points(48, Vector(6));
  for (Vector& p : points) {
    for (double& x : p) x = rng.Uniform(0, 1);
  }
  return ObjectOracle<Vector>(std::move(points), L1Distance);
}

const std::vector<RoundPin> kL1ZBoundPins = {
    {1, 42, 6, 0xfff0000000000000, 0x7ff0000000000000, 0x3ff379f4e20fdc59},
    {1, 27, 15, 0xfff0000000000000, 0x7ff0000000000000, 0x3ff6d3380c3e9f3b},
    {1, 20, 40, 0xfff0000000000000, 0x7ff0000000000000, 0x3ff03ff5f2fabba9},
    {1, 16, 36, 0xfff0000000000000, 0x3ff22361c1f8461d, 0x3fef6a7992496fc0},
    {1, 37, 47, 0x3fd0838bfea7a876, 0x7ff0000000000000, 0x3ff34d0f29284c44},
    {0, 12, 0, 0xfff0000000000000, 0x3fffc7fe6bb02cc0, 0x4009207ebcc9446c},
    {1, 37, 20, 0xfff0000000000000, 0x7ff0000000000000, 0x3feba7a2114332fd},
    {1, 37, 47, 0xfff0000000000000, 0xbfe77ab3a40f2a38, 0x3feb5c7877533610},
    {1, 17, 35, 0x3febcb6a49b115d0, 0x7ff0000000000000, 0x3ff6920fdeb814ed},
    {1, 2, 26, 0xfff0000000000000, 0x7ff0000000000000, 0x3ff4747e9638a4e0},
};

const std::vector<RoundPin> kL1CorrelationPins = {
    {1, 42, 6, 0xfff0000000000000, 0x7ff0000000000000, 0x3ff379f4e20fdc59},
    {1, 27, 15, 0xfff0000000000000, 0x7ff0000000000000, 0x3ff6d3380c3e9f3b},
    {1, 20, 40, 0xfff0000000000000, 0x7ff0000000000000, 0x3ff03ff5f2fabba9},
    {0, 10, 0, 0xfff0000000000000, 0x7ff0000000000000, 0x3fe833853897f6b2},
    {1, 37, 47, 0xfff0000000000000, 0x7ff0000000000000, 0x3fe1348cba7136b0},
    {0, 44, 0, 0xfff0000000000000, 0x7ff0000000000000, 0x3ff0d676826f7e7d},
    {1, 37, 20, 0xfff0000000000000, 0x7ff0000000000000, 0x3fed671349ecfdf3},
    {1, 46, 5, 0xfff0000000000000, 0x7ff0000000000000, 0x3ff07f9aec74a5aa},
    {1, 12, 8, 0xfff0000000000000, 0x7ff0000000000000, 0x3fea17832091412c},
    {1, 2, 26, 0xfff0000000000000, 0x7ff0000000000000, 0x3ff1e9fb0ccb1062},
};

const std::vector<RoundPin> kCdtwPins = {
    {0, 10, 0, 0xfff0000000000000, 0x7ff0000000000000, 0x3fe2608f467856f6},
    {1, 20, 21, 0xfff0000000000000, 0x7ff0000000000000, 0x3fcbbf89ccc253e1},
    {0, 1, 0, 0xfff0000000000000, 0x4043ab39df07bcca, 0x3fc6b5be0113b5a9},
    {1, 0, 35, 0xfff0000000000000, 0x7ff0000000000000, 0x3fb2da12c2a53d1e},
    {1, 18, 2, 0x40267531bf9b1dfc, 0x402ca855dedd4e62, 0xbfd93470451e2536},
    {1, 18, 2, 0xfff0000000000000, 0x7ff0000000000000, 0x3fcc7fd784f2cb88},
    {0, 28, 0, 0x4040018992a5a232, 0x4048c24faa5b939b, 0x3fdafff534cfdce0},
    {1, 18, 2, 0x402a87fb72fadebe, 0x7ff0000000000000, 0x3fe8a8a102776d7d},
};

TEST(TrainerTest, GoldenL1ModelsUnderBothIntervalCriteria) {
  auto oracle = GoldenL1Oracle();
  BoostMapConfig config = GoldenConfig();
  config.boost.interval_selection = AdaBoostOptions::IntervalSelection::kZBound;
  EXPECT_EQ(TrainedPins(oracle, config), Format(kL1ZBoundPins));
  config.boost.interval_selection =
      AdaBoostOptions::IntervalSelection::kCorrelation;
  EXPECT_EQ(TrainedPins(oracle, config), Format(kL1CorrelationPins));
}

TEST(TrainerTest, GoldenCdtwModel) {
  TimeSeriesGeneratorParams params;
  params.num_seeds = 8;
  params.base_length = 32;
  params.fixed_length = true;
  TimeSeriesGenerator gen(params, 5);
  ObjectOracle<Series> oracle(gen.Generate(36),
                              [](const Series& a, const Series& b) {
                                return ConstrainedDtw(a, b, 0.1);
                              });
  BoostMapConfig config = GoldenConfig();
  config.num_triples = 600;
  config.boost.rounds = 8;
  EXPECT_EQ(TrainedPins(oracle, config), Format(kCdtwPins));
}

}  // namespace
}  // namespace qse
