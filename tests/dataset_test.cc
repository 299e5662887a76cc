#include "src/data/dataset.h"

#include <cmath>
#include <cstdio>

#include <gtest/gtest.h>

#include "src/data/distance_cache.h"
#include "src/distance/lp.h"
#include "tests/test_util.h"

namespace qse {
namespace {

ObjectOracle<Vector> MakeVectorOracle() {
  std::vector<Vector> objs = {{0, 0}, {1, 0}, {0, 2}, {3, 3}};
  return ObjectOracle<Vector>(std::move(objs), L2Distance);
}

TEST(ObjectOracleTest, DistanceMatchesFunction) {
  auto oracle = MakeVectorOracle();
  EXPECT_EQ(oracle.size(), 4u);
  EXPECT_DOUBLE_EQ(oracle.Distance(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(oracle.Distance(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(oracle.Distance(0, 3), std::sqrt(18.0));
}

TEST(CountingOracleTest, CountsEveryCall) {
  auto inner = MakeVectorOracle();
  CountingOracle counting(&inner);
  EXPECT_EQ(counting.count(), 0u);
  counting.Distance(0, 1);
  counting.Distance(0, 1);
  counting.Distance(2, 3);
  EXPECT_EQ(counting.count(), 3u);
}

TEST(FunctionOracleTest, DelegatesToFunction) {
  test::FunctionOracle oracle(5, [](size_t i, size_t j) {
    return std::fabs(static_cast<double>(i) - static_cast<double>(j));
  });
  EXPECT_EQ(oracle.size(), 5u);
  EXPECT_DOUBLE_EQ(oracle.Distance(1, 4), 3.0);
}

TEST(CachingOracleTest, MemoizesSymmetrically) {
  auto inner = MakeVectorOracle();
  CountingOracle counting(&inner);
  CachingOracle cache(&counting, "test-fp");
  double d1 = cache.Distance(0, 3);
  double d2 = cache.Distance(3, 0);  // Symmetric key: served from cache.
  EXPECT_DOUBLE_EQ(d1, d2);
  EXPECT_EQ(counting.count(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.cached_pairs(), 1u);
}

TEST(CachingOracleTest, SaveLoadRoundTrip) {
  auto inner = MakeVectorOracle();
  CountingOracle counting(&inner);
  CachingOracle cache(&counting, "fp-v1");
  cache.Distance(0, 1);
  cache.Distance(1, 2);
  std::string path = testing::TempDir() + "/qse_cache_test.bin";
  ASSERT_TRUE(cache.Save(path).ok());

  CountingOracle counting2(&inner);
  CachingOracle cache2(&counting2, "fp-v1");
  ASSERT_TRUE(cache2.Load(path).ok());
  EXPECT_EQ(cache2.cached_pairs(), 2u);
  cache2.Distance(0, 1);
  cache2.Distance(1, 2);
  EXPECT_EQ(counting2.count(), 0u);  // Fully served from the loaded cache.
  std::remove(path.c_str());
}

TEST(CachingOracleTest, FingerprintMismatchRejected) {
  auto inner = MakeVectorOracle();
  CachingOracle cache(&inner, "fp-v1");
  cache.Distance(0, 1);
  std::string path = testing::TempDir() + "/qse_cache_fp_test.bin";
  ASSERT_TRUE(cache.Save(path).ok());

  CachingOracle other(&inner, "fp-v2");
  Status s = other.Load(path);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CachingOracleTest, MissingFileIsNotFound) {
  auto inner = MakeVectorOracle();
  CachingOracle cache(&inner, "fp");
  Status s = cache.Load("/nonexistent/qse-cache.bin");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(CachingOracleTest, ValuesMatchInnerOracle) {
  auto inner = MakeVectorOracle();
  CachingOracle cache(&inner, "fp");
  for (size_t i = 0; i < inner.size(); ++i) {
    for (size_t j = 0; j < inner.size(); ++j) {
      if (i == j) continue;
      EXPECT_DOUBLE_EQ(cache.Distance(i, j), inner.Distance(i, j));
    }
  }
}

}  // namespace
}  // namespace qse
