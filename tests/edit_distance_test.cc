#include "src/distance/edit_distance.h"

#include <string>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace qse {
namespace {

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("same", "same"), 0u);
}

TEST(EditDistanceTest, SingleOperations) {
  EXPECT_EQ(EditDistance("abc", "abcd"), 1u);  // Insert.
  EXPECT_EQ(EditDistance("abcd", "abc"), 1u);  // Delete.
  EXPECT_EQ(EditDistance("abc", "axc"), 1u);   // Substitute.
}

TEST(EditDistanceTest, MetricAxiomsOnRandomStrings) {
  Rng rng(3);
  auto random_string = [&](size_t max_len) {
    std::string s;
    size_t len = rng.Index(max_len + 1);
    for (size_t i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng.Index(4));
    }
    return s;
  };
  for (int trial = 0; trial < 50; ++trial) {
    std::string a = random_string(12), b = random_string(12),
                c = random_string(12);
    size_t ab = EditDistance(a, b);
    size_t ba = EditDistance(b, a);
    size_t ac = EditDistance(a, c);
    size_t bc = EditDistance(b, c);
    EXPECT_EQ(ab, ba);                      // Symmetry.
    EXPECT_LE(ac, ab + bc);                 // Triangle inequality.
    EXPECT_EQ(EditDistance(a, a), 0u);      // Identity.
  }
}

TEST(EditDistanceTest, BoundedByLongerLength) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    std::string a, b;
    for (size_t i = 0; i < rng.Index(10) + 1; ++i) {
      a += static_cast<char>('a' + rng.Index(26));
    }
    for (size_t i = 0; i < rng.Index(10) + 1; ++i) {
      b += static_cast<char>('a' + rng.Index(26));
    }
    EXPECT_LE(EditDistance(a, b), std::max(a.size(), b.size()));
    EXPECT_GE(EditDistance(a, b),
              a.size() > b.size() ? a.size() - b.size()
                                  : b.size() - a.size());
  }
}

}  // namespace
}  // namespace qse
