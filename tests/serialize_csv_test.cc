#include <cstdio>
#include <fstream>
#include <limits>

#include <gtest/gtest.h>

#include "src/util/csv.h"
#include "src/util/parallel.h"
#include "src/util/serialize.h"

namespace qse {
namespace {

TEST(SerializeTest, RoundTripScalars) {
  ByteWriter w;
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(1ull << 40);
  w.WriteDouble(3.14159);
  ByteReader r(w.bytes());
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double d = 0;
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, 1ull << 40);
  EXPECT_DOUBLE_EQ(d, 3.14159);
}

TEST(SerializeTest, RoundTripStringsAndVectors) {
  ByteWriter w;
  w.WriteString("hello world");
  w.WriteString("");
  w.WriteDoubleVec({1.0, -2.5, 1e300});
  const std::vector<uint64_t> ids = {7, 8, 9};
  w.WriteU64(ids.size());
  w.WriteBytes(ids.data(), ids.size() * sizeof(uint64_t));
  ByteReader r(w.bytes());
  std::string s1, s2;
  std::vector<double> dv;
  std::vector<uint64_t> uv;
  ASSERT_TRUE(r.ReadString(&s1).ok());
  ASSERT_TRUE(r.ReadString(&s2).ok());
  ASSERT_TRUE(r.ReadDoubleVec(&dv).ok());
  ASSERT_TRUE(r.ReadU64Vec(&uv).ok());
  EXPECT_TRUE(r.RequireExhausted().ok());
  EXPECT_EQ(s1, "hello world");
  EXPECT_TRUE(s2.empty());
  EXPECT_EQ(dv, (std::vector<double>{1.0, -2.5, 1e300}));
  EXPECT_EQ(uv, ids);
}

TEST(SerializeTest, TruncatedReadFails) {
  ByteWriter w;
  w.WriteU32(5);
  ByteReader r(w.bytes());
  uint64_t v = 0;
  Status s = r.ReadU64(&v);  // Only 4 bytes available.
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

TEST(SerializeTest, InfinityRoundTrips) {
  ByteWriter w;
  double inf = std::numeric_limits<double>::infinity();
  w.WriteDouble(inf);
  w.WriteDouble(-inf);
  ByteReader r(w.bytes());
  double a = 0, b = 0;
  ASSERT_TRUE(r.ReadDouble(&a).ok());
  ASSERT_TRUE(r.ReadDouble(&b).ok());
  EXPECT_EQ(a, inf);
  EXPECT_EQ(b, -inf);
}

TEST(TableTest, CsvEscaping) {
  Table t({"name", "value"});
  t.AddRow({"plain", "1"});
  t.AddRow({"with,comma", "2"});
  t.AddRow({"with\"quote", "3"});
  std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
  EXPECT_EQ(csv.substr(0, 11), "name,value\n");
}

TEST(TableTest, PrettyAlignsColumns) {
  Table t({"a", "bee"});
  t.AddRow({"xxxx", "1"});
  std::string pretty = t.ToPretty();
  // Header line and separator present.
  EXPECT_NE(pretty.find("a     bee"), std::string::npos);
  EXPECT_NE(pretty.find("----"), std::string::npos);
}

TEST(TableTest, FmtFormats) {
  EXPECT_EQ(Table::Fmt(static_cast<size_t>(42)), "42");
  EXPECT_EQ(Table::Fmt(2.5), "2.5");
  EXPECT_EQ(Table::Fmt(static_cast<long long>(-3)), "-3");
}

TEST(TableTest, WriteCsvToFile) {
  Table t({"x"});
  t.AddRow({"1"});
  std::string path = testing::TempDir() + "/qse_table_test.csv";
  ASSERT_TRUE(t.WriteCsv(path).ok());
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "x");
  std::remove(path.c_str());
}

TEST(TableTest, WriteCsvBadPathFails) {
  Table t({"x"});
  Status s = t.WriteCsv("/nonexistent-dir-zzz/file.csv");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

TEST(ParallelTest, CoversRangeExactlyOnce) {
  std::vector<int> hits(10000, 0);
  ParallelFor(0, hits.size(), [&](size_t i) { hits[i]++; }, 4);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelTest, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(5, 5, [&](size_t) { called = true; }, 4);
  EXPECT_FALSE(called);
}

TEST(ParallelTest, SerialFallbackSmallRange) {
  std::vector<int> hits(10, 0);
  ParallelFor(0, hits.size(), [&](size_t i) { hits[i]++; }, 8);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelTest, DefaultParallelismPositive) {
  EXPECT_GE(DefaultParallelism(), 1u);
}

}  // namespace
}  // namespace qse
