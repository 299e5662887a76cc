// The on-disk formats byte for byte, and their loaders under corruption.
//
// FileFormatGolden pins the FastMap and Se-QS model files, the
// distance-cache file, the WAL (file header and both record kinds) and
// the snapshot: each test encodes fixed inputs and compares the bytes, as
// hex, with the bytes the formats have always had, so a change to the
// encoder that moves any field, prefix or CRC fails here.  The wire
// format has its own pin (WireCodecTest.VersionSixBytesArePinned).
//
// LoaderFuzz feeds the model and cache loaders every truncation of a
// valid file and lying values in each count field: each must fail with a
// Status, never abort, and never allocate from a count the file's bytes
// cannot back (the sanitizer job caps single allocations, so an unchecked
// prefix fails there whatever the host's memory).  The WAL and snapshot
// loaders have the same suites in wal_fuzz_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/core/qs_embedding.h"
#include "src/core/training_context.h"
#include "src/data/distance_cache.h"
#include "src/embedding/fastmap.h"
#include "src/persist/snapshot.h"
#include "src/persist/wal.h"
#include "src/retrieval/embedded_database.h"
#include "tests/test_util.h"

namespace qse {
namespace {

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Objects on a line at exact binary fractions: every distance is exact,
/// so the pinned bytes depend on the encoders alone.
class LineOracle : public DistanceOracle {
 public:
  size_t size() const override { return kX.size(); }
  double Distance(size_t i, size_t j) const override {
    return std::fabs(kX[i] - kX[j]);
  }

 private:
  const std::vector<double> kX = {0.0, 1.0, 3.0, 7.0, 12.5};
};

const LineOracle kLine;

FastMapModel SmallFastMap() {
  FastMapModel::Level first;
  first.pivot_a = 3;
  first.pivot_b = 7;
  first.dist_ab = 2.5;
  FastMapModel::Level second;
  second.pivot_a = 1;
  second.pivot_b = 4;
  second.dist_ab = 1.25;
  second.coords_a = {0.5};
  second.coords_b = {-1.0};
  return FastMapModel({first, second});
}

QuerySensitiveEmbedding SmallSeQs() {
  TrainingContext ctx = TrainingContext::Build(kLine, {3, 1, 4}, {0, 2});
  std::vector<WeakClassifier> rounds(3);
  rounds[0].spec.c1 = 0;
  rounds[0].alpha = 0.5;
  rounds[1].spec.type = Embedding1DSpec::Type::kPivot;
  rounds[1].spec.c1 = 1;
  rounds[1].spec.c2 = 2;
  rounds[1].lo = -0.25;
  rounds[1].hi = 2.0;
  rounds[1].alpha = 0.125;
  rounds[2].spec.c1 = 0;
  rounds[2].lo = 1.0;
  rounds[2].hi = std::numeric_limits<double>::infinity();
  rounds[2].alpha = 0.75;
  return QuerySensitiveEmbedding::FromTraining(ctx, rounds,
                                               /*query_sensitive=*/true);
}

/// A cache of three pairs under fingerprint "fp".
std::unique_ptr<CachingOracle> SmallCache() {
  auto cache = std::make_unique<CachingOracle>(&kLine, "fp");
  cache->Distance(0, 1);
  cache->Distance(4, 2);
  cache->Distance(3, 1);
  return cache;
}

TEST(FileFormatGolden, FastMapModelBytesArePinned) {
  const std::string path = test::FreshDir("golden_fastmap") + "/model.bin";
  ASSERT_TRUE(SmallFastMap().Save(path).ok());
  EXPECT_EQ(Hex(ReadFile(path)),
            "314d4651"          // magic "QFM1"
            "0200000000000000"  // 2 levels
            "03000000"          // pivot_a 3
            "07000000"          // pivot_b 7
            "0000000000000440"  // dist_ab 2.5
            "0000000000000000"  // coords_a: 0 doubles
            "0000000000000000"  // coords_b: 0 doubles
            "01000000"          // pivot_a 1
            "04000000"          // pivot_b 4
            "000000000000f43f"  // dist_ab 1.25
            "0100000000000000"  // coords_a: 1 double
            "000000000000e03f"  // 0.5
            "0100000000000000"  // coords_b: 1 double
            "000000000000f0bf"  // -1.0
  );
}

TEST(FileFormatGolden, QuerySensitiveModelBytesArePinned) {
  const std::string path = test::FreshDir("golden_seqs") + "/model.bin";
  ASSERT_TRUE(SmallSeQs().Save(path).ok());
  EXPECT_EQ(Hex(ReadFile(path)),
            "314d5351"          // magic "QSM1"
            "01000000"          // query_sensitive
            "0300000000000000"  // 3 rounds
            "00000000"          // round 0: reference
            "03000000"          // db_id1 3
            "00000000"          // db_id2 0
            "0000000000000000"  // pivot_distance 0
            "000000000000f0ff"  // lo -inf
            "000000000000f07f"  // hi +inf
            "000000000000e03f"  // alpha 0.5
            "01000000"          // round 1: pivot
            "01000000"          // db_id1 1
            "04000000"          // db_id2 4
            "0000000000002740"  // pivot_distance 11.5
            "000000000000d0bf"  // lo -0.25
            "0000000000000040"  // hi 2
            "000000000000c03f"  // alpha 0.125
            "00000000"          // round 2: reference
            "03000000"          // db_id1 3
            "00000000"          // db_id2 0
            "0000000000000000"  // pivot_distance 0
            "000000000000f03f"  // lo 1
            "000000000000f07f"  // hi +inf
            "000000000000e83f"  // alpha 0.75
  );
}

TEST(FileFormatGolden, DistanceCacheBytesArePinned) {
  const std::string path = test::FreshDir("golden_cache") + "/cache.bin";
  ASSERT_TRUE(SmallCache()->Save(path).ok());
  const std::string bytes = ReadFile(path);
  // Magic, fingerprint, universe size and pair count, then one 16-byte
  // (key, value) record per pair in the hash map's order, which the
  // format leaves open: the records are compared as a sorted set.
  constexpr size_t kHeader = 4 + 8 + 2 + 8 + 8;
  ASSERT_EQ(bytes.size(), kHeader + 3 * 16);
  EXPECT_EQ(Hex(bytes.substr(0, kHeader)),
            "43455351"          // magic "QSEC"
            "0200000000000000"  // fingerprint: 2 bytes
            "6670"              // "fp"
            "0500000000000000"  // universe size 5
            "0300000000000000"  // 3 pairs
  );
  std::vector<std::string> records;
  for (size_t pos = kHeader; pos < bytes.size(); pos += 16) {
    records.push_back(Hex(bytes.substr(pos, 16)));
  }
  std::sort(records.begin(), records.end());
  // Keys are (min id << 32) | max id.
  EXPECT_EQ(records, (std::vector<std::string>{
                         "0100000000000000"    // key (0, 1)
                         "000000000000f03f",   // 1.0
                         "0300000001000000"    // key (1, 3)
                         "0000000000001840",   // 6.0
                         "0400000002000000"    // key (2, 4)
                         "0000000000002340"}));  // 9.5
}

TEST(FileFormatGolden, WalBytesArePinned) {
  const std::string path = test::FreshDir("golden_wal") + "/wal.qse";
  {
    StatusOr<std::unique_ptr<persist::WalWriter>> writer =
        persist::WalWriter::Open(path, persist::FsyncPolicy::kOff, 0, 0,
                                 /*base_seq=*/41, /*next_seq=*/42);
    ASSERT_TRUE(writer.ok()) << writer.status();
  }
  EXPECT_EQ(Hex(ReadFile(path)),
            "5153454c"          // magic "QSEL"
            "0100"              // version 1
            "0000"              // reserved
            "2900000000000000"  // base_seq 41
  );

  persist::WalRecord insert;
  insert.op = persist::WalOp::kInsert;
  insert.seq = 42;
  insert.db_id = 7;
  insert.row = {0.5, -2.0};
  EXPECT_EQ(Hex(persist::EncodeWalRecord(insert)),
            "51534552"          // magic "QSER"
            "2c000000"          // payload: 44 bytes
            "4566a1f9"          // crc32 of the payload
            "0100"              // version 1
            "0100"              // op: insert
            "2a00000000000000"  // seq 42
            "0700000000000000"  // db_id 7
            "0200000000000000"  // row: 2 doubles
            "000000000000e03f"  // 0.5
            "00000000000000c0"  // -2.0
  );

  persist::WalRecord remove;
  remove.op = persist::WalOp::kRemove;
  remove.seq = 43;
  remove.db_id = 7;
  EXPECT_EQ(Hex(persist::EncodeWalRecord(remove)),
            "51534552"          // magic "QSER"
            "14000000"          // payload: 20 bytes
            "91924728"          // crc32 of the payload
            "0100"              // version 1
            "0200"              // op: remove
            "2b00000000000000"  // seq 43
            "0700000000000000"  // db_id 7
  );
}

TEST(FileFormatGolden, SnapshotBytesArePinned) {
  EmbeddedDatabase full(2), empty(2);
  full.Append(Vector{0.5, -1.0}, 5);
  full.Append(Vector{2.0, 0.25}, 9);
  EmbeddedDatabase::Snapshot pf = full.snapshot();
  EmbeddedDatabase::Snapshot pe = empty.snapshot();
  EXPECT_EQ(Hex(persist::EncodeSnapshot(12, "M", {pf.view(), pe.view()})),
            "51534553"          // magic "QSES"
            "0200"              // version 2
            "0000"              // reserved
            "0c00000000000000"  // cut_seq 12
            "0100000000000000"  // model_blob: 1 byte
            "4d"                // "M"
            "0200000000000000"  // 2 dbs
            "0200000000000000"  // db 0: dims 2
            "0200000000000000"  // rows 2
            "0400000000000000"  // data: 4 doubles
            "000000000000e03f"  // 0.5
            "000000000000f0bf"  // -1.0
            "0000000000000040"  // 2.0
            "000000000000d03f"  // 0.25
            "0200000000000000"  // ids: 2
            "0500000000000000"  // 5
            "0900000000000000"  // 9
            "0200000000000000"  // db 1: dims 2
            "0000000000000000"  // rows 0
            "0000000000000000"  // data: 0 doubles
            "0000000000000000"  // ids: 0
            "cf32124c"          // crc32 of everything before it
  );
}

/// Loads the file at a path; the Status is all LoaderFuzz looks at.
using LoadFn = std::function<Status(const std::string& path)>;

/// Every truncation of `clean` fails kDataLoss, and so does every value
/// in `count_offsets`' u64 fields that the bytes after it cannot back.
/// Values off by one from the true count fail too, with any code: the
/// decode then misreads a field or ends short of the file.
void ExpectCorruptionsFail(const std::string& dir, const std::string& clean,
                           const std::vector<size_t>& count_offsets,
                           const LoadFn& load) {
  const std::string path = dir + "/corrupt.bin";
  WriteFile(path, clean);
  ASSERT_TRUE(load(path).ok()) << "the clean file must load";
  for (size_t cut = 0; cut < clean.size(); ++cut) {
    WriteFile(path, clean.substr(0, cut));
    const Status status = load(path);
    EXPECT_EQ(StatusCode::kDataLoss, status.code())
        << "truncated to " << cut << ": " << status;
  }
  for (size_t offset : count_offsets) {
    uint64_t truth = 0;
    std::memcpy(&truth, clean.data() + offset, sizeof(truth));
    for (uint64_t lie : {truth + 1, truth - 1, uint64_t{1} << 24,
                         (uint64_t{1} << 33) - 1, uint64_t{1} << 60,
                         ~uint64_t{0}}) {
      if (lie == truth) continue;
      std::string corrupt = clean;
      std::memcpy(&corrupt[offset], &lie, sizeof(lie));
      WriteFile(path, corrupt);
      const Status status = load(path);
      const std::string what = "count at byte " + std::to_string(offset) +
                               " set to " + std::to_string(lie);
      EXPECT_FALSE(status.ok()) << what;
      if (lie > clean.size()) {
        EXPECT_EQ(StatusCode::kDataLoss, status.code())
            << what << ": " << status;
      }
    }
  }
}

TEST(LoaderFuzz, FastMapModelCorruptionsFail) {
  const std::string dir = test::FreshDir("loader_fuzz_fastmap");
  const FastMapModel model = SmallFastMap();
  ASSERT_TRUE(model.Save(dir + "/model.bin").ok());
  // The level count, then each level's two coordinate counts after its
  // pivots and distance.
  std::vector<size_t> counts = {4};
  size_t offset = 12;
  for (const FastMapModel::Level& level : model.levels()) {
    offset += 16;
    counts.push_back(offset);
    offset += 8 + 8 * level.coords_a.size();
    counts.push_back(offset);
    offset += 8 + 8 * level.coords_b.size();
  }
  ExpectCorruptionsFail(dir, ReadFile(dir + "/model.bin"), counts,
                        [](const std::string& path) {
                          return FastMapModel::Load(path).status();
                        });
}

TEST(LoaderFuzz, QuerySensitiveModelCorruptionsFail) {
  const std::string dir = test::FreshDir("loader_fuzz_seqs");
  ASSERT_TRUE(SmallSeQs().Save(dir + "/model.bin").ok());
  // The round count follows the magic and the query-sensitive flag.
  ExpectCorruptionsFail(dir, ReadFile(dir + "/model.bin"), {8},
                        [](const std::string& path) {
                          return QuerySensitiveEmbedding::Load(path).status();
                        });
}

TEST(LoaderFuzz, DistanceCacheCorruptionsFail) {
  const std::string dir = test::FreshDir("loader_fuzz_cache");
  ASSERT_TRUE(SmallCache()->Save(dir + "/cache.bin").ok());
  const std::string clean = ReadFile(dir + "/cache.bin");
  const LoadFn load = [](const std::string& path) {
    CachingOracle cache(&kLine, "fp");
    Status status = cache.Load(path);
    // A refused file leaves no pairs behind.
    if (!status.ok()) {
      EXPECT_EQ(0u, cache.cached_pairs()) << status;
    }
    return status;
  };
  // The fingerprint's length and the pair count.
  ExpectCorruptionsFail(dir, clean, {4, 22}, load);

  // The universe size between them is a value, not a length: a wrong one
  // names a different dataset.
  std::string other_universe = clean;
  other_universe[14] = 6;
  WriteFile(dir + "/corrupt.bin", other_universe);
  EXPECT_EQ(StatusCode::kFailedPrecondition,
            load(dir + "/corrupt.bin").code());
}

}  // namespace
}  // namespace qse
