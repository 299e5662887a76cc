// Property tests for snapshot encode/decode/install at the edges of the
// state space: dimensionless and empty databases, single-row databases
// left over from removes, a fresh and a stale int8 matrix, and the
// requant-on-overflow state whose int8 scales are mutation-history-
// dependent.  Every roundtrip asserts memcmp identity of the rows and
// ids — a snapshot is a bit-exact image of them, not an approximation —
// and that the restored database rebuilt its int8 matrix.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/persist/snapshot.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/filter_precision.h"
#include "src/retrieval/filter_scorer.h"
#include "src/retrieval/retrieval_engine.h"
#include "tests/line_universe.h"
#include "tests/test_util.h"

namespace qse {
namespace persist {
namespace {

using test::DxOfObject;
using test::ExpectDbsIdentical;
using test::kLineDims;
using test::LineEmbedder;

/// Encode -> decode -> install into `out`, asserting the decoded header
/// fields survived too.  `out` must have matching dims (or the image
/// must be empty).
void RoundTripInto(const EmbeddedDatabase& source, EmbeddedDatabase* out,
                   const std::string& what) {
  SCOPED_TRACE(what);
  EmbeddedDatabase::Snapshot pin = source.snapshot();
  const std::string bytes = EncodeSnapshot(77, "blob", {pin.view()});
  StatusOr<SnapshotContents> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(77u, decoded->cut_seq);
  EXPECT_EQ("blob", decoded->model_blob);
  ASSERT_EQ(1u, decoded->dbs.size());
  Status installed = InstallSnapshotDb(decoded->dbs[0], out);
  ASSERT_TRUE(installed.ok()) << installed;
  EXPECT_TRUE(out->snapshot()->has_i8());
  EmbeddedDatabase::Snapshot restored = out->snapshot();
  for (size_t i = 0; i < restored->size(); ++i) {
    for (size_t j = 0; j < restored->dims(); ++j) {
      EXPECT_TRUE(FitsInt8(restored->row(i)[j], restored->i8_scales()[j]));
    }
  }
  const EmbeddedDatabase::View source_view = pin.view();
  EXPECT_EQ(source_view.size(), restored->size());
  EXPECT_TRUE(test::SameBytes(source_view.data(), restored->data(),
                              source_view.size() * source_view.dims() *
                                  sizeof(double)));
  EXPECT_TRUE(test::SameBytes(source_view.ids(), restored->ids(),
                              source_view.size() * sizeof(size_t)));
}

TEST(SnapshotRoundTrip, DimensionlessEmptyDatabase) {
  EmbeddedDatabase source;  // dims() == 0.
  EmbeddedDatabase restored;
  RoundTripInto(source, &restored, "dims == 0, no rows");
}

TEST(SnapshotRoundTrip, EmptyDatabaseWithDims) {
  EmbeddedDatabase source(kLineDims);
  EmbeddedDatabase restored(kLineDims);
  RoundTripInto(source, &restored, "empty, dims set");
}

TEST(SnapshotRoundTrip, EmptyShadowlessImageClearsPopulatedDatabase) {
  EmbeddedDatabase source(kLineDims);
  EmbeddedDatabase restored(kLineDims);
  restored.Append(Vector(kLineDims, 0.5), 9);
  restored.Append(Vector(kLineDims, 0.25), 10);
  RoundTripInto(source, &restored, "empty image over populated db");
  EXPECT_EQ(0u, restored.size());
}

TEST(SnapshotRoundTrip, SingleRowAfterRemoves) {
  // Drive through the engine so removes exercise the swap path the
  // id column depends on; what must survive is the survivor's row AND
  // its database id.
  LineEmbedder embedder;
  L2Scorer scorer;
  EmbeddedDatabase source(kLineDims);
  RetrievalEngine engine(&embedder, &scorer, &source, {});
  for (size_t id = 0; id < 5; ++id) {
    ASSERT_TRUE(engine.Insert(id, DxOfObject(id)).ok());
  }
  for (size_t id = 0; id < 4; ++id) {
    ASSERT_TRUE(engine.Remove(id).ok());
  }
  ASSERT_EQ(1u, source.size());
  EmbeddedDatabase restored(kLineDims);
  RoundTripInto(source, &restored, "n == 1 after removes");
  EXPECT_EQ(4u, restored.ids()[0]);
}

TEST(SnapshotRoundTrip, EveryShadowCombination) {
  // Version 1 stored a mask of float32 / int8 shadows; now the only
  // shadow is the int8 matrix, which is never stored.  A database whose
  // matrix is fresh and one whose matrix mutable_row() left stale encode
  // to the same bytes, and both restore with a rebuilt matrix.
  std::string images[2];
  for (int stale = 0; stale < 2; ++stale) {
    EmbeddedDatabase source(kLineDims);
    for (size_t id = 0; id < 10; ++id) {
      source.Append(Vector(kLineDims, test::XOf(id)), id);
    }
    if (stale) source.mutable_row(0)[0] = test::XOf(0);
    ASSERT_EQ(stale == 0, source.snapshot()->has_i8());
    EmbeddedDatabase::Snapshot pin = source.snapshot();
    images[stale] = EncodeSnapshot(3, "", {pin.view()});
    EmbeddedDatabase restored(kLineDims);
    RoundTripInto(source, &restored, stale ? "stale" : "fresh");
  }
  EXPECT_EQ(images[0], images[1]);
  // Rows and ids only: the header, then dims, rows and two vectors.
  EXPECT_EQ(images[0].size(), 4 + 2 + 2 + 8 + 8 + 8 + 8 + 8 +
                                  (8 + 10 * kLineDims * sizeof(double)) +
                                  (8 + 10 * sizeof(uint64_t)) + 4);
}

TEST(SnapshotRoundTrip, RequantOnOverflowScalesRestoredVerbatim) {
  // An appended outlier forces the 1.25x-headroom re-quantization.  The
  // snapshot does not carry the scales, yet restore reproduces them and
  // the int8 rows bit for bit: it rebuilds with the same headroom from
  // the same rows.  A construction-time rebuild (no headroom) of those
  // rows gets different scales — the history the scales depend on.
  constexpr size_t kDims = 4;
  EmbeddedDatabase source(kDims);
  for (size_t id = 0; id < 6; ++id) {
    source.Append(Vector(kDims, 0.25 + 0.05 * static_cast<double>(id)), id);
  }
  source.RebuildPrescreenMatrix();
  source.Append(Vector(kDims, 100.0), 99);  // Overflow: requant with headroom.
  ASSERT_EQ(7u, source.size());

  EmbeddedDatabase restored(kDims);
  RoundTripInto(source, &restored, "post-requant state");
  EmbeddedDatabase::Snapshot a = source.snapshot();
  EmbeddedDatabase::Snapshot b = restored.snapshot();
  EXPECT_EQ(0, std::memcmp(a->i8_scales(), b->i8_scales(),
                           kDims * sizeof(float)));
  for (size_t i = 0; i < 7; ++i) {
    for (size_t j = 0; j < kDims; ++j) {
      const size_t at = EmbeddedDatabase::I8Offset(i, j, kDims);
      EXPECT_EQ(a->data_i8()[at], b->data_i8()[at])
          << "row " << i << " dim " << j;
    }
  }

  EmbeddedDatabase rebuilt = source;
  rebuilt.RebuildPrescreenMatrix();
  EXPECT_NE(0, std::memcmp(a->i8_scales(), rebuilt.snapshot()->i8_scales(),
                           kDims * sizeof(float)));
}

TEST(SnapshotRoundTrip, MultiDbImagePreservesOrder) {
  EmbeddedDatabase a(kLineDims), b(kLineDims);
  for (size_t id = 0; id < 4; ++id) {
    a.Append(Vector(kLineDims, test::XOf(id)), id);
  }
  b.Append(Vector(kLineDims, test::XOf(100)), 100);
  EmbeddedDatabase::Snapshot pa = a.snapshot();
  EmbeddedDatabase::Snapshot pb = b.snapshot();
  const std::string bytes =
      EncodeSnapshot(5, "", {pa.view(), pb.view()});
  StatusOr<SnapshotContents> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(2u, decoded->dbs.size());
  EmbeddedDatabase ra(kLineDims), rb(kLineDims);
  ASSERT_TRUE(InstallSnapshotDb(decoded->dbs[0], &ra).ok());
  ASSERT_TRUE(InstallSnapshotDb(decoded->dbs[1], &rb).ok());
  ExpectDbsIdentical(a, ra, "db 0");
  ExpectDbsIdentical(b, rb, "db 1");
}

TEST(SnapshotRoundTrip, InstallRejectsDimsMismatchOnNonEmptyImage) {
  EmbeddedDatabase source(kLineDims);
  source.Append(Vector(kLineDims, 0.5), 1);
  EmbeddedDatabase::Snapshot pin = source.snapshot();
  const std::string bytes = EncodeSnapshot(1, "", {pin.view()});
  StatusOr<SnapshotContents> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok());
  EmbeddedDatabase wrong_dims(kLineDims + 1);
  Status installed = InstallSnapshotDb(decoded->dbs[0], &wrong_dims);
  ASSERT_FALSE(installed.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, installed.code());
}

TEST(SnapshotRoundTrip, FileRoundTripAndMissingFile) {
  const std::string dir = ::testing::TempDir() + "/snapshot_roundtrip_file";
  ::mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/snapshot.qse";
  std::remove(path.c_str());

  StatusOr<SnapshotContents> missing = ReadSnapshotFile(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(StatusCode::kNotFound, missing.status().code());

  EmbeddedDatabase source(kLineDims);
  for (size_t id = 0; id < 12; ++id) {
    source.Append(Vector(kLineDims, test::XOf(id)), id);
  }
  EmbeddedDatabase::Snapshot pin = source.snapshot();
  const std::string bytes = EncodeSnapshot(12, "model", {pin.view()});
  ASSERT_TRUE(WriteSnapshotFile(path, bytes).ok());

  StatusOr<SnapshotContents> read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(12u, read->cut_seq);
  EXPECT_EQ("model", read->model_blob);
  EmbeddedDatabase restored(kLineDims);
  ASSERT_TRUE(InstallSnapshotDb(read->dbs[0], &restored).ok());
  ExpectDbsIdentical(source, restored, "file roundtrip");
}

}  // namespace
}  // namespace persist
}  // namespace qse
