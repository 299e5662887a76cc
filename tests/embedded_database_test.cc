#include "src/retrieval/embedded_database.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "src/retrieval/filter_precision.h"
#include "src/util/random.h"

namespace qse {
namespace {

TEST(EmbeddedDatabaseTest, StartsEmpty) {
  EmbeddedDatabase db(4);
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.dims(), 4u);
  EXPECT_TRUE(db.empty());
}

TEST(EmbeddedDatabaseTest, AppendStoresRowsContiguously) {
  EmbeddedDatabase db(3);
  EXPECT_EQ(db.Append({1, 2, 3}), 0u);
  EXPECT_EQ(db.Append({4, 5, 6}), 1u);
  EXPECT_EQ(db.size(), 2u);
  // One flat buffer, row-major.
  EXPECT_EQ(db.data(), (Aligned64Vector<double>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(db.row(1)[0], 4.0);
  EXPECT_EQ(db.row(1) - db.row(0), 3);  // Adjacent rows, no gaps.
}

TEST(EmbeddedDatabaseTest, FromRowsRoundTripsThroughRowVector) {
  std::vector<Vector> rows = {{0.5, -1}, {2, 3}, {4, 5}};
  EmbeddedDatabase db = EmbeddedDatabase::FromRows(rows);
  ASSERT_EQ(db.size(), 3u);
  ASSERT_EQ(db.dims(), 2u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(db.RowVector(i), rows[i]);
  }
}

TEST(EmbeddedDatabaseTest, SetRowOverwritesInPlace) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows({{1, 1}, {2, 2}});
  db.SetRow(0, {9, 8});
  EXPECT_EQ(db.RowVector(0), (Vector{9, 8}));
  EXPECT_EQ(db.RowVector(1), (Vector{2, 2}));
}

TEST(EmbeddedDatabaseTest, SwapRemoveMiddleMovesLastRow) {
  EmbeddedDatabase db =
      EmbeddedDatabase::FromRows({{0, 0}, {1, 1}, {2, 2}, {3, 3}});
  size_t moved_from = db.SwapRemove(1);
  EXPECT_EQ(moved_from, 3u);  // Former last row now lives at slot 1.
  EXPECT_EQ(db.size(), 3u);
  EXPECT_EQ(db.RowVector(1), (Vector{3, 3}));
  EXPECT_EQ(db.RowVector(2), (Vector{2, 2}));
}

TEST(EmbeddedDatabaseTest, SwapRemoveLastMovesNothing) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows({{0, 0}, {1, 1}});
  size_t moved_from = db.SwapRemove(1);
  EXPECT_EQ(moved_from, 1u);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.RowVector(0), (Vector{0, 0}));
}

TEST(EmbeddedDatabaseTest, ResizeZeroFillsNewRows) {
  EmbeddedDatabase db(2);
  db.Resize(3);
  EXPECT_EQ(db.size(), 3u);
  EXPECT_EQ(db.RowVector(2), (Vector{0, 0}));
  db.mutable_row(1)[0] = 7;
  EXPECT_EQ(db.RowVector(1), (Vector{7, 0}));
}

TEST(EmbeddedDatabaseTest, AppendBorrowedRowMayAliasOwnBuffer) {
  // Append(const double*) must survive a source pointing into this
  // database's own buffer even when the append forces a reallocation.
  EmbeddedDatabase db(2);
  db.Append({1, 2});
  for (int i = 0; i < 100; ++i) {
    size_t row = db.Append(db.row(db.size() - 1));
    EXPECT_EQ(row, static_cast<size_t>(i) + 1);
  }
  ASSERT_EQ(db.size(), 101u);
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(db.RowVector(i), (Vector{1, 2})) << i;
  }
}

TEST(EmbeddedDatabaseTest, ReserveOnDimensionlessDatabaseIsSafeNoOp) {
  // Regression: Reserve on a dims() == 0 database used to reserve zero
  // bytes and still walk the hugepage-advise path.  It must be a true
  // no-op: no allocation, and the database stays fully usable.
  EmbeddedDatabase db;
  ASSERT_EQ(db.dims(), 0u);
  db.Reserve(1u << 20);
  EXPECT_EQ(db.data().capacity(), 0u);
  EXPECT_TRUE(db.empty());
  // FromRows({}) funnels through the same path (dims 0, Reserve(0)).
  EmbeddedDatabase empty = EmbeddedDatabase::FromRows({});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.dims(), 0u);
}

TEST(EmbeddedDatabaseTest, ReserveGrowsCapacityOnce) {
  EmbeddedDatabase db(3);
  db.Reserve(100);
  size_t cap = db.data().capacity();
  EXPECT_GE(cap, 300u);
  // A smaller (or equal) reservation must not touch the buffer again.
  db.Reserve(50);
  EXPECT_EQ(db.data().capacity(), cap);
  db.Append({1, 2, 3});
  EXPECT_EQ(db.RowVector(0), (Vector{1, 2, 3}));
}

TEST(EmbeddedDatabaseTest, AppendAfterResizeKeepsData) {
  EmbeddedDatabase db(2);
  db.Resize(1);
  db.SetRow(0, {1, 2});
  EXPECT_EQ(db.Append({3, 4}), 1u);
  EXPECT_EQ(db.data(), (Aligned64Vector<double>{1, 2, 3, 4}));
}

// --- Epoch snapshots: what pinned readers observe under mutation --------

TEST(EmbeddedDatabaseTest, SnapshotIsImmuneToAppend) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows({{1, 1}, {2, 2}});
  EmbeddedDatabase::Snapshot snap = db.snapshot();
  // Append enough to force a copy-on-write reallocation.
  for (int i = 0; i < 64; ++i) db.Append({9, 9});
  EXPECT_EQ(snap->size(), 2u);
  EXPECT_EQ(snap->row(0)[0], 1.0);
  EXPECT_EQ(snap->row(1)[1], 2.0);
  EXPECT_EQ(db.size(), 66u);
  // A fresh snapshot sees the appended state.
  EXPECT_EQ(db.snapshot()->size(), 66u);
}

TEST(EmbeddedDatabaseTest, SnapshotIsImmuneToInteriorRemove) {
  EmbeddedDatabase db =
      EmbeddedDatabase::FromRows({{0, 0}, {1, 1}, {2, 2}, {3, 3}});
  EmbeddedDatabase::Snapshot snap = db.snapshot();
  db.SwapRemove(1);  // Interior: swaps {3,3} into slot 1 via CoW.
  // The pinned reader still sees the pre-remove layout, untouched.
  ASSERT_EQ(snap->size(), 4u);
  EXPECT_EQ(snap->row(1)[0], 1.0);
  EXPECT_EQ(snap->row(3)[0], 3.0);
  // The current state has the swapped layout.
  EXPECT_EQ(db.RowVector(1), (Vector{3, 3}));
  EXPECT_EQ(db.size(), 3u);
}

TEST(EmbeddedDatabaseTest, SwapRemoveLastShortCircuitsWithoutCopy) {
  EmbeddedDatabase db =
      EmbeddedDatabase::FromRows({{0, 0}, {1, 1}, {2, 2}});
  const double* before = db.snapshot()->data();
  size_t moved_from = db.SwapRemove(2);
  EXPECT_EQ(moved_from, 2u);  // Nothing moved.
  // Same buffer republished with a smaller count: the O(1) fast path,
  // not a copy-on-write (an interior remove would swap buffers).
  EXPECT_EQ(db.snapshot()->data(), before);
  EXPECT_EQ(db.size(), 2u);
  size_t interior = db.SwapRemove(0);
  EXPECT_EQ(interior, 1u);
  EXPECT_NE(db.snapshot()->data(), before);
  EXPECT_EQ(db.RowVector(0), (Vector{1, 1}));
}

TEST(EmbeddedDatabaseTest, VacatedLastSlotIsNotRewrittenUnderAPin) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows({{0, 0}, {1, 1}});
  db.Reserve(8);  // Plenty of capacity: only the pin forces the copy.
  EmbeddedDatabase::Snapshot snap = db.snapshot();
  ASSERT_EQ(snap->size(), 2u);
  db.SwapRemove(1);      // O(1) shrink; slot 1 still pinned by `snap`.
  db.Append({7, 7}, 7);  // Would land in slot 1 — must copy instead.
  // The pinned reader's row 1 is intact...
  EXPECT_EQ(snap->row(1)[0], 1.0);
  EXPECT_EQ(snap->row(1)[1], 1.0);
  // ...and the new state has the fresh row.
  EXPECT_EQ(db.RowVector(1), (Vector{7, 7}));
  EXPECT_EQ(db.id_of(1), 7u);
}

TEST(EmbeddedDatabaseTest, IdColumnFollowsMutations) {
  EmbeddedDatabase db(1);
  db.Append({0.5}, 10);
  db.Append({1.5}, 11);
  db.Append({2.5}, 12);
  EXPECT_EQ(db.id_of(0), 10u);
  EXPECT_EQ(db.id_of(2), 12u);
  db.SwapRemove(0);  // id 12's row swaps into slot 0.
  EXPECT_EQ(db.id_of(0), 12u);
  EXPECT_EQ(db.id_of(1), 11u);
  EXPECT_EQ(db.ids(), (std::vector<size_t>{12, 11}));
  EmbeddedDatabase::Snapshot snap = db.snapshot();
  EXPECT_EQ(snap->id_of(0), 12u);
  db.AssignIds({20, 21});
  EXPECT_EQ(db.id_of(0), 20u);
}

TEST(EmbeddedDatabaseTest, CopyIsDeepAndIndependent) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows({{1, 2}, {3, 4}});
  db.AssignIds({5, 6});
  EmbeddedDatabase copy = db;
  db.SwapRemove(0);
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.RowVector(0), (Vector{1, 2}));
  EXPECT_EQ(copy.id_of(0), 5u);
  EXPECT_EQ(copy.id_of(1), 6u);
}

// --- 64-byte alignment and the int8 matrix -----------------------------

bool Aligned64(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % 64 == 0;
}

/// Every invariant the prescreen's margin leans on: the view carries
/// the int8 matrix, each int8 row round-trips within half a
/// quantization step, and every stored value fits its dimension's scale
/// (the re-quantization trigger keeps this true).
void ExpectShadowsConsistent(const EmbeddedDatabase::View& view) {
  ASSERT_TRUE(view.has_i8());
  for (size_t i = 0; i < view.size(); ++i) {
    const double* row = view.row(i);
    for (size_t j = 0; j < view.dims(); ++j) {
      float s = view.i8_scales()[j];
      EXPECT_TRUE(FitsInt8(row[j], s))
          << "row " << i << " dim " << j << " value " << row[j] << " scale "
          << s;
      EXPECT_LE(
          std::fabs(row[j] - static_cast<double>(s) * view.row_i8(i)[j]),
          0.5 * static_cast<double>(s) + 1e-12)
          << "row " << i << " dim " << j;
    }
  }
}

TEST(EmbeddedDatabaseTest, RowStorageStays64ByteAlignedAcrossGrowth) {
  // dims = 7: rows are 56 bytes, so alignment of row 1+ would break if
  // anyone "fixed" alignment by padding strides instead of the base —
  // the contract is an aligned BASE pointer with dense rows.
  EmbeddedDatabase db(7);
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    Vector row(7);
    for (double& v : row) v = rng.Uniform(-1.0, 1.0);
    db.Append(row);
    // Append-driven growth reallocates through AlignedAllocator every
    // time capacity doubles; the base must stay 64-byte aligned at every
    // size, not just the first allocation.
    EXPECT_TRUE(Aligned64(db.data().data())) << "after append " << i;
    EmbeddedDatabase::Snapshot snap = db.snapshot();
    EXPECT_TRUE(Aligned64(snap->data_i8())) << "after append " << i;
  }
  ExpectShadowsConsistent(db.snapshot().view());
}

TEST(EmbeddedDatabaseTest, MutableRowLeavesInt8MatrixStale) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows({{1, 2}, {3, 4}});
  EmbeddedDatabase::Snapshot before = db.snapshot();
  ASSERT_TRUE(before->has_i8());
  db.mutable_row(1)[0] = 50.0;
  // The raw write cannot be quantized: later views carry no int8 matrix
  // (scans run plain), while a view pinned before keeps its own.
  EXPECT_FALSE(db.snapshot()->has_i8());
  EXPECT_TRUE(before->has_i8());
  // Mutations do not maintain a stale matrix, nor revive it.
  db.Append({5, 6});
  db.SwapRemove(0);
  EXPECT_FALSE(db.snapshot()->has_i8());
  db.RebuildPrescreenMatrix();
  ExpectShadowsConsistent(db.snapshot().view());
  db.Append({500, 6});  // Maintained again, re-quantization included.
  ExpectShadowsConsistent(db.snapshot().view());
}

TEST(EmbeddedDatabaseTest, RebuildPrescreenMatrixFitsScalesToTheRows) {
  Rng rng(11);
  EmbeddedDatabase db(5);
  db.Resize(17);
  std::vector<double> maxabs(5, 0.0);
  for (size_t i = 0; i < db.size(); ++i) {
    for (size_t j = 0; j < 5; ++j) {
      double v = rng.Uniform(-3.0, 3.0);
      db.mutable_row(i)[j] = v;
      maxabs[j] = std::max(maxabs[j], std::fabs(v));
    }
  }
  ASSERT_FALSE(db.snapshot()->has_i8());
  db.RebuildPrescreenMatrix();
  EmbeddedDatabase::Snapshot snap = db.snapshot();
  ExpectShadowsConsistent(snap.view());
  // No headroom: each dimension's largest value lands on +-127.
  for (size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(snap->i8_scales()[j], static_cast<float>(maxabs[j] / 127.0))
        << "dim " << j;
  }
}

TEST(EmbeddedDatabaseTest, AppendMaintainsShadowsThroughGrowth) {
  EmbeddedDatabase db(3);
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    Vector row(3);
    for (double& v : row) v = rng.Uniform(-1.0, 1.0);
    db.Append(row);
  }
  ASSERT_EQ(db.size(), 100u);
  ExpectShadowsConsistent(db.snapshot().view());
}

TEST(EmbeddedDatabaseTest, AppendOutOfRangeRequantizesWholeMatrix) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows(
      {{0.5, -0.25}, {0.125, 0.75}, {-0.5, 0.5}});
  float scale_before;
  {
    EmbeddedDatabase::Snapshot snap = db.snapshot();
    scale_before = snap->i8_scales()[0];
    ASSERT_GT(scale_before, 0.0f);
    ASSERT_FALSE(FitsInt8(100.0, scale_before));
  }
  // 100.0 cannot quantize under the old dimension-0 scale: the append
  // must re-quantize every row under grown scales, not clamp the new
  // one into the envelope-breaking range.
  db.Append({100.0, 0.5});
  EmbeddedDatabase::Snapshot snap = db.snapshot();
  EXPECT_GT(snap->i8_scales()[0], scale_before);
  ASSERT_EQ(snap->size(), 4u);
  ExpectShadowsConsistent(snap.view());
}

TEST(EmbeddedDatabaseTest, SwapRemoveMaintainsShadows) {
  Rng rng(17);
  std::vector<Vector> rows(8, Vector(4));
  for (Vector& r : rows) {
    for (double& v : r) v = rng.Uniform(-2.0, 2.0);
  }
  EmbeddedDatabase db = EmbeddedDatabase::FromRows(rows);
  db.SwapRemove(2);  // Interior: copy-on-write, int8 rows follow the swap.
  ASSERT_EQ(db.size(), 7u);
  ExpectShadowsConsistent(db.snapshot().view());
  db.SwapRemove(db.size() - 1);  // Last row: O(1) shrink, int8 shrinks.
  ASSERT_EQ(db.size(), 6u);
  ExpectShadowsConsistent(db.snapshot().view());
}

TEST(EmbeddedDatabaseTest, SetRowAndResizeMaintainShadows) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows({{0.5, 0.5}, {0.25, -0.5}});
  db.SetRow(0, {0.125, 0.0625});
  ExpectShadowsConsistent(db.snapshot().view());
  db.SetRow(1, {50.0, 0.5});  // Out of range: requantization path.
  ExpectShadowsConsistent(db.snapshot().view());
  db.Resize(5);  // Zero-filled rows must land in the int8 matrix too.
  ASSERT_EQ(db.size(), 5u);
  ExpectShadowsConsistent(db.snapshot().view());
}

TEST(EmbeddedDatabaseTest, PinnedShadowsAreImmuneToRequantization) {
  EmbeddedDatabase db = EmbeddedDatabase::FromRows({{0.5, -0.5}, {0.25, 0.5}});
  EmbeddedDatabase::Snapshot snap = db.snapshot();
  float pinned_scale = snap->i8_scales()[0];
  int8_t pinned_q = snap->row_i8(0)[0];
  // Forces a copy-on-write re-quantization with grown scales.
  db.Append({100.0, 0.5});
  // The pinned version's scales and codes are untouched — a reader
  // halfway through a scan keeps consistent (scale, code) pairs.
  EXPECT_EQ(snap->i8_scales()[0], pinned_scale);
  EXPECT_EQ(snap->row_i8(0)[0], pinned_q);
  EXPECT_EQ(snap->size(), 2u);
  ExpectShadowsConsistent(snap.view());
  EXPECT_GT(db.snapshot()->i8_scales()[0], pinned_scale);
}

TEST(EmbeddedDatabaseTest, CopyCarriesShadowsBitForBit) {
  Rng rng(23);
  std::vector<Vector> rows(5, Vector(3));
  for (Vector& r : rows) {
    for (double& v : r) v = rng.Uniform(-1.0, 1.0);
  }
  EmbeddedDatabase db = EmbeddedDatabase::FromRows(rows);
  EmbeddedDatabase copy = db;
  EmbeddedDatabase::Snapshot a = db.snapshot();
  EmbeddedDatabase::Snapshot b = copy.snapshot();
  ASSERT_EQ(a->size(), b->size());
  for (size_t j = 0; j < a->dims(); ++j) {
    EXPECT_EQ(a->i8_scales()[j], b->i8_scales()[j]);
  }
  for (size_t i = 0; i < a->size(); ++i) {
    for (size_t j = 0; j < a->dims(); ++j) {
      EXPECT_EQ(a->row_i8(i)[j], b->row_i8(i)[j]);
    }
  }
}

TEST(AlignedAllocatorTest, SixtyFourByteAlignedBelowAndAtTheMappingThreshold) {
  // Below kAlignedMmapMinBytes a buffer comes from aligned operator new,
  // from it on from its own mapping; every size must start on a 64-byte
  // boundary, be fully writable, and free cleanly (the ASan+UBSan CI leg
  // checks the bounds).
  const size_t threshold = kAlignedMmapMinBytes;
  for (size_t bytes : {size_t{1}, size_t{64}, threshold - 64, threshold - 1,
                       threshold, threshold + 1, 3 * threshold + 7}) {
    Aligned64Vector<int8_t> bytes_vec(bytes, 1);
    EXPECT_TRUE(Aligned64(bytes_vec.data())) << bytes << " bytes";
    for (int8_t& b : bytes_vec) b = static_cast<int8_t>(b + 6);
    EXPECT_EQ(std::count(bytes_vec.begin(), bytes_vec.end(), 7),
              static_cast<std::ptrdiff_t>(bytes));
    const size_t doubles = (bytes + sizeof(double) - 1) / sizeof(double);
    Aligned64Vector<double> doubles_vec(doubles, 0.5);
    EXPECT_TRUE(Aligned64(doubles_vec.data())) << doubles << " doubles";
    doubles_vec.back() = 1.5;
    // Growth reallocates across the threshold and copies the contents.
    doubles_vec.resize(2 * doubles + 1, 2.5);
    EXPECT_TRUE(Aligned64(doubles_vec.data()));
    EXPECT_EQ(doubles_vec[doubles - 1], 1.5);
    EXPECT_EQ(doubles_vec.back(), 2.5);
  }
}

}  // namespace
}  // namespace qse
