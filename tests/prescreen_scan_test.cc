// Differential suite for the int8 prescreen of the exact query-sensitive
// filter scan.  The prescreened scan (WeightedL1TopP with prescreen on)
// must return exactly what the plain float64 scan returns over the same
// rows — ids and score bits — on every SIMD tier, for signed and
// non-negative weights, at p = 1 through p = n, with ties at the p-th
// value, with ±inf / NaN in rows, query or weights, and while another
// thread appends rows, around the first pass's block and bound.  The
// PrescreenKernelTest cases pin the integer block kernel to an int64
// reference on every tier.  The PrescreenEngineTest cases check that
// every RetrievalEngine shard builds and keeps the int8 matrix, however
// it was filled, and how the prescreen shows in the engine's metric and
// trace span, and in composed and remote scans.  The PrescreenSelectTest
// cases check the first pass's selection and bound against
// std::nth_element.
#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#if defined(__has_include) && __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#include "src/net/remote_backend.h"
#include "src/net/retrieval_server.h"
#include "src/obs/metric_registry.h"
#include "src/obs/trace.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/filter_scorer.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/util/random.h"
#include "tests/simd_tiers.h"
#include "tests/test_util.h"

namespace qse {
namespace {

using simd::RunnableTiers;
using simd::Tier;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

const size_t kDims[] = {1, 7, 16, 17, 55, 64, 65};

/// `n` rows of uniform values in [-1, 1), each repeated `copies` times
/// in a row (copies > 1 makes exact ties), with an int8 matrix.
EmbeddedDatabase MakeDb(size_t n, size_t d, uint64_t seed,
                        size_t copies = 1) {
  Rng rng(seed);
  EmbeddedDatabase db(d);
  db.Reserve(n * copies);
  Vector row(d);
  for (size_t i = 0; i < n; ++i) {
    for (double& v : row) v = rng.Uniform(-1.0, 1.0);
    for (size_t c = 0; c < copies; ++c) db.Append(row);
  }
  db.RebuildPrescreenMatrix();
  return db;
}

/// Query weights: uniform in [0, 1), or for `signed_weights` in
/// [-0.5, 1) with weight 0 forced negative.
Vector MakeWeights(size_t d, bool signed_weights, uint64_t seed) {
  Rng rng(seed);
  Vector w(d);
  for (double& v : w) v = rng.Uniform(signed_weights ? -0.5 : 0.0, 1.0);
  if (signed_weights) w[0] = -std::fabs(w[0]) - 0.1;
  return w;
}

/// Row `i` of `db` with a little noise: a query with near neighbours.
Vector QueryNear(const EmbeddedDatabase& db, size_t i, uint64_t seed) {
  Rng rng(seed);
  Vector q = db.RowVector(i);
  for (double& v : q) v += rng.Uniform(-0.05, 0.05);
  return q;
}

struct ScanResult {
  std::vector<ScoredIndex> top;
  FilterScanStats stats;
};

ScanResult Scan(const Vector& q, const Vector& w,
                const EmbeddedDatabase::View& view, size_t p, bool prescreen,
                const simd::KernelTable* k) {
  ScanResult r;
  r.top = WeightedL1TopP(q, w, view, p, prescreen, k, &r.stats);
  return r;
}

/// Ids, score bits (NaN included) and the shared row counters match.
void ExpectSameScan(const ScanResult& plain, const ScanResult& pre,
                    const std::string& where) {
  ASSERT_EQ(plain.top.size(), pre.top.size()) << where;
  for (size_t i = 0; i < plain.top.size(); ++i) {
    EXPECT_EQ(plain.top[i].index, pre.top[i].index) << where << " rank " << i;
    EXPECT_EQ(std::memcmp(&plain.top[i].score, &pre.top[i].score,
                          sizeof(double)),
              0)
        << where << " rank " << i << ": " << plain.top[i].score << " vs "
        << pre.top[i].score;
  }
  // The two passes offer rows in another order than the plain scan, so
  // rows_pruned (rows_visited - heap accepts) differs; both scans accept
  // at least their min(p, n) results.
  EXPECT_EQ(plain.stats.rows_visited, pre.stats.rows_visited) << where;
  EXPECT_EQ(plain.stats.rows_prescreened, 0u) << where;
  EXPECT_LE(pre.stats.rows_prescreened, pre.stats.rows_pruned) << where;
  for (const ScanResult* scan : {&plain, &pre}) {
    EXPECT_GE(scan->stats.rows_visited - scan->stats.rows_pruned,
              plain.top.size())
        << where;
  }
}

std::string Where(const Tier& tier, size_t d, bool signed_weights, size_t p) {
  return std::string(simd::SimdLevelName(tier.level)) +
         " d=" + std::to_string(d) +
         (signed_weights ? " signed" : " nonnegative") +
         " p=" + std::to_string(p);
}

/// `n` row-major rows of d bytes in the int8 matrix's blocked layout
/// (EmbeddedDatabase::I8Offset), padding dims and slots past n zero.
std::vector<int8_t> Blocked(const std::vector<int8_t>& rows, size_t n,
                            size_t d) {
  std::vector<int8_t> out(EmbeddedDatabase::I8Bytes(n, d), 0);
  for (size_t r = 0; r < n; ++r) {
    for (size_t j = 0; j < d; ++j) {
      out[EmbeddedDatabase::I8Offset(r, j, d)] = rows[r * d + j];
    }
  }
  return out;
}

/// What a tier's prescreen entry emits under `bound`: (row, S) pairs.
struct Emitted {
  std::vector<uint32_t> rows;
  std::vector<int32_t> scores;
};

Emitted Emit(const simd::KernelTable* k, const int8_t* q,
             const int8_t* blocks, size_t n, const int16_t* c, size_t d,
             int32_t bound) {
  Emitted out;
  out.rows.assign(n, 0);
  out.scores.assign(n, 0);
  const size_t got = k->prescreen_i8(q, blocks, n, n, c, d, bound,
                                     out.rows.data(), out.scores.data());
  out.rows.resize(got);
  out.scores.resize(got);
  return out;
}

/// Every row's S through a tier's entry (bound INT32_MAX emits all rows,
/// in row order), from row-major rows.
std::vector<int32_t> AllScores(const simd::KernelTable* k,
                               const std::vector<int8_t>& q,
                               const std::vector<int8_t>& rows, size_t n,
                               const std::vector<int16_t>& c) {
  const size_t d = q.size();
  const std::vector<int8_t> blocks = Blocked(rows, n, d);
  Emitted all = Emit(k, q.data(), blocks.data(), n, c.data(), d, INT32_MAX);
  EXPECT_EQ(all.rows.size(), n);
  for (size_t r = 0; r < all.rows.size(); ++r) EXPECT_EQ(all.rows[r], r);
  return all.scores;
}

TEST(PrescreenScanTest, BitIdenticalToPlainScanOnEveryTier) {
  constexpr size_t kN = 1500;
  for (const Tier& tier : RunnableTiers()) {
    for (size_t d : kDims) {
      EmbeddedDatabase db = MakeDb(kN, d, 100 + d);
      const EmbeddedDatabase::View view = db;
      for (bool signed_weights : {false, true}) {
        Vector w = MakeWeights(d, signed_weights, 200 + d);
        for (size_t p : {size_t{1}, size_t{10}, kN}) {
          for (size_t probe : {size_t{3}, size_t{700}}) {
            Vector q = QueryNear(db, probe, 300 + d + probe);
            std::string where = Where(tier, d, signed_weights, p);
            ScanResult plain = Scan(q, w, view, p, false, tier.table);
            ScanResult pre = Scan(q, w, view, p, true, tier.table);
            ExpectSameScan(plain, pre, where);
            if (p == kN) {
              // The threshold stays +inf until the last row: nothing to
              // dismiss.
              EXPECT_EQ(pre.stats.rows_prescreened, 0u) << where;
            } else if (p == 1) {
              // The prescreen must actually fire, or the test proves
              // nothing.
              EXPECT_GT(pre.stats.rows_prescreened, kN / 2) << where;
            }
          }
        }
      }
    }
  }
}

TEST(PrescreenScanTest, TiesAtThePthValueBreakTheSameWay) {
  // Every row three times under consecutive ids: exact scores tie in
  // threes, and p = 2, 4, 5 cut inside a tie group, where the id decides.
  constexpr size_t kDistinct = 400;
  for (const Tier& tier : RunnableTiers()) {
    for (size_t d : {size_t{7}, size_t{55}}) {
      EmbeddedDatabase db = MakeDb(kDistinct, d, 400 + d, /*copies=*/3);
      const EmbeddedDatabase::View view = db;
      for (bool signed_weights : {false, true}) {
        Vector w = MakeWeights(d, signed_weights, 500 + d);
        for (size_t p : {size_t{2}, size_t{4}, size_t{5}}) {
          // An exact row as the query: its three copies tie at the top
          // for non-negative weights.
          for (Vector q : {db.RowVector(30), QueryNear(db, 90, 600 + d)}) {
            ScanResult plain = Scan(q, w, view, p, false, tier.table);
            ScanResult pre = Scan(q, w, view, p, true, tier.table);
            ExpectSameScan(plain, pre, Where(tier, d, signed_weights, p));
            ASSERT_EQ(plain.top.size(), p);
            EXPECT_EQ(plain.top[p - 1].score,
                      plain.top[p - 1 - (p - 1) % 3].score)
                << "the p-th value is tied";
          }
        }
      }
    }
  }
}

TEST(PrescreenScanTest, SignedWeightsNeverAbandonMidRow) {
  // Positive weights on the first abandon block and negative ones on the
  // second: after 64 dims a row's partial sum is far above its final
  // score, so a kernel that abandoned on it would drop the best rows.
  // Both scans must match a brute-force ranking of full scores.
  constexpr size_t kN = 1000;
  constexpr size_t kD = 130;
  EmbeddedDatabase db = MakeDb(kN, kD, 1000);
  const EmbeddedDatabase::View view = db;
  Vector w(kD, 1.0);
  for (size_t j = 64; j < 128; ++j) w[j] = -1.0;
  const Vector q(kD, 0.0);
  for (const Tier& tier : RunnableTiers()) {
    std::vector<double> full(kN);
    for (size_t i = 0; i < kN; ++i) {
      full[i] = tier.table->wl1_f64(q.data(), view.row(i), w.data(), kD, kInf);
    }
    for (size_t p : {size_t{1}, size_t{10}}) {
      std::string where = Where(tier, kD, true, p);
      ScanResult plain = Scan(q, w, view, p, false, tier.table);
      ScanResult pre = Scan(q, w, view, p, true, tier.table);
      EXPECT_EQ(plain.top, SmallestK(full, p)) << where;
      ExpectSameScan(plain, pre, where);
    }
  }
}

TEST(PrescreenScanTest, NonFiniteRowsQueryOrWeightsNeverPruneWrongly) {
  constexpr size_t kN = 600;
  constexpr size_t kD = 17;
  for (const Tier& tier : RunnableTiers()) {
    for (double bad : {kInf, -kInf, kNaN}) {
      for (bool signed_weights : {false, true}) {
        Vector w = MakeWeights(kD, signed_weights, 700);
        for (size_t p : {size_t{1}, size_t{10}}) {
          std::string where = Where(tier, kD, signed_weights, p) +
                              " value=" + std::to_string(bad);
          // A non-finite value in a few rows: bulk-loaded, then one more
          // appended after the int8 matrix exists (the re-quantizing
          // maintenance path).
          EmbeddedDatabase rows = MakeDb(kN, kD, 800);
          rows.mutable_row(5)[3] = bad;
          rows.RebuildPrescreenMatrix();
          Vector row = rows.RowVector(9);
          row[kD - 1] = bad;
          rows.Append(row, kN);
          const EmbeddedDatabase::View rows_view = rows;
          EXPECT_FALSE(std::isfinite(rows_view.i8_scales()[3])) << where;
          EXPECT_FALSE(std::isfinite(rows_view.i8_scales()[kD - 1]))
              << where;
          Vector q = QueryNear(rows, 100, 900);
          ScanResult plain = Scan(q, w, rows_view, p, false, tier.table);
          ScanResult pre = Scan(q, w, rows_view, p, true, tier.table);
          ExpectSameScan(plain, pre, where + " in rows");
          EXPECT_EQ(pre.stats.rows_prescreened, 0u) << where;

          // A non-finite query value, then a non-finite weight, over
          // finite rows.
          EmbeddedDatabase db = MakeDb(kN, kD, 810);
          const EmbeddedDatabase::View view = db;
          Vector bad_q = QueryNear(db, 100, 910);
          bad_q[4] = bad;
          plain = Scan(bad_q, w, view, p, false, tier.table);
          pre = Scan(bad_q, w, view, p, true, tier.table);
          ExpectSameScan(plain, pre, where + " in query");
          EXPECT_EQ(pre.stats.rows_prescreened, 0u) << where;
          Vector bad_w = w;
          bad_w[2] = bad;
          Vector good_q = QueryNear(db, 100, 920);
          plain = Scan(good_q, bad_w, view, p, false, tier.table);
          pre = Scan(good_q, bad_w, view, p, true, tier.table);
          ExpectSameScan(plain, pre, where + " in weights");
          EXPECT_EQ(pre.stats.rows_prescreened, 0u) << where;
        }
      }
    }
  }
}

TEST(PrescreenScanTest, MarginBoundsExactMinusApproxOnEveryTier) {
  // Rows at the edges of the quantization range, queries beyond it (so
  // clamped) and weights of both signs and mixed magnitudes: the float64
  // score is within the margin of σ * S, S the exact integer score.
  for (const Tier& tier : RunnableTiers()) {
    for (size_t d : {size_t{1}, size_t{3}, size_t{16}, size_t{17},
                     size_t{55}, size_t{63}, size_t{64}, size_t{65},
                     size_t{129}, size_t{257}}) {
      Rng rng(1000 + d);
      std::vector<float> scales(d);
      std::vector<double> q(d), w(d);
      std::vector<int8_t> qq(d);
      for (size_t j = 0; j < d; ++j) {
        scales[j] = static_cast<float>(rng.Uniform(0.001, 2.0));
        q[j] = rng.Uniform(-160.0, 160.0) * scales[j];
        w[j] = rng.Uniform(-3.0, 3.0) * (j % 5 == 0 ? 100.0 : 1.0);
        qq[j] = QuantizeToInt8(q[j], scales[j]);
      }
      const I8Prescreen pre =
          QuantizeI8Prescreen(w.data(), q.data(), qq.data(), scales.data(), d);
      ASSERT_TRUE(std::isfinite(pre.margin));
      int64_t coeff_mass = 0;
      for (int16_t c : pre.coeffs) coeff_mass += std::abs(c);
      EXPECT_LE(coeff_mass * 254, int64_t{INT32_MAX}) << "d=" << d;
      std::vector<double> x(d);
      std::vector<int8_t> xq(d);
      for (int trial = 0; trial < 200; ++trial) {
        for (size_t j = 0; j < d; ++j) {
          double edge = 127.5 * scales[j];
          x[j] = trial % 4 == 0 ? (rng.Uniform(0, 1) < 0.5 ? edge : -edge)
                                : rng.Uniform(-edge, edge);
          ASSERT_TRUE(FitsInt8(x[j], scales[j]));
          xq[j] = QuantizeToInt8(x[j], scales[j]);
        }
        const double exact =
            tier.table->wl1_f64(q.data(), x.data(), w.data(), d, kInf);
        const int32_t score =
            AllScores(tier.table, qq, xq, 1, pre.coeffs)[0];
        const long double approx =
            static_cast<long double>(pre.scale) * score;
        EXPECT_LE(std::fabs(static_cast<long double>(exact) - approx),
                  static_cast<long double>(pre.margin))
            << simd::SimdLevelName(tier.level) << " d=" << d;
      }
    }

    // Worst cases of two terms at once.  Dimension 0 (cq = C) holds a
    // row value half a step off its shadow; dimension 1's weight is too
    // small for any coefficient (cq = 0), so its whole term, at the
    // largest difference, is coefficient rounding.  |exact - σ * S| is
    // then within a fraction of the quantization residual of the margin.
    {
      const double cap = 32767.0;  // min(32767, INT32_MAX / (254 * 2))
      const std::vector<double> w2{1.0, -0.49 / cap}, q2{0.0, 127.0};
      const std::vector<float> unit(2, 1.0f);
      const std::vector<int8_t> qq2{0, 127};
      const std::vector<double> x2{0.5, -127.0};
      const std::vector<int8_t> xq2{QuantizeToInt8(x2[0], 1.0f),
                                    QuantizeToInt8(x2[1], 1.0f)};
      const I8Prescreen pre =
          QuantizeI8Prescreen(w2.data(), q2.data(), qq2.data(), unit.data(), 2);
      ASSERT_EQ(pre.coeffs, (std::vector<int16_t>{32767, 0}));
      const double exact =
          tier.table->wl1_f64(q2.data(), x2.data(), w2.data(), 2, kInf);
      const int32_t score = AllScores(tier.table, qq2, xq2, 1, pre.coeffs)[0];
      const long double gap =
          static_cast<long double>(pre.scale) * score - exact;
      EXPECT_GT(gap, 0.5L + 124.0L / cap);
      EXPECT_LE(gap, static_cast<long double>(pre.margin));
    }

    // Equal coefficient magnitudes put every |cq_j| at the cap, the most
    // the int32 sums admit: the kernel's largest score stays exact.
    for (size_t d : {size_t{258}, size_t{259}, size_t{1000}}) {
      std::vector<double> w(d), q(d, 127.0);
      std::vector<float> unit(d, 1.0f);
      std::vector<int8_t> qq(d, 127), xq(d, -127);
      for (size_t j = 0; j < d; ++j) w[j] = j % 7 == 3 ? -1.0 : 1.0;
      const I8Prescreen pre =
          QuantizeI8Prescreen(w.data(), q.data(), qq.data(), unit.data(), d);
      int64_t coeff_mass = 0;
      int64_t want = 0;
      for (int16_t c : pre.coeffs) {
        coeff_mass += std::abs(c);
        want += 254 * int64_t{c};
      }
      EXPECT_LE(coeff_mass * 254, int64_t{INT32_MAX}) << "d=" << d;
      const int32_t score = AllScores(tier.table, qq, xq, 1, pre.coeffs)[0];
      EXPECT_EQ(score, want) << simd::SimdLevelName(tier.level) << " d=" << d;
    }
  }
}

TEST(PrescreenScanTest, TwoPassBoundaryShapesMatchThePlainScan) {
  // Around the first pass's block: n below one block, at it, one past
  // it and not a multiple of it; p from 1 to past n; d past one 64-byte
  // chunk.
  const size_t kB = kPrescreenBlockRows;
  for (const Tier& tier : RunnableTiers()) {
    for (size_t d : {size_t{7}, size_t{55}, size_t{130}, size_t{259}}) {
      for (size_t n : {size_t{1}, size_t{5}, kB - 1, kB, kB + 1,
                       2 * kB + 37}) {
        EmbeddedDatabase db = MakeDb(n, d, 1400 + d + n);
        const EmbeddedDatabase::View view = db;
        for (bool signed_weights : {false, true}) {
          Vector w = MakeWeights(d, signed_weights, 1500 + d);
          Vector q = QueryNear(db, n / 2, 1600 + d + n);
          for (size_t p : {size_t{1}, size_t{3}, n - 1, n, n + 5}) {
            if (p == 0) continue;
            std::string where =
                Where(tier, d, signed_weights, p) + " n=" + std::to_string(n);
            ScanResult plain = Scan(q, w, view, p, false, tier.table);
            ScanResult pre = Scan(q, w, view, p, true, tier.table);
            ExpectSameScan(plain, pre, where);
            if (p >= n) {
              EXPECT_EQ(pre.stats.rows_prescreened, 0u) << where;
            }
          }
        }
      }
    }
  }
}

TEST(PrescreenScanTest, AllZeroWeightsScanPlain) {
  // σ = 0: no finite margin, so the scan runs plain; every score is 0
  // and the ids decide.  One zero weight among others still prescreens.
  constexpr size_t kN = 700;
  constexpr size_t kD = 17;
  EmbeddedDatabase db = MakeDb(kN, kD, 1700);
  const EmbeddedDatabase::View view = db;
  const Vector q = QueryNear(db, 40, 1701);
  for (const Tier& tier : RunnableTiers()) {
    for (size_t p : {size_t{1}, size_t{10}}) {
      std::string where = Where(tier, kD, false, p);
      Vector zero(kD, 0.0);
      ScanResult plain = Scan(q, zero, view, p, false, tier.table);
      ScanResult pre = Scan(q, zero, view, p, true, tier.table);
      ExpectSameScan(plain, pre, where + " all zero");
      EXPECT_EQ(pre.stats.rows_prescreened, 0u) << where;
      ASSERT_EQ(pre.top.size(), p);
      EXPECT_EQ(pre.top.back().index, p - 1) << where;

      Vector w = MakeWeights(kD, false, 1702);
      w[3] = 0.0;
      plain = Scan(q, w, view, p, false, tier.table);
      pre = Scan(q, w, view, p, true, tier.table);
      ExpectSameScan(plain, pre, where + " one zero");
      EXPECT_GT(pre.stats.rows_prescreened, kN / 2) << where;
    }
  }
}

TEST(PrescreenScanTest, RowOnTheFirstPassBoundIsKeptSound) {
  // Integer-valued rows with one at ±127 per dimension give unit scales,
  // so every stored value is its own int8 shadow.  Weights (1, 1 / C)
  // quantize to cq = (C, 1) with σ = 1 / C, and the query (0, 0) sits on
  // the grid, so a row (a, b) has S = a * C + b.  With p = 1 the row
  // (0, 0) gives S_p = 0, the first pass's bound is Slack(), and rows at
  // S = Slack() and Slack() + 1 straddle it.
  constexpr size_t kD = 2;
  const double cap = 32767.0;  // min(32767, INT32_MAX / (254 * 2))
  EmbeddedDatabase db(kD);
  db.Append(Vector{127.0, 127.0});
  db.Append(Vector{-127.0, -127.0});
  for (size_t i = 0; i < 2 * kPrescreenBlockRows; ++i) {
    db.Append(Vector{static_cast<double>(40 + i % 80),
                     static_cast<double>(i % 120)});
  }
  db.Append(Vector{0.0, 0.0});
  db.RebuildPrescreenMatrix();
  const Vector q(kD, 0.0);
  const Vector w{1.0, 1.0 / cap};
  {
    const EmbeddedDatabase::View view = db;
    ASSERT_EQ(view.i8_scales()[0], 1.0f);
    ASSERT_EQ(view.i8_scales()[1], 1.0f);
  }
  const std::vector<int8_t> qq(kD, 0);
  const std::vector<float> unit(kD, 1.0f);
  const I8Prescreen pre =
      QuantizeI8Prescreen(w.data(), q.data(), qq.data(), unit.data(), kD);
  ASSERT_EQ(pre.coeffs, (std::vector<int16_t>{32767, 1}));
  const int64_t slack = pre.Slack();
  const int64_t a = slack / 32767;
  const int64_t b = slack % 32767;
  ASSERT_LE(a, 127);
  ASSERT_LT(b, 127);
  db.Append(Vector{static_cast<double>(a), static_cast<double>(b)});
  db.Append(Vector{static_cast<double>(-a), static_cast<double>(b + 1)});
  const EmbeddedDatabase::View view = db;
  ASSERT_EQ(view.i8_scales()[0], 1.0f);
  for (const Tier& tier : RunnableTiers()) {
    const Emitted all = Emit(tier.table, qq.data(), view.data_i8(),
                             view.size(), pre.coeffs.data(), kD, INT32_MAX);
    ASSERT_EQ(all.scores.size(), view.size());
    EXPECT_EQ(all.scores[view.size() - 2], slack);
    EXPECT_EQ(all.scores[view.size() - 1], slack + 1);
    for (size_t p : {size_t{1}, size_t{2}, size_t{3}}) {
      std::string where = Where(tier, kD, false, p);
      ScanResult plain = Scan(q, w, view, p, false, tier.table);
      ScanResult pre_scan = Scan(q, w, view, p, true, tier.table);
      ExpectSameScan(plain, pre_scan, where);
      EXPECT_GT(pre_scan.stats.rows_prescreened, view.size() / 2) << where;
    }
  }
}

// --- The block kernel: exact integer sums on every tier. ---------------

/// Per-row sum_j c[j] * |q[j] - x[j]| in int64: the reference every
/// tier's prescreen_i8 must equal.
std::vector<int64_t> ReferenceScores(const std::vector<int8_t>& q,
                                     const std::vector<int8_t>& rows,
                                     const std::vector<int16_t>& c,
                                     size_t n) {
  const size_t d = q.size();
  std::vector<int64_t> out(n, 0);
  for (size_t r = 0; r < n; ++r) {
    for (size_t j = 0; j < d; ++j) {
      int64_t diff = static_cast<int64_t>(q[j]) - rows[r * d + j];
      out[r] += c[j] * (diff < 0 ? -diff : diff);
    }
  }
  return out;
}

/// The coefficient cap that keeps sum_j |c_j| * 254 within int32.
int16_t CoeffCap(size_t d) {
  return static_cast<int16_t>(
      std::min<int64_t>(32767, int64_t{INT32_MAX} / (254 * int64_t(d))));
}

/// The rows `want` puts at or below `bound`, in row order.
std::vector<uint32_t> RowsWithin(const std::vector<int64_t>& want,
                                 int64_t bound) {
  std::vector<uint32_t> rows;
  for (size_t r = 0; r < want.size(); ++r) {
    if (want[r] <= bound) rows.push_back(static_cast<uint32_t>(r));
  }
  return rows;
}

/// Runs every tier's entry over the blocked rows and compares it with
/// the reference: under INT32_MAX every row in order with its exact S,
/// and under the median S exactly the rows at or below it.
void ExpectExactOnEveryTier(const std::vector<int8_t>& q,
                            const std::vector<int8_t>& rows,
                            const std::vector<int16_t>& c, size_t n,
                            const std::string& where) {
  const size_t d = q.size();
  const std::vector<int64_t> want = ReferenceScores(q, rows, c, n);
  std::vector<int64_t> sorted = want;
  std::nth_element(sorted.begin(), sorted.begin() + n / 2, sorted.end());
  const int32_t median = static_cast<int32_t>(sorted[n / 2]);
  const std::vector<int8_t> blocks = Blocked(rows, n, d);
  for (const Tier& tier : RunnableTiers()) {
    const std::string at =
        std::string(simd::SimdLevelName(tier.level)) + " " + where;
    const std::vector<int32_t> got = AllScores(tier.table, q, rows, n, c);
    ASSERT_EQ(got.size(), n) << at;
    for (size_t r = 0; r < n; ++r) {
      ASSERT_EQ(got[r], want[r]) << at << " row " << r;
    }
    const Emitted half =
        Emit(tier.table, q.data(), blocks.data(), n, c.data(), d, median);
    EXPECT_EQ(half.rows, RowsWithin(want, median)) << at;
    for (size_t k = 0; k < half.rows.size(); ++k) {
      EXPECT_EQ(half.scores[k], want[half.rows[k]]) << at;
    }
  }
}

/// Bytes uniform in the int8 matrix's range [-127, 127].
std::vector<int8_t> RandomBytes(size_t count, Rng* rng) {
  std::vector<int8_t> out(count);
  for (int8_t& v : out) {
    v = static_cast<int8_t>(static_cast<int>(rng->Index(255)) - 127);
  }
  return out;
}

std::vector<int16_t> RandomCoeffs(size_t d, Rng* rng) {
  const int16_t cap = CoeffCap(d);
  std::vector<int16_t> c(d);
  for (int16_t& v : c) {
    v = static_cast<int16_t>(static_cast<int>(rng->Index(2 * cap + 1)) - cap);
  }
  return c;
}

const size_t kKernelDims[] = {1,  3,  5,  7,  16, 17,  24,  31,  32,
                              33, 55, 63, 64, 65, 130, 258, 259};

TEST(PrescreenKernelTest, BlockEntryMatchesInt64ReferenceOnEveryTier) {
  // n % 16 in {0, 1, 15} and others, within one block and across the
  // scan's 256-row calls.
  for (size_t d : kKernelDims) {
    for (size_t n : {size_t{1}, size_t{2}, size_t{8}, size_t{15}, size_t{16},
                     size_t{17}, size_t{31}, size_t{33}, size_t{255},
                     size_t{256}, size_t{257}, size_t{333}}) {
      Rng rng(1800 + 31 * d + n);
      const std::vector<int8_t> q = RandomBytes(d, &rng);
      const std::vector<int8_t> rows = RandomBytes(n * d, &rng);
      const std::vector<int16_t> c = RandomCoeffs(d, &rng);
      ExpectExactOnEveryTier(q, rows, c, n,
                             "d=" + std::to_string(d) +
                                 " n=" + std::to_string(n));
    }
  }
}

TEST(PrescreenKernelTest, Int32EdgeIsExactOnEveryTier) {
  // Every coefficient at ±C and every difference at 254: the largest
  // sums the overflow precondition admits, and sign mixes of them.
  for (size_t d : kKernelDims) {
    const int16_t cap = CoeffCap(d);
    for (size_t n : {size_t{15}, size_t{16}, size_t{17}}) {
      std::vector<int8_t> q(d, 127), rows(n * d, -127);
      for (size_t j = 0; j < d; ++j) rows[2 * d + j] = j % 2 == 0 ? -127 : 127;
      std::vector<int8_t> q_low(d, -127), rows_high(n * d, 127);
      for (int sign : {1, -1, 0}) {
        std::vector<int16_t> c(d);
        for (size_t j = 0; j < d; ++j) {
          c[j] = static_cast<int16_t>(sign != 0 ? sign * cap
                                                : (j % 3 == 0 ? -cap : cap));
        }
        const std::string where = "d=" + std::to_string(d) +
                                  " n=" + std::to_string(n) +
                                  " sign=" + std::to_string(sign);
        ExpectExactOnEveryTier(q, rows, c, n, where);
        ExpectExactOnEveryTier(q_low, rows_high, c, n, where + " mirrored");
        if (sign == 1) {
          EXPECT_LE(ReferenceScores(q, rows, c, 1)[0], int64_t{INT32_MAX});
        }
      }
    }
  }
}

TEST(PrescreenKernelTest, BoundEdgesOnEveryTier) {
  // A row at S == bound is emitted and one at S == bound + 1 is not, in
  // every slot of a block; INT32_MAX emits every row and a bound below
  // every S none.
  for (size_t d : {size_t{3}, size_t{16}, size_t{55}}) {
    constexpr size_t kN = 37;
    Rng rng(2000 + d);
    const std::vector<int8_t> q = RandomBytes(d, &rng);
    const std::vector<int8_t> rows = RandomBytes(kN * d, &rng);
    const std::vector<int16_t> c = RandomCoeffs(d, &rng);
    const std::vector<int64_t> want = ReferenceScores(q, rows, c, kN);
    const std::vector<int8_t> blocks = Blocked(rows, kN, d);
    const int64_t lowest = *std::min_element(want.begin(), want.end());
    for (const Tier& tier : RunnableTiers()) {
      const std::string where = std::string(simd::SimdLevelName(tier.level)) +
                                " d=" + std::to_string(d);
      auto emit = [&](int64_t bound) {
        return Emit(tier.table, q.data(), blocks.data(), kN, c.data(), d,
                    static_cast<int32_t>(bound))
            .rows;
      };
      for (size_t r = 0; r < kN; ++r) {
        const std::vector<uint32_t> at = emit(want[r]);
        EXPECT_EQ(at, RowsWithin(want, want[r])) << where << " row " << r;
        EXPECT_TRUE(std::count(at.begin(), at.end(), r) == 1)
            << where << " row " << r << " at S == bound";
        const std::vector<uint32_t> below = emit(want[r] - 1);
        EXPECT_EQ(below, RowsWithin(want, want[r] - 1))
            << where << " row " << r;
        EXPECT_TRUE(std::count(below.begin(), below.end(), r) == 0)
            << where << " row " << r << " at S == bound + 1";
      }
      EXPECT_EQ(emit(INT32_MAX).size(), kN) << where;
      EXPECT_TRUE(emit(lowest - 1).empty()) << where;
    }
  }
}

TEST(PrescreenKernelTest, NeverReadsSlotsPastTheLastRow) {
  // The last block's slots at or past n hold bytes equal to the query
  // (S = 0, within any bound) and, under AddressSanitizer, are poisoned:
  // a tier that read one unmasked would fail there, and one that emitted
  // one would fail everywhere.
  for (size_t d : {size_t{3}, size_t{16}, size_t{24}, size_t{55},
                   size_t{130}}) {
    for (size_t n : {size_t{1}, size_t{5}, size_t{15}, size_t{17},
                     size_t{47}}) {
      const std::string where =
          "d=" + std::to_string(d) + " n=" + std::to_string(n);
      Rng rng(2100 + 7 * d + n);
      const std::vector<int8_t> q = RandomBytes(d, &rng);
      const std::vector<int8_t> rows = RandomBytes(n * d, &rng);
      const std::vector<int16_t> c = RandomCoeffs(d, &rng);
      const std::vector<int64_t> want = ReferenceScores(q, rows, c, n);
      std::vector<int8_t> blocks = Blocked(rows, n, d);
      const size_t first_dead = n % simd::kI8BlockRows;
      const size_t last_block = n - first_dead;
      const size_t padded = (d + 3) / 4 * 4;
      for (size_t r = n; r < last_block + simd::kI8BlockRows; ++r) {
        for (size_t j = 0; j < d; ++j) {
          blocks[EmbeddedDatabase::I8Offset(r, j, d)] = q[j];
        }
      }
      for (size_t j = 0; j < padded; j += simd::kI8GroupDims) {
        ASAN_POISON_MEMORY_REGION(
            blocks.data() + EmbeddedDatabase::I8Offset(n, j, d),
            (simd::kI8BlockRows - first_dead) * simd::kI8GroupDims);
      }
      for (const Tier& tier : RunnableTiers()) {
        const Emitted all = Emit(tier.table, q.data(), blocks.data(), n,
                                 c.data(), d, INT32_MAX);
        ASSERT_EQ(all.rows, RowsWithin(want, INT32_MAX))
            << simd::SimdLevelName(tier.level) << " " << where;
        for (size_t r = 0; r < n; ++r) {
          EXPECT_EQ(all.scores[r], want[r])
              << simd::SimdLevelName(tier.level) << " " << where;
        }
        EXPECT_TRUE(Emit(tier.table, q.data(), blocks.data(), n, c.data(), d,
                         0)
                        .rows == RowsWithin(want, 0))
            << simd::SimdLevelName(tier.level) << " " << where;
      }
      ASAN_UNPOISON_MEMORY_REGION(blocks.data(), blocks.size());
    }
  }
}

TEST(PrescreenKernelTest, CallsThatPrefetchAheadEmitWhatOneCallDoes) {
  // The scan calls a tier's entry kPrescreenBlockRows rows at a time
  // with the rest of the matrix as `stored`, so each call prefetches
  // into the next; split that way, over a buffer of exactly the matrix's
  // whole blocks, the calls emit what one call over all rows does.
  for (size_t d : {size_t{3}, size_t{55}}) {
    for (size_t n : {size_t{100}, size_t{256}, size_t{300}, size_t{1029}}) {
      const std::string where =
          "d=" + std::to_string(d) + " n=" + std::to_string(n);
      Rng rng(2200 + 7 * d + n);
      const std::vector<int8_t> q = RandomBytes(d, &rng);
      const std::vector<int8_t> rows = RandomBytes(n * d, &rng);
      const std::vector<int16_t> c = RandomCoeffs(d, &rng);
      const std::vector<int8_t> blocks = Blocked(rows, n, d);
      ASSERT_EQ(blocks.size(), EmbeddedDatabase::I8Bytes(n, d));
      for (const Tier& tier : RunnableTiers()) {
        const Emitted whole =
            Emit(tier.table, q.data(), blocks.data(), n, c.data(), d,
                 INT32_MAX);
        Emitted split;
        split.rows.resize(n);
        split.scores.resize(n);
        size_t count = 0;
        for (size_t first = 0; first < n; first += kPrescreenBlockRows) {
          const size_t got = tier.table->prescreen_i8(
              q.data(), blocks.data() + EmbeddedDatabase::I8Offset(first, 0, d),
              std::min(kPrescreenBlockRows, n - first), n - first, c.data(), d,
              INT32_MAX, split.rows.data() + count,
              split.scores.data() + count);
          for (size_t i = count; i < count + got; ++i) {
            split.rows[i] += static_cast<uint32_t>(first);
          }
          count += got;
        }
        EXPECT_EQ(count, n) << simd::SimdLevelName(tier.level) << " " << where;
        split.rows.resize(count);
        split.scores.resize(count);
        EXPECT_EQ(split.rows, whole.rows)
            << simd::SimdLevelName(tier.level) << " " << where;
        EXPECT_EQ(split.scores, whole.scores)
            << simd::SimdLevelName(tier.level) << " " << where;
      }
    }
  }
}

TEST(PrescreenScanTest, ConcurrentAppendsDuringPrescreenedScans) {
  // A writer appends rows — every 50th far outside the current scales,
  // forcing a copy-on-write re-quantization — while readers compare the
  // prescreened and plain scans of the same pinned snapshot.
  constexpr size_t kD = 24;
  constexpr size_t kAppends = 600;
  EmbeddedDatabase db = MakeDb(800, kD, 1200);
  const Vector w = MakeWeights(kD, /*signed_weights=*/true, 1201);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(1202);
    Vector row(kD);
    for (size_t i = 0; i < kAppends; ++i) {
      double spread = i % 50 == 49 ? 4.0 + static_cast<double>(i) / 50 : 1.0;
      for (double& v : row) v = rng.Uniform(-spread, spread);
      db.Append(row, 800 + i);
    }
    done.store(true);
  });
  const simd::KernelTable* k = simd::ActiveKernels();
  auto reader = [&](uint64_t seed) {
    Rng rng(seed);
    size_t scans = 0;
    while (!done.load() || scans < 3) {
      EmbeddedDatabase::Snapshot snap = db.snapshot();
      const EmbeddedDatabase::View& view = snap.view();
      Vector q(kD);
      for (double& v : q) v = rng.Uniform(-1.0, 1.0);
      size_t p = 1 + rng.Index(20);
      ExpectSameScan(Scan(q, w, view, p, false, k),
                     Scan(q, w, view, p, true, k),
                     "rows=" + std::to_string(view.size()));
      ++scans;
    }
  };
  std::thread r1(reader, 1203);
  std::thread r2(reader, 1204);
  writer.join();
  r1.join();
  r2.join();
  EXPECT_EQ(db.size(), 800 + kAppends);
}

TEST(PrescreenScanTest, PinnedScanRacesInPlaceAppendsIntoPartialBlocks) {
  // Room reserved and every appended value inside the scales: each
  // Append writes its int8 row in place, into the slots of a partly
  // filled last block that pinned readers' scans mask off, while those
  // readers compare the prescreened and plain scans of their snapshot.
  constexpr size_t kD = 16;
  constexpr size_t kRows = 9;
  constexpr size_t kAppends = 3000;
  EmbeddedDatabase db(kD);
  db.Reserve(kRows + kAppends);
  Rng rng(1250);
  Vector row(kD);
  for (size_t i = 0; i < kRows; ++i) {
    for (double& v : row) v = i == 0 ? 1.0 : rng.Uniform(-1.0, 1.0);
    db.Append(row);
  }
  db.RebuildPrescreenMatrix();
  const double* base = db.snapshot()->data();
  const Vector w = MakeWeights(kD, /*signed_weights=*/true, 1251);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng wrng(1252);
    Vector r(kD);
    for (size_t i = 0; i < kAppends; ++i) {
      for (double& v : r) v = wrng.Uniform(-1.0, 1.0);
      db.Append(r, kRows + i);
    }
    done.store(true);
  });
  auto reader = [&](uint64_t seed) {
    Rng qrng(seed);
    size_t scans = 0;
    while (!done.load() || scans < 3) {
      EmbeddedDatabase::Snapshot snap = db.snapshot();
      const EmbeddedDatabase::View& view = snap.view();
      EXPECT_EQ(view.data(), base) << "an append copied the version";
      Vector q(kD);
      for (double& v : q) v = qrng.Uniform(-1.0, 1.0);
      const size_t p = 1 + qrng.Index(8);
      ExpectSameScan(Scan(q, w, view, p, false, simd::ActiveKernels()),
                     Scan(q, w, view, p, true, simd::ActiveKernels()),
                     "rows=" + std::to_string(view.size()));
      ++scans;
    }
  };
  std::thread r1(reader, 1253);
  std::thread r2(reader, 1254);
  writer.join();
  r1.join();
  r2.join();
  EXPECT_EQ(db.size(), kRows + kAppends);
}

TEST(PrescreenScanTest, PinnedCountsOfFixedSignedScans) {
  // rows_prescreened and rows_pruned of fixed signed-weight scans on
  // every tier, pinned to the counts the first pass gave when it kept a
  // heap of the p best S row by row: the blocked kernel and the buffered
  // selection must hand pass 2 the same rows in the same order.  The
  // last case cuts inside exact ties.
  struct Case {
    size_t n, d, p, copies;
    uint64_t seed;
    size_t pruned, prescreened;
  };
  const Case kCases[] = {{5000, 16, 100, 1, 2100, 4899, 4881},
                         {3000, 24, 50, 1, 2200, 2950, 2942},
                         {2000, 55, 20, 1, 2300, 1979, 1971},
                         {1000, 130, 10, 1, 2400, 990, 983},
                         {600, 17, 25, 3, 2500, 1775, 1770}};
  for (const Case& c : kCases) {
    EmbeddedDatabase db = MakeDb(c.n, c.d, c.seed, c.copies);
    const EmbeddedDatabase::View view = db;
    const Vector w = MakeWeights(c.d, /*signed_weights=*/true, c.seed + 1);
    const Vector q = QueryNear(db, db.size() / 3, c.seed + 2);
    for (const Tier& tier : RunnableTiers()) {
      const std::string where = Where(tier, c.d, true, c.p);
      const ScanResult pre = Scan(q, w, view, c.p, true, tier.table);
      EXPECT_EQ(pre.stats.rows_visited, c.n * c.copies) << where;
      EXPECT_EQ(pre.stats.rows_pruned, c.pruned) << where;
      EXPECT_EQ(pre.stats.rows_prescreened, c.prescreened) << where;
      ExpectSameScan(Scan(q, w, view, c.p, false, tier.table), pre, where);
    }
  }
}

TEST(PrescreenScanTest, GateShapeCandidatesBitIdentical) {
  // The shape micro_filter_step's throughput gate scans at n = 1M
  // (BM_FilterScanPrecision_Prescreened): d = 256, p = 500, rows, query
  // and non-negative weights uniform in [0, 1).  Fewer rows here keep it
  // a unit test; the prescreened candidates must be the plain scan's,
  // bit for bit, on every tier.  The counts are pinned too: the 23,882
  // rows (95.5%) dismissed on their int8 score alone, whose float64 rows
  // pass 2 never reads, are the traffic cut behind the gate's ratio.
  constexpr size_t kN = 25000;
  constexpr size_t kD = 256;
  constexpr size_t kP = 500;
  Rng rng(1);
  EmbeddedDatabase db(kD);
  db.Resize(kN);
  for (size_t i = 0; i < kN; ++i) {
    double* row = db.mutable_row(i);
    for (size_t j = 0; j < kD; ++j) row[j] = rng.Uniform(0, 1);
  }
  db.RebuildPrescreenMatrix();
  Rng query_rng(2);
  Vector q(kD), w(kD);
  for (size_t j = 0; j < kD; ++j) {
    q[j] = query_rng.Uniform(0, 1);
    w[j] = query_rng.Uniform(0, 1);
  }
  const EmbeddedDatabase::View view = db;
  for (const Tier& tier : RunnableTiers()) {
    SCOPED_TRACE(simd::SimdLevelName(tier.level));
    ScanResult pre = Scan(q, w, view, kP, true, tier.table);
    ExpectSameScan(Scan(q, w, view, kP, false, tier.table), pre, "gate");
    EXPECT_EQ(pre.stats.rows_visited, kN);
    EXPECT_EQ(pre.stats.rows_pruned, 24485u);
    EXPECT_EQ(pre.stats.rows_prescreened, 23882u);
  }
}

// --- Pass 1's selection of S_p. ----------------------------------------

/// For k = 1, a middle k and n: SelectKthSmallest(v, k) is
/// std::nth_element's value at k - 1, and KthSmallestUpperBound(v, k) is
/// no lower, no higher than max(v), within (max - min) / 128 of it and
/// equal to it when max - min < 256.  Neither changes v.
void ExpectSelectsAsNthElement(const std::vector<int32_t>& v,
                               const std::string& where) {
  const size_t n = v.size();
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  const int64_t range = int64_t{*hi} - *lo;
  const std::vector<int32_t> before = v;
  for (size_t k : {size_t{1}, (n + 1) / 2, n}) {
    std::vector<int32_t> sorted = v;
    std::nth_element(sorted.begin(), sorted.begin() + (k - 1), sorted.end());
    const int32_t kth = sorted[k - 1];
    const std::string at = where + " n=" + std::to_string(n) +
                           " k=" + std::to_string(k);
    EXPECT_EQ(SelectKthSmallest(v.data(), n, k), kth) << at;
    const int64_t over = int64_t{KthSmallestUpperBound(v.data(), n, k)} - kth;
    EXPECT_GE(over, 0) << at;
    EXPECT_LE(over, int64_t{*hi} - kth) << at;
    if (range < 256) {
      EXPECT_EQ(over, 0) << at;
    } else {
      EXPECT_LT(over * 128, range) << at;
    }
  }
  EXPECT_EQ(v, before) << where;
}

TEST(PrescreenSelectTest, MatchesNthElementOnEdgeInputs) {
  // Sizes around the counting cutoff (16) and the histogram width (256);
  // value sets that need no shift, a full 32-bit range, ties and the
  // int32 extremes.
  Rng rng(2600);
  auto full_range = [&rng] {
    return static_cast<int32_t>(rng.UniformInt(INT32_MIN, INT32_MAX));
  };
  for (size_t n : {1, 2, 16, 17, 256, 257, 5000}) {
    std::vector<int32_t> v(n);
    for (int32_t& s : v) s = full_range();
    ExpectSelectsAsNthElement(v, "full range");

    // Negative S: sums of signed coefficients times |q - x|, as the int8
    // kernel scores rows under signed weights.
    for (int32_t& s : v) {
      s = 0;
      for (int j = 0; j < 16; ++j) {
        const int64_t diff = rng.UniformInt(0, 254);
        s += static_cast<int32_t>(rng.UniformInt(-1000, 1000) * diff);
      }
    }
    ExpectSelectsAsNthElement(v, "signed coefficients");

    // A range under 256: one level, no shift.
    for (int32_t& s : v) s = static_cast<int32_t>(rng.UniformInt(-90, 150));
    ExpectSelectsAsNthElement(v, "range under 256");

    std::fill(v.begin(), v.end(), -7);
    ExpectSelectsAsNthElement(v, "all equal");

    // Three values, so every k lands inside a run of ties.
    for (int32_t& s : v) s = static_cast<int32_t>(rng.Index(3)) * 40000 - 1;
    ExpectSelectsAsNthElement(v, "heavy ties");

    // Ties at the k-th value inside a wide range: a block of equal
    // values around the middle rank.
    for (int32_t& s : v) s = full_range();
    for (size_t i = 0; i < n; i += 3) v[i] = 123456;
    ExpectSelectsAsNthElement(v, "ties in a wide range");

    // The int32 extremes among ordinary values.
    for (int32_t& s : v) s = static_cast<int32_t>(rng.UniformInt(-5000, 5000));
    for (size_t i = 0; i < n; i += 4) v[i] = i % 8 == 0 ? INT32_MIN : INT32_MAX;
    ExpectSelectsAsNthElement(v, "extremes");
    v.assign(n, INT32_MAX);
    v[0] = INT32_MIN;
    ExpectSelectsAsNthElement(v, "max with one min");
  }
}

// --- The engine side: who builds the int8 matrix, and what it reports. -

/// Database ids the fixed-weight model's coordinates refer to.
constexpr size_t kModelDims = 32;
/// Rows of the engine tests' databases.
constexpr size_t kLargeRows = 8192;

struct EngineFixture {
  ObjectOracle<Vector> oracle = test::MakePlaneOracle(kModelDims + 4, 1300);
  QuerySensitiveEmbedding model = test::MakeFixedWeightModel(oracle, [] {
    std::vector<double> alphas(kModelDims);
    for (size_t i = 0; i < kModelDims; ++i) {
      alphas[i] = i % 6 == 5 ? -0.3 : 1.0 + 0.1 * static_cast<double>(i % 4);
    }
    return alphas;
  }());
  QseEmbedderAdapter embedder{&model};
  QuerySensitiveScorer scorer{&model};

  /// `n` rows of plausible coordinate values (plane distances).
  static EmbeddedDatabase Rows(size_t n, uint64_t seed) {
    Rng rng(seed);
    EmbeddedDatabase db(kModelDims);
    db.Resize(n);
    for (size_t i = 0; i < n; ++i) {
      double* row = db.mutable_row(i);
      for (size_t j = 0; j < kModelDims; ++j) row[j] = rng.Uniform(0.0, 1.4);
    }
    return db;
  }

  /// Object kModelDims + 1 of the oracle as the query; refine sees a
  /// cheap made-up distance for the synthetic rows.
  DxToDatabaseFn QueryDx() const {
    return [this](size_t id) {
      return id < kModelDims ? oracle.Distance(kModelDims + 1, id)
                             : static_cast<double>(id % 97);
    };
  }
};

/// The "prescreened" arg of every shard_scan span in `trace`.
std::vector<int64_t> PrescreenedPerShard(const obs::RequestTrace& trace) {
  std::vector<int64_t> out;
  for (const obs::TraceSpan& span : trace.spans()) {
    if (std::string(span.name) != "shard_scan") continue;
    for (const obs::TraceArg& arg : span.args) {
      if (std::string(arg.key) == "prescreened") out.push_back(arg.int_value);
    }
  }
  return out;
}

TEST(PrescreenEngineTest, EveryLocalShardBuildsInt8Matrix) {
  EngineFixture f;
  // Filled through mutable_row(), so the matrix starts stale: the
  // borrowing engine rebuilds it whatever the size.
  EmbeddedDatabase small = EngineFixture::Rows(100, 1);
  EmbeddedDatabase source = small;
  ASSERT_FALSE(small.snapshot()->has_i8());
  RetrievalEngine small_engine(&f.embedder, &f.scorer, &small,
                               test::Iota(100));
  EXPECT_TRUE(small.snapshot()->has_i8());

  // Partitioned: every owned shard builds its own.
  for (size_t shards : {1, 3}) {
    ShardedEngineOptions options;
    options.num_shards = shards;
    RetrievalEngine engine(&f.embedder, &f.scorer, source, test::Iota(100),
                           options);
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_TRUE(engine.db(s).snapshot()->has_i8()) << shards << "/" << s;
    }
  }
}

TEST(PrescreenEngineTest, InsertFilledEnginePrescreens) {
  // Engines built empty and filled by Insert maintain the int8 matrix
  // from the first row on (re-quantizing as the value range grows), so
  // their scans prescreen and still match a rebuilt copy bit for bit.
  EngineFixture f;
  for (size_t shards : {1, 2}) {
    ShardedEngineOptions options;
    options.num_shards = shards;
    options.scatter_threads = 1;
    RetrievalEngine engine(&f.embedder, &f.scorer, options);
    for (size_t id = 0; id < 2000; ++id) {
      ASSERT_TRUE(engine
                      .Insert(id,
                              [id](size_t other) {
                                return 0.05 * static_cast<double>(
                                                  (id * 31 + other * 17) %
                                                  29);
                              })
                      .ok());
    }
    RetrievalRequest request{f.QueryDx(), RetrievalOptions(3, 10),
                             std::make_shared<obs::RequestTrace>()};
    auto response = engine.Retrieve(request);
    ASSERT_TRUE(response.ok()) << response.status();
    std::vector<int64_t> prescreened = PrescreenedPerShard(*request.trace);
    ASSERT_EQ(prescreened.size(), shards);
    for (int64_t rows : prescreened) EXPECT_GT(rows, 0) << shards;

    // The same rows partitioned afresh (int8 scales fitted without
    // headroom) give the same answer.
    EmbeddedDatabase all(kModelDims);
    std::vector<size_t> ids;
    for (size_t s = 0; s < shards; ++s) {
      EmbeddedDatabase::Snapshot snap = engine.db(s).snapshot();
      for (size_t i = 0; i < snap->size(); ++i) {
        all.Append(snap->row(i), snap->id_of(i));
        ids.push_back(snap->id_of(i));
      }
    }
    RetrievalEngine rebuilt(&f.embedder, &f.scorer, all, ids, options);
    auto expected = rebuilt.Retrieve({f.QueryDx(), RetrievalOptions(3, 10)});
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(response->neighbors, expected->neighbors);
  }
}

TEST(PrescreenEngineTest, ReportsPrescreenedRowsInMetricAndSpan) {
  EngineFixture f;
  EmbeddedDatabase large = EngineFixture::Rows(kLargeRows, 3);
  RetrievalEngine engine(&f.embedder, &f.scorer, &large,
                         test::Iota(kLargeRows));
  obs::Counter* counter = obs::MetricRegistry::Global().GetCounter(
      "qse_engine_filter_rows_prescreened_total");
  const uint64_t before = counter->Value();
  RetrievalRequest request{f.QueryDx(), RetrievalOptions(3, 10),
                           std::make_shared<obs::RequestTrace>()};
  auto response = engine.Retrieve(request);
  ASSERT_TRUE(response.ok()) << response.status();
  const uint64_t counted = counter->Value() - before;
  // Counters are process-global: other suites may add concurrently, so
  // the span's own arg is the exact check.
  int64_t span_prescreened = -1;
  int64_t span_pruned = -1;
  for (const obs::TraceSpan& span : request.trace->spans()) {
    if (std::string(span.name) != "shard_scan") continue;
    for (const obs::TraceArg& arg : span.args) {
      if (std::string(arg.key) == "prescreened") {
        span_prescreened = arg.int_value;
      }
      if (std::string(arg.key) == "rows_pruned") span_pruned = arg.int_value;
    }
  }
  EXPECT_GT(span_prescreened, static_cast<int64_t>(kLargeRows / 2));
  EXPECT_LE(span_prescreened, span_pruned);
  EXPECT_GE(counted, static_cast<uint64_t>(span_prescreened));

  // A composed shard reports the count its backend's scan returns.
  RetrievalEngine composed(
      &f.embedder, {std::shared_ptr<RetrievalBackend>(
                       &engine, [](RetrievalBackend*) {})});
  RetrievalRequest composed_request{f.QueryDx(), RetrievalOptions(3, 10),
                                    std::make_shared<obs::RequestTrace>()};
  ASSERT_TRUE(composed.Retrieve(composed_request).ok());
  int64_t composed_prescreened = -1;
  for (const obs::TraceSpan& span : composed_request.trace->spans()) {
    if (std::string(span.name) != "shard_scan") continue;
    for (const obs::TraceArg& arg : span.args) {
      if (std::string(arg.key) == "prescreened") {
        composed_prescreened = arg.int_value;
      }
    }
  }
  EXPECT_EQ(composed_prescreened, span_prescreened);
  auto scan = composed.ScanCandidates(f.embedder.Embed(f.QueryDx()),
                                      RetrievalOptions(3, 10));
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->rows_prescreened, static_cast<size_t>(span_prescreened));
  EXPECT_LE(scan->rows_prescreened, scan->rows_pruned);

  // So does a remote shard, through the kScan response.
  net::RetrievalServer server(&engine, net::RetrievalServerOptions());
  ASSERT_TRUE(server.Start(0).ok());
  net::RemoteRetrievalBackend remote(&f.embedder, "127.0.0.1", server.port(),
                                     net::RemoteBackendOptions());
  auto remote_scan = remote.ScanCandidates(f.embedder.Embed(f.QueryDx()),
                                           RetrievalOptions(3, 10));
  ASSERT_TRUE(remote_scan.ok()) << remote_scan.status();
  EXPECT_EQ(remote_scan->rows_prescreened,
            static_cast<size_t>(span_prescreened));
  server.Stop();

  // There is no size rule: a small shard prescreens too.
  EmbeddedDatabase small = EngineFixture::Rows(1000, 4);
  RetrievalEngine small_engine(&f.embedder, &f.scorer, &small,
                               test::Iota(1000));
  RetrievalRequest small_request{f.QueryDx(), RetrievalOptions(3, 10),
                                 std::make_shared<obs::RequestTrace>()};
  ASSERT_TRUE(small_engine.Retrieve(small_request).ok());
  std::vector<int64_t> small_prescreened =
      PrescreenedPerShard(*small_request.trace);
  ASSERT_EQ(small_prescreened.size(), 1u);
  EXPECT_GT(small_prescreened[0], 0);
}

}  // namespace
}  // namespace qse
