#ifndef QSE_TESTS_TEST_UTIL_H_
#define QSE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "src/core/qs_embedding.h"
#include "src/core/training_context.h"
#include "src/core/weak_classifier.h"
#include "src/data/dataset.h"
#include "src/data/drift_generator.h"
#include "src/distance/lp.h"
#include "src/retrieval/embedded_database.h"
#include "src/retrieval/retrieval_backend.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/util/random.h"

namespace qse {
namespace test {

/// Uniform random points in the unit square under L2 — the toy space of
/// the paper's Fig. 1, used across the core test suites.
inline ObjectOracle<Vector> MakePlaneOracle(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  return ObjectOracle<Vector>(std::move(pts), L2Distance);
}

/// [0, n) as ids.
inline std::vector<size_t> Iota(size_t n, size_t start = 0) {
  std::vector<size_t> ids(n);
  std::iota(ids.begin(), ids.end(), start);
  return ids;
}

/// A query-insensitive model whose coordinate i is the distance to
/// database object i of `oracle` and whose A_i(q) is alphas[i] for every
/// query: a fixed weight vector, negative entries included, like the
/// signed A_i(q) trained Se-QS models give most queries.  `oracle` must
/// hold more than alphas.size() objects.
inline QuerySensitiveEmbedding MakeFixedWeightModel(
    const DistanceOracle& oracle, const std::vector<double>& alphas) {
  const size_t d = alphas.size();
  TrainingContext ctx = TrainingContext::Build(oracle, Iota(d), Iota(1, d));
  std::vector<WeakClassifier> rounds(d);
  for (size_t i = 0; i < d; ++i) {
    rounds[i].spec.c1 = static_cast<uint32_t>(i);
    rounds[i].alpha = alphas[i];
  }
  return QuerySensitiveEmbedding::FromTraining(ctx, rounds,
                                               /*query_sensitive=*/false);
}

/// A new empty directory for durability files, unique per call and
/// process — concurrent `ctest -j` processes never share one — and
/// removed when the process exits.
inline std::string FreshDir(const std::string& name) {
  struct Registry {
    std::mutex mu;
    std::vector<std::string> dirs;
    ~Registry() {
      for (const std::string& dir : dirs) std::filesystem::remove_all(dir);
    }
  };
  static Registry registry;
  static std::atomic<size_t> next{0};
  std::string dir = ::testing::TempDir() + "/" + name + "." +
                    std::to_string(::getpid()) + "." +
                    std::to_string(next.fetch_add(1));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.dirs.push_back(dir);
  return dir;
}

/// The databases of every shard of `engine` in shard order: the
/// durability layer's snapshot and restore targets.
inline std::vector<EmbeddedDatabase*> ShardDbs(RetrievalEngine* engine) {
  std::vector<EmbeddedDatabase*> dbs;
  for (size_t s = 0; s < engine->num_shards(); ++s) {
    dbs.push_back(engine->mutable_db(s));
  }
  return dbs;
}

/// memcmp that tolerates empty ranges (whose pointers may be null).
inline bool SameBytes(const void* a, const void* b, size_t bytes) {
  return bytes == 0 || std::memcmp(a, b, bytes) == 0;
}

/// Bit-identity of everything two databases answer from: the float64
/// matrix and the id column.  The int8 matrix is a cache of the rows
/// whose scales depend on mutation history (EmbeddedDatabase::
/// RestoreVersion), so only its presence is compared.
inline void ExpectDbsIdentical(const EmbeddedDatabase& a,
                               const EmbeddedDatabase& b,
                               const std::string& what) {
  SCOPED_TRACE(what);
  EmbeddedDatabase::Snapshot sa = a.snapshot();
  EmbeddedDatabase::Snapshot sb = b.snapshot();
  const EmbeddedDatabase::View& va = sa.view();
  const EmbeddedDatabase::View& vb = sb.view();
  ASSERT_EQ(va.size(), vb.size());
  ASSERT_EQ(va.dims(), vb.dims());
  const size_t cells = va.size() * va.dims();
  EXPECT_TRUE(SameBytes(va.data(), vb.data(), cells * sizeof(double)));
  EXPECT_TRUE(SameBytes(va.ids(), vb.ids(), va.size() * sizeof(size_t)));
  EXPECT_EQ(va.has_i8(), vb.has_i8());
}

/// The drift scenarios the drift suites share.  `onset` is in workload
/// steps; magnitudes are in point-coordinate units over [0,1]^d, where
/// 0.35 costs a frozen embedding a large recall fraction.
inline DriftSchedule AbruptDrift(size_t onset, double magnitude = 0.35) {
  DriftSchedule s;
  s.kind = DriftKind::kAbrupt;
  s.onset = onset;
  s.magnitude = magnitude;
  return s;
}

/// Linear ramp over `ramp` steps from `onset`.
inline DriftSchedule GradualDrift(size_t onset, size_t ramp,
                                  double magnitude = 0.35) {
  DriftSchedule s = AbruptDrift(onset, magnitude);
  s.kind = DriftKind::kGradual;
  s.ramp = ramp;
  return s;
}

/// Drifted and clean blocks of `period` steps, alternating from `onset`.
inline DriftSchedule RecurrentDrift(size_t onset, size_t period,
                                    double magnitude = 0.35) {
  DriftSchedule s = AbruptDrift(onset, magnitude);
  s.kind = DriftKind::kRecurrent;
  s.period = period;
  return s;
}

}  // namespace test
}  // namespace qse

#endif  // QSE_TESTS_TEST_UTIL_H_
