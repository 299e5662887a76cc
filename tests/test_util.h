#ifndef QSE_TESTS_TEST_UTIL_H_
#define QSE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "src/core/qs_embedding.h"
#include "src/core/training_context.h"
#include "src/core/weak_classifier.h"
#include "src/data/dataset.h"
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

/// Oracle defined by a plain function.
class FunctionOracle : public DistanceOracle {
 public:
  using Fn = std::function<double(size_t, size_t)>;
  FunctionOracle(size_t n, Fn fn) : n_(n), fn_(std::move(fn)) {}

  size_t size() const override { return n_; }
  double Distance(size_t i, size_t j) const override { return fn_(i, j); }

 private:
  size_t n_;
  Fn fn_;
};

/// A flat database of `rows` (all of one dimensionality); row i gets id i.
inline EmbeddedDatabase FromRows(const std::vector<Vector>& rows) {
  EmbeddedDatabase db(rows.empty() ? 0 : rows[0].size());
  db.Reserve(rows.size());
  for (const Vector& r : rows) db.Append(r);
  return db;
}

/// The paper's D_out(F(q), F(x)) = sum_i A_i(q) |F_i(q) - F_i(x)|
/// (Eq. 11), summed in dimension order: the reference the scorers and
/// TripleMargin are checked against.  Asymmetric: `fq` is the query.
inline double QuerySensitiveDistance(const QuerySensitiveEmbedding& model,
                                     const Vector& fq, const Vector& fx) {
  const Vector w = model.QueryWeights(fq);
  double d = 0.0;
  for (size_t i = 0; i < w.size(); ++i) d += w[i] * std::fabs(fq[i] - fx[i]);
  return d;
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

/// The randomized suites' scale: QSE_STRESS_ITERS multiplies their op,
/// query and sequence counts (default 1; CI's stress steps raise it).
inline size_t StressScale() {
  if (const char* env = std::getenv("QSE_STRESS_ITERS")) {
    long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 1;
}

/// The randomized suites' master seed: QSE_STRESS_SEED when set, else
/// fresh per run (logged by QSE_LOG_STRESS_SEED, so a failure reruns).
inline uint64_t StressSeed() {
  if (const char* env = std::getenv("QSE_STRESS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  std::random_device rd;
  return (static_cast<uint64_t>(rd()) << 32) | rd();
}

}  // namespace test
}  // namespace qse

/// Every randomized test logs its seed up front (stdout survives even a
/// crash) and scopes it into any gtest failure message.
#define QSE_LOG_STRESS_SEED(seed)                                       \
  std::printf("[ stress ] rerun with QSE_STRESS_SEED=%llu\n",           \
              static_cast<unsigned long long>(seed));                   \
  SCOPED_TRACE(::testing::Message() << "QSE_STRESS_SEED=" << (seed))

#endif  // QSE_TESTS_TEST_UTIL_H_
