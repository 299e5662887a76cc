// Embed's exact-distance calls, counted and ordered: every model asks DX
// once per distinct database id, in the order its coordinates first name
// the id, and its output equals a per-coordinate evaluation that asks DX
// for every use, bit for bit.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/qs_embedding.h"
#include "src/core/triple_sampler.h"
#include "src/embedding/fastmap.h"
#include "src/retrieval/embedder_adapters.h"
#include "tests/test_util.h"

namespace qse {
namespace {

/// Appends `id` to `order` unless it is there already.
void AddFirstUse(std::vector<size_t>* order, size_t id) {
  if (std::find(order->begin(), order->end(), id) == order->end()) {
    order->push_back(id);
  }
}

/// DX from database object `self` of `oracle`, as EmbedDatabase asks it.
DxToDatabaseFn DxFrom(const DistanceOracle& oracle, size_t self) {
  return [&oracle, self](size_t other) {
    return self == other ? 0.0 : oracle.Distance(self, other);
  };
}

/// Embeds `self` through `embedder` while recording its DX calls, and
/// checks them against `first_use` and the output against `reference`.
void ExpectEmbedAsksEachIdOnce(const Embedder& embedder,
                               const DistanceOracle& oracle, size_t self,
                               const std::vector<size_t>& first_use,
                               const Vector& reference,
                               const std::string& where) {
  DxToDatabaseFn dx = DxFrom(oracle, self);
  std::vector<size_t> calls;
  size_t num_exact = 0;
  Vector out = embedder.Embed(
      [&](size_t other) {
        calls.push_back(other);
        return dx(other);
      },
      &num_exact);
  EXPECT_EQ(calls, first_use) << where;
  EXPECT_EQ(calls.size(), embedder.EmbeddingCost()) << where;
  EXPECT_EQ(calls.size(), num_exact) << where;
  ASSERT_EQ(out.size(), reference.size()) << where;
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(std::memcmp(&out[i], &reference[i], sizeof(double)), 0)
        << where << " coordinate " << i << ": " << out[i]
        << " != " << reference[i];
  }
}

void ExpectQseEmbedAsksEachIdOnce(const QuerySensitiveEmbedding& model,
                                  const DistanceOracle& oracle,
                                  const std::string& where) {
  std::vector<size_t> first_use;
  for (const QuerySensitiveEmbedding::Coordinate& c : model.coordinates()) {
    AddFirstUse(&first_use, c.db_id1);
    if (c.type == Embedding1DSpec::Type::kPivot) {
      AddFirstUse(&first_use, c.db_id2);
    }
  }
  for (size_t self : {size_t{0}, size_t{7}, size_t{20}, size_t{49}}) {
    DxToDatabaseFn dx = DxFrom(oracle, self);
    Vector reference;
    for (const QuerySensitiveEmbedding::Coordinate& c : model.coordinates()) {
      double d2 =
          c.type == Embedding1DSpec::Type::kPivot ? dx(c.db_id2) : 0.0;
      reference.push_back(c.Value(dx(c.db_id1), d2));
    }
    ExpectEmbedAsksEachIdOnce(QseEmbedderAdapter(&model), oracle, self,
                              first_use, reference,
                              where + " self=" + std::to_string(self));
  }
}

TEST(EmbedDxCallsTest, SeQsModelAsksEachIdOnceInFirstUseOrder) {
  auto oracle = test::MakePlaneOracle(50, 31);
  TrainingContext ctx =
      TrainingContext::Build(oracle, test::Iota(12), test::Iota(38, 12));
  Rng rng(32);
  auto triples =
      SampleSelectiveTriples(ctx.train_train_matrix(), 800, 3, &rng);
  AdaBoostOptions options;
  options.rounds = 40;
  options.embeddings_per_round = 12;
  options.pivot_fraction = 0.5;
  options.query_sensitive = true;
  options.seed = 33;
  AdaBoostResult boost = TrainAdaBoost(ctx, triples, options);
  QuerySensitiveEmbedding model =
      QuerySensitiveEmbedding::FromTraining(ctx, boost.rounds, true);

  // The case the deduplication exists for: a reference coordinate's
  // object is also one of a pivot coordinate's two.
  bool shared = false;
  for (const auto& r : model.coordinates()) {
    if (r.type != Embedding1DSpec::Type::kReference) continue;
    for (const auto& p : model.coordinates()) {
      if (p.type == Embedding1DSpec::Type::kPivot &&
          (p.db_id1 == r.db_id1 || p.db_id2 == r.db_id1)) {
        shared = true;
      }
    }
  }
  ASSERT_TRUE(shared);
  ASSERT_LT(model.EmbeddingCost(), model.dims() + model.dims());

  ExpectQseEmbedAsksEachIdOnce(model, oracle, "trained");
  ExpectQseEmbedAsksEachIdOnce(model.Prefix(model.num_rounds() / 2), oracle,
                               "prefix");
  std::string path = testing::TempDir() + "/embed_dx_calls_model.bin";
  ASSERT_TRUE(model.Save(path).ok());
  StatusOr<QuerySensitiveEmbedding> loaded =
      QuerySensitiveEmbedding::Load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok());
  ExpectQseEmbedAsksEachIdOnce(*loaded, oracle, "loaded");
}

/// FastMap's projection for one object, asking DX for every pivot of
/// every level: the formula of fastmap.h without the deduplication.
Vector FastMapReference(const FastMapModel& model, const DxToDatabaseFn& dx) {
  auto residual = [](double raw, const Vector& xa, const Vector& xb,
                     size_t levels) {
    double r = raw * raw;
    for (size_t l = 0; l < levels; ++l) {
      double d = xa[l] - xb[l];
      r -= d * d;
    }
    return r > 0.0 ? r : 0.0;
  };
  Vector coords;
  for (const FastMapModel::Level& lv : model.levels()) {
    size_t l = coords.size();
    double da2 = residual(dx(lv.pivot_a), coords, lv.coords_a, l);
    double db2 = residual(dx(lv.pivot_b), coords, lv.coords_b, l);
    double dab2 = lv.dist_ab * lv.dist_ab;
    coords.push_back((da2 + dab2 - db2) / (2.0 * lv.dist_ab));
  }
  return coords;
}

TEST(EmbedDxCallsTest, FastMapAsksEachPivotOnceInFirstUseOrder) {
  // Few points in R^6 under L1: non-Euclidean, so FastMap keeps finding
  // spread for many levels, and its farthest-pair heuristic reuses
  // pivots across levels.
  Rng rng(41);
  std::vector<Vector> pts(12, Vector(6));
  for (Vector& p : pts) {
    for (double& v : p) v = rng.Uniform(0, 1);
  }
  ObjectOracle<Vector> oracle(std::move(pts), L1Distance);
  FastMapOptions options;
  options.dims = 10;
  FastMapModel model = BuildFastMap(oracle, test::Iota(12), options);
  ASSERT_GE(model.dims(), 4u);
  ASSERT_LT(model.EmbeddingCost(), 2 * model.dims());  // A pivot repeats.

  for (const FastMapModel& m : {model, model.Prefix(model.dims() / 2)}) {
    std::vector<size_t> first_use;
    for (const FastMapModel::Level& lv : m.levels()) {
      AddFirstUse(&first_use, lv.pivot_a);
      AddFirstUse(&first_use, lv.pivot_b);
    }
    for (size_t self : {size_t{0}, size_t{5}, size_t{11}}) {
      ExpectEmbedAsksEachIdOnce(m, oracle, self, first_use,
                                FastMapReference(m, DxFrom(oracle, self)),
                                "fastmap dims=" + std::to_string(m.dims()) +
                                    " self=" + std::to_string(self));
    }
  }
}

}  // namespace
}  // namespace qse
