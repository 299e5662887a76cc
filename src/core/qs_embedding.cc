#include "src/core/qs_embedding.h"

#include <cassert>
#include <cmath>
#include <fstream>
#include <limits>
#include <unordered_map>

#include "src/core/embedding1d.h"
#include "src/util/logging.h"
#include "src/util/serialize.h"

namespace qse {

namespace {
constexpr uint32_t kModelMagic = 0x51534D31;  // "QSM1"
}  // namespace

double QuerySensitiveEmbedding::Coordinate::Value(double d1, double d2) const {
  if (type == Embedding1DSpec::Type::kReference) return d1;
  return PivotProjection(d1, d2, pivot_distance);
}

double QuerySensitiveEmbedding::Coordinate::Weight(double fq) const {
  double a = 0.0;
  for (const Term& term : terms) {
    if (fq >= term.lo && fq <= term.hi) a += term.alpha;
  }
  return a;
}

QuerySensitiveEmbedding QuerySensitiveEmbedding::FromTraining(
    const TrainingContext& ctx, const std::vector<WeakClassifier>& rounds,
    bool query_sensitive) {
  QuerySensitiveEmbedding model;
  model.query_sensitive_ = query_sensitive;
  model.rounds_.reserve(rounds.size());
  for (const WeakClassifier& wc : rounds) {
    StoredRound sr;
    sr.type = wc.spec.type;
    sr.db_id1 = static_cast<uint32_t>(ctx.candidate_db_id(wc.spec.c1));
    if (wc.spec.type == Embedding1DSpec::Type::kPivot) {
      sr.db_id2 = static_cast<uint32_t>(ctx.candidate_db_id(wc.spec.c2));
      sr.pivot_distance = ctx.CandCand(wc.spec.c1, wc.spec.c2);
    }
    sr.lo = wc.lo;
    sr.hi = wc.hi;
    sr.alpha = wc.alpha;
    model.rounds_.push_back(sr);
  }
  model.RebuildCoordinates();
  return model;
}

void QuerySensitiveEmbedding::RebuildCoordinates() {
  coords_.clear();
  // Collapse rounds to unique 1D embeddings (Sec. 5.4: "We construct the
  // set F of all unique 1D embeddings used in H").
  auto key_of = [](const StoredRound& r) {
    uint64_t tag = r.type == Embedding1DSpec::Type::kReference ? 0u : 1u;
    return (tag << 62) | (static_cast<uint64_t>(r.db_id1) << 31) |
           static_cast<uint64_t>(r.db_id2);
  };
  std::unordered_map<uint64_t, size_t> index_of;
  for (const StoredRound& r : rounds_) {
    uint64_t key = key_of(r);
    auto [it, inserted] = index_of.emplace(key, coords_.size());
    if (inserted) {
      Coordinate c;
      c.type = r.type;
      c.db_id1 = r.db_id1;
      c.db_id2 = r.db_id2;
      c.pivot_distance = r.pivot_distance;
      coords_.push_back(c);
    }
    Coordinate::Term term;
    term.lo = r.lo;
    term.hi = r.hi;
    term.alpha = r.alpha;
    coords_[it->second].terms.push_back(term);
  }
}

Vector QuerySensitiveEmbedding::Embed(const DxToDatabaseFn& dx,
                                      size_t* num_exact) const {
  // Deduplicate exact-distance evaluations across coordinates; the same
  // reference object may appear in several coordinates (Sec. 7.1).
  std::unordered_map<uint32_t, double> dist_of;
  auto lookup = [&](uint32_t db_id) {
    auto it = dist_of.find(db_id);
    if (it != dist_of.end()) return it->second;
    double d = dx(db_id);
    dist_of.emplace(db_id, d);
    return d;
  };
  Vector out(coords_.size());
  for (size_t i = 0; i < coords_.size(); ++i) {
    const Coordinate& c = coords_[i];
    double d1 = lookup(c.db_id1);
    double d2 = c.type == Embedding1DSpec::Type::kPivot ? lookup(c.db_id2)
                                                        : 0.0;
    out[i] = c.Value(d1, d2);
  }
  if (num_exact != nullptr) *num_exact = dist_of.size();
  return out;
}

size_t QuerySensitiveEmbedding::EmbeddingCost() const {
  std::unordered_map<uint32_t, bool> seen;
  for (const Coordinate& c : coords_) {
    seen.emplace(c.db_id1, true);
    if (c.type == Embedding1DSpec::Type::kPivot) seen.emplace(c.db_id2, true);
  }
  return seen.size();
}

Vector QuerySensitiveEmbedding::QueryWeights(
    const Vector& embedded_query) const {
  assert(embedded_query.size() == coords_.size());
  Vector w(coords_.size());
  for (size_t i = 0; i < coords_.size(); ++i) {
    w[i] = coords_[i].Weight(embedded_query[i]);
  }
  return w;
}

double QuerySensitiveEmbedding::WeightedDistance(const Vector& weights,
                                                 const Vector& embedded_query,
                                                 const Vector& embedded_x) {
  assert(weights.size() == embedded_query.size());
  assert(weights.size() == embedded_x.size());
  double d = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    d += weights[i] * std::fabs(embedded_query[i] - embedded_x[i]);
  }
  return d;
}

double QuerySensitiveEmbedding::QuerySensitiveDistance(
    const Vector& embedded_query, const Vector& embedded_x) const {
  return WeightedDistance(QueryWeights(embedded_query), embedded_query,
                          embedded_x);
}

double QuerySensitiveEmbedding::TripleMargin(const Vector& fq,
                                             const Vector& fa,
                                             const Vector& fb) const {
  Vector w = QueryWeights(fq);
  return WeightedDistance(w, fq, fb) - WeightedDistance(w, fq, fa);
}

QuerySensitiveEmbedding QuerySensitiveEmbedding::Prefix(size_t j) const {
  QuerySensitiveEmbedding out;
  out.query_sensitive_ = query_sensitive_;
  size_t take = j < rounds_.size() ? j : rounds_.size();
  out.rounds_.assign(rounds_.begin(),
                     rounds_.begin() + static_cast<long>(take));
  out.RebuildCoordinates();
  return out;
}

Status QuerySensitiveEmbedding::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  BinaryWriter w(&out);
  w.WriteU32(kModelMagic);
  w.WriteU32(query_sensitive_ ? 1 : 0);
  w.WriteU64(rounds_.size());
  for (const StoredRound& r : rounds_) {
    w.WriteU32(r.type == Embedding1DSpec::Type::kReference ? 0 : 1);
    w.WriteU32(r.db_id1);
    w.WriteU32(r.db_id2);
    w.WriteDouble(r.pivot_distance);
    w.WriteDouble(r.lo);
    w.WriteDouble(r.hi);
    w.WriteDouble(r.alpha);
  }
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

StatusOr<QuerySensitiveEmbedding> QuerySensitiveEmbedding::Load(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("model file not found: " + path);
  BinaryReader r(&in);
  uint32_t magic = 0;
  QSE_RETURN_IF_ERROR(r.ReadU32(&magic));
  if (magic != kModelMagic) {
    return Status::IOError("bad magic in model file: " + path);
  }
  uint32_t qs = 0;
  QSE_RETURN_IF_ERROR(r.ReadU32(&qs));
  uint64_t n = 0;
  QSE_RETURN_IF_ERROR(r.ReadU64(&n));
  if (n > (1ull << 24)) return Status::IOError("round count implausible");
  QuerySensitiveEmbedding model;
  model.query_sensitive_ = qs != 0;
  model.rounds_.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    StoredRound& sr = model.rounds_[i];
    uint32_t type = 0;
    QSE_RETURN_IF_ERROR(r.ReadU32(&type));
    sr.type = type == 0 ? Embedding1DSpec::Type::kReference
                        : Embedding1DSpec::Type::kPivot;
    QSE_RETURN_IF_ERROR(r.ReadU32(&sr.db_id1));
    QSE_RETURN_IF_ERROR(r.ReadU32(&sr.db_id2));
    QSE_RETURN_IF_ERROR(r.ReadDouble(&sr.pivot_distance));
    QSE_RETURN_IF_ERROR(r.ReadDouble(&sr.lo));
    QSE_RETURN_IF_ERROR(r.ReadDouble(&sr.hi));
    QSE_RETURN_IF_ERROR(r.ReadDouble(&sr.alpha));
  }
  model.RebuildCoordinates();
  return model;
}

}  // namespace qse
