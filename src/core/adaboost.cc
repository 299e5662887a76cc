#include "src/core/adaboost.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/util/logging.h"

namespace qse {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Samples a random 1D embedding spec from the candidate pool.  Pivot
/// pairs with near-zero inter-pivot distance are rejected (Eq. 2 divides
/// by DX(x1, x2)).
Embedding1DSpec SampleSpec(const TrainingContext& ctx, double pivot_fraction,
                           Rng* rng) {
  const size_t nc = ctx.num_candidates();
  Embedding1DSpec spec;
  if (nc >= 2 && rng->Bernoulli(pivot_fraction)) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      uint32_t c1 = static_cast<uint32_t>(rng->Index(nc));
      uint32_t c2 = static_cast<uint32_t>(rng->Index(nc));
      if (c1 == c2) continue;
      if (ctx.CandCand(c1, c2) <= 1e-12) continue;
      spec.type = Embedding1DSpec::Type::kPivot;
      spec.c1 = c1;
      spec.c2 = c2;
      return spec;
    }
  }
  spec.type = Embedding1DSpec::Type::kReference;
  spec.c1 = static_cast<uint32_t>(rng->Index(nc));
  return spec;
}

/// A scored candidate weak classifier (before exact α fitting).
struct ScoredCandidate {
  Embedding1DSpec spec;
  double lo = -kInf;
  double hi = kInf;
  double z_bound = kInf;
};

}  // namespace

double MinimizeZ(const std::vector<double>& weights,
                 const std::vector<double>& margins, double passive_mass,
                 double* z_min) {
  assert(weights.size() == margins.size());
  double total_active = 0.0;
  double max_abs = 0.0;
  for (size_t i = 0; i < margins.size(); ++i) {
    total_active += weights[i];
    max_abs = std::max(max_abs, std::fabs(margins[i]));
  }
  if (max_abs == 0.0 || weights.empty()) {
    if (z_min != nullptr) *z_min = passive_mass + total_active;
    return 0.0;
  }
  const double inv_scale = 1.0 / max_abs;

  // Z(beta) with normalized margins s_i in [-1, 1]; alpha = beta / max_abs.
  auto z_at = [&](double beta) {
    double z = passive_mass;
    for (size_t i = 0; i < margins.size(); ++i) {
      z += weights[i] * std::exp(-beta * margins[i] * inv_scale);
    }
    return z;
  };
  auto dz_at = [&](double beta) {
    double d = 0.0;
    for (size_t i = 0; i < margins.size(); ++i) {
      double s = margins[i] * inv_scale;
      d -= weights[i] * s * std::exp(-beta * s);
    }
    return d;
  };

  // Z is strictly convex in beta; locate the sign change of dZ/dbeta with
  // a capped bracket, then bisect.
  constexpr double kBetaCap = 35.0;  // exp stays within double range.
  double d0 = dz_at(0.0);
  double lo_b, hi_b;
  // Whether dZ(lo_b) < 0 is known; dZ(hi_b) < 0 is always known false.
  bool lo_negative = true;
  if (d0 < 0.0) {
    lo_b = 0.0;
    hi_b = kBetaCap;
    if (dz_at(hi_b) < 0.0) {
      // Perfect (or near-perfect) classifier on the active mass: the cap
      // is the minimizer within our numeric budget.
      if (z_min != nullptr) *z_min = z_at(hi_b);
      return hi_b * inv_scale;
    }
  } else if (d0 > 0.0) {
    lo_b = -kBetaCap;
    hi_b = 0.0;
    double d_lo = dz_at(lo_b);
    if (d_lo > 0.0) {
      if (z_min != nullptr) *z_min = z_at(lo_b);
      return lo_b * inv_scale;
    }
    lo_negative = d_lo < 0.0;
  } else {
    if (z_min != nullptr) *z_min = z_at(0.0);
    return 0.0;
  }
  for (int iter = 0; iter < 64; ++iter) {
    double mid = 0.5 * (lo_b + hi_b);
    // Settled: this step, and so every later one, leaves the bracket.
    if (mid == hi_b || (mid == lo_b && lo_negative)) break;
    if (dz_at(mid) < 0.0) {
      lo_b = mid;
      lo_negative = true;
    } else {
      hi_b = mid;
    }
  }
  double beta = 0.5 * (lo_b + hi_b);
  if (z_min != nullptr) *z_min = z_at(beta);
  return beta * inv_scale;
}

AdaBoostResult TrainAdaBoost(const TrainingContext& ctx,
                             const std::vector<Triple>& triples,
                             const AdaBoostOptions& options) {
  const size_t t = triples.size();
  QSE_CHECK_MSG(t >= 2, "need at least 2 training triples");
  const size_t nt = ctx.num_train_objects();
  for (const Triple& tr : triples) {
    QSE_CHECK_MSG(tr.q < nt && tr.a < nt && tr.b < nt,
                  "triple index out of range of the training set");
    QSE_CHECK_MSG(tr.y == 1 || tr.y == -1, "triple label must be +-1");
  }

  Rng rng(options.seed);
  AdaBoostResult result;
  std::vector<double> w(t, 1.0 / static_cast<double>(t));
  std::vector<double> ensemble_margin(t, 0.0);  // y_i * H(q_i,a_i,b_i).

  // The triples grouped by query object once per training, in CSR form:
  // object o's triples are by_query[query_start[o], query_start[o + 1]),
  // in triple-index order.  query_objects lists the objects that are the
  // query of some triple; a candidate orders these, not the triples.
  std::vector<uint32_t> query_start(nt + 1, 0), by_query(t);
  for (const Triple& tr : triples) ++query_start[tr.q + 1];
  std::vector<uint32_t> query_objects;
  for (uint32_t o = 0; o < nt; ++o) {
    if (query_start[o + 1] > 0) query_objects.push_back(o);
    query_start[o + 1] += query_start[o];
  }
  {
    std::vector<uint32_t> next(query_start.begin(), query_start.end() - 1);
    for (size_t i = 0; i < t; ++i) {
      by_query[next[triples[i].q]++] = static_cast<uint32_t>(i);
    }
  }

  // Scratch buffers reused across rounds.
  std::vector<double> values(nt);
  std::vector<double> margin(t);       // y_i * F̃_i.
  std::vector<double> sorted_proj(t);  // F(q_i) in the scoring order.
  std::vector<double> prefix_w(t + 1), prefix_r(t + 1);
  std::vector<size_t> cuts;

  for (size_t round = 0; round < options.rounds; ++round) {
    ScoredCandidate best;

    for (size_t e = 0; e < options.embeddings_per_round; ++e) {
      Embedding1DSpec spec;
      if (options.query_sensitive && !result.rounds.empty() &&
          rng.Bernoulli(options.reuse_fraction)) {
        spec = result.rounds[rng.Index(result.rounds.size())].spec;
      } else {
        spec = SampleSpec(ctx, options.pivot_fraction, &rng);
      }
      Eval1DOnAllTrainObjects(spec, ctx, values.data());

      double max_abs = 0.0;
      for (size_t i = 0; i < t; ++i) {
        const Triple& tr = triples[i];
        double fq = values[tr.q];
        double ga = std::fabs(fq - values[tr.a]);
        double gb = std::fabs(fq - values[tr.b]);
        margin[i] = static_cast<double>(tr.y) * (gb - ga);
        max_abs = std::max(max_abs, std::fabs(margin[i]));
      }
      if (max_abs == 0.0) continue;  // Degenerate embedding.
      const double inv_scale = 1.0 / max_abs;

      if (!options.query_sensitive) {
        // Original BoostMap: V = R; Schapire-Singer bound with W_out = 0.
        double r = 0.0;
        for (size_t i = 0; i < t; ++i) r += w[i] * margin[i] * inv_scale;
        double zb = std::sqrt(std::max(0.0, 1.0 - r * r));
        if (zb < best.z_bound) {
          best = {spec, -kInf, kInf, zb};
        }
        continue;
      }

      // Query-sensitive: score every interval of a quantile grid over the
      // query projections, in O(1) each via prefix sums.  The triples are
      // taken by projection, then query object, then triple index: sort
      // the query objects, then emit each one's triples.
      std::sort(query_objects.begin(), query_objects.end(),
                [&](uint32_t x, uint32_t y) {
                  return values[x] < values[y] ||
                         (values[x] == values[y] && x < y);
                });
      prefix_w[0] = 0.0;
      prefix_r[0] = 0.0;
      size_t i = 0;
      for (uint32_t o : query_objects) {
        for (uint32_t k = query_start[o]; k < query_start[o + 1]; ++k, ++i) {
          uint32_t idx = by_query[k];
          sorted_proj[i] = values[o];
          prefix_w[i + 1] = prefix_w[i] + w[idx];
          prefix_r[i + 1] = prefix_r[i] + w[idx] * margin[idx] * inv_scale;
        }
      }

      // Cut positions: quantiles of the sorted projections, snapped to
      // value boundaries so every scored range maps to a clean interval
      // [lo, hi] of R.
      cuts.clear();
      cuts.push_back(0);
      const size_t grid = std::max<size_t>(2, options.interval_grid);
      for (size_t g = 1; g < grid; ++g) {
        size_t pos = g * t / grid;
        while (pos > 0 && pos < t && sorted_proj[pos - 1] == sorted_proj[pos]) {
          ++pos;
        }
        if (pos > cuts.back() && pos < t) cuts.push_back(pos);
      }
      cuts.push_back(t);

      const double total_w = prefix_w[t];
      const bool by_correlation =
          options.interval_selection ==
          AdaBoostOptions::IntervalSelection::kCorrelation;
      for (size_t u = 0; u + 1 < cuts.size(); ++u) {
        for (size_t v = u + 1; v < cuts.size(); ++v) {
          double w_in = prefix_w[cuts[v]] - prefix_w[cuts[u]];
          if (w_in < options.min_split_mass * total_w) continue;
          double r = prefix_r[cuts[v]] - prefix_r[cuts[u]];
          // Both criteria are expressed as a Z bound so they compare on
          // one scale: kCorrelation uses Z <= sqrt(1 - r^2) (margins
          // outside V contribute 0 to r), kZBound the tighter two-part
          // form.  Lower is better in both cases.
          double zb;
          if (by_correlation) {
            double rr = std::min(std::fabs(r), 1.0);
            zb = std::sqrt(1.0 - rr * rr);
          } else {
            double w_out = total_w - w_in;
            zb = w_out + std::sqrt(std::max(0.0, w_in * w_in - r * r));
          }
          if (zb >= best.z_bound) continue;
          double lo = cuts[u] == 0
                          ? -kInf
                          : 0.5 * (sorted_proj[cuts[u] - 1] +
                                   sorted_proj[cuts[u]]);
          double hi = cuts[v] == t
                          ? kInf
                          : 0.5 * (sorted_proj[cuts[v] - 1] +
                                   sorted_proj[cuts[v]]);
          best = {spec, lo, hi, zb};
        }
      }
    }

    if (best.z_bound >= options.z_stop_threshold) {
      if (options.verbose) {
        QSE_LOG("adaboost: stopping at round " << round
                                               << ", best Z bound "
                                               << best.z_bound);
      }
      break;
    }

    // Exact alpha for the winning classifier (Eq. 8 minimized in alpha).
    WeakClassifier chosen;
    chosen.spec = best.spec;
    chosen.lo = best.lo;
    chosen.hi = best.hi;
    Eval1DOnAllTrainObjects(chosen.spec, ctx, values.data());

    std::vector<double> active_w, active_margin;
    std::vector<double> h(t, 0.0);  // Q̃ value per triple.
    double passive = 0.0;
    double wrong_active = 0.0, total_active = 0.0;
    for (size_t i = 0; i < t; ++i) {
      const Triple& tr = triples[i];
      double fq = values[tr.q];
      double q_tilde = chosen.Evaluate(fq, values[tr.a], values[tr.b]);
      h[i] = q_tilde;
      double s = static_cast<double>(tr.y) * q_tilde;
      if (chosen.Accepts(fq)) {
        active_w.push_back(w[i]);
        active_margin.push_back(s);
        total_active += w[i];
        if (s < 0.0) wrong_active += w[i];
      } else {
        passive += w[i];
      }
    }
    double z = 1.0;
    chosen.alpha = MinimizeZ(active_w, active_margin, passive, &z);
    if (z >= options.z_stop_threshold || chosen.alpha == 0.0) {
      if (options.verbose) {
        QSE_LOG("adaboost: stopping at round " << round << ", exact Z " << z);
      }
      break;
    }

    // Weight update (Eq. 6), normalized so the weights remain a
    // distribution.
    double norm = 0.0;
    for (size_t i = 0; i < t; ++i) {
      w[i] *= std::exp(-chosen.alpha * static_cast<double>(triples[i].y) *
                       h[i]);
      norm += w[i];
    }
    QSE_CHECK(norm > 0.0);
    for (size_t i = 0; i < t; ++i) w[i] /= norm;

    // Telemetry.
    size_t train_wrong = 0;
    for (size_t i = 0; i < t; ++i) {
      ensemble_margin[i] +=
          chosen.alpha * static_cast<double>(triples[i].y) * h[i];
      if (ensemble_margin[i] <= 0.0) ++train_wrong;
    }
    RoundInfo info;
    info.round = round;
    info.chosen = chosen;
    info.z = z;
    info.weighted_error =
        total_active > 0.0 ? wrong_active / total_active : 0.5;
    info.training_error =
        static_cast<double>(train_wrong) / static_cast<double>(t);
    result.history.push_back(info);
    result.rounds.push_back(chosen);
    result.final_training_error = info.training_error;

    if (options.verbose && (round % 10 == 0 || round + 1 == options.rounds)) {
      QSE_LOG("adaboost round " << round << ": Z=" << z
                                << " alpha=" << chosen.alpha
                                << " train_err=" << info.training_error);
    }
  }
  return result;
}

}  // namespace qse
