#include "src/core/adaboost.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/util/logging.h"
#include "src/util/top_k.h"

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

/// A candidate's scoring layout: the query objects ordered by (F, object),
/// the quantile cuts in that order and the interval edge at each cut.  A
/// reference embedding's layout depends on its candidate object alone.
struct ProjectionLayout {
  std::vector<uint32_t> order;   // Query objects by (F(o), o).
  std::vector<uint32_t> cut_at;  // Objects before each cut: 0, ..., |order|.
  std::vector<double> edge;      // Edge at each cut: -inf, ..., +inf.
};

/// Lays out the query objects under the projections `values`.  Cuts sit
/// at the quantiles g t / grid of the triple sequence (each object's
/// triples in turn), snapped forward to a change of projection so every
/// scored range maps to a clean interval [lo, hi] of R.  One object's
/// triples share a projection, so every cut falls between two objects.
void BuildLayout(const double* values,
                 const std::vector<uint32_t>& query_objects,
                 const std::vector<uint32_t>& query_start, size_t grid,
                 ProjectionLayout* layout) {
  std::vector<uint32_t>& order = layout->order;
  order = query_objects;
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    return ValueThenIndexLess(values[x], x, values[y], y);
  });
  auto triples_of = [&](size_t k) {
    return query_start[order[k] + 1] - query_start[order[k]];
  };
  auto same_projection = [&](size_t k) {
    const double x = values[order[k - 1]], y = values[order[k]];
    return x == y || (std::isnan(x) && std::isnan(y));
  };
  const size_t t = query_start.back();
  const size_t nq = order.size();
  layout->cut_at.assign(1, 0);
  layout->edge.assign(1, -kInf);
  size_t k = 0, end = 0, last_end = 0;  // order[0, k) holds end triples.
  for (size_t g = 1; g < grid; ++g) {
    const size_t pos = g * t / grid;
    while (end < pos) end += triples_of(k++);
    while (k > 0 && k < nq && same_projection(k)) end += triples_of(k++);
    if (end > last_end && end < t) {
      layout->cut_at.push_back(static_cast<uint32_t>(k));
      layout->edge.push_back(0.5 * (values[order[k - 1]] + values[order[k]]));
      last_end = end;
    }
  }
  layout->cut_at.push_back(static_cast<uint32_t>(nq));
  layout->edge.push_back(kInf);
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
  const size_t n = margins.size();
  double total_active = 0.0;
  double max_abs = 0.0;
  // The sign certificates below need w_i >= 0 and every s_i finite.
  bool certify = true;
  for (size_t i = 0; i < n; ++i) {
    total_active += weights[i];
    max_abs = std::max(max_abs, std::fabs(margins[i]));
    certify = certify && weights[i] >= 0.0 && weights[i] < kInf &&
              std::isfinite(margins[i]);
  }
  if (max_abs == 0.0 || weights.empty()) {
    if (z_min != nullptr) *z_min = passive_mass + total_active;
    return 0.0;
  }
  const double inv_scale = 1.0 / max_abs;
  certify = certify && inv_scale < kInf;

  // Z(beta) with normalized margins s_i in [-1, 1]; alpha = beta / max_abs.
  auto z_at = [&](double beta) {
    double z = passive_mass;
    for (size_t i = 0; i < n; ++i) {
      z += weights[i] * std::exp(-beta * margins[i] * inv_scale);
    }
    return z;
  };
  // One exact pass at beta: d is the rounded dZ/dbeta the bisection
  // decides on; abs and slope share its exps.
  struct Pass {
    double d = 0.0;      // -sum t_i, rounded term by term.
    double abs = 0.0;    // sum |t_i|.
    double slope = 0.0;  // sum t_i s_i, d's derivative.
  };
  auto pass_at = [&](double beta) {
    Pass p;
    for (size_t i = 0; i < n; ++i) {
      double s = margins[i] * inv_scale;
      double t = weights[i] * s * std::exp(-beta * s);
      p.d -= t;
      p.abs += std::fabs(t);
      p.slope += t * s;
    }
    return p;
  };

  // Skipping passes without moving a bit.  Let s_i be the double
  // margins[i] * inv_scale, t_i(b) = w_i s_i e^(-b s_i), g(b) = -sum t_i
  // (the real value a pass rounds to d(b)), T(b) = sum |t_i|, u = 2^-53
  // and gamma_k = k u / (1 - k u).
  //  1. Error.  For |b| <= 35 a term's rounding is: the argument -b s_i
  //     (a factor e^(35u) after the exp), exp itself (within 2 ulp, 4u)
  //     and the two products (2u), all within gamma_42; each product may
  //     underflow by 2^-1075 absolute, which the exp (< e^35.1 < 2^51)
  //     scales to under 2^-1023.  The n - 1 subtractions add
  //     gamma_(n-1) of sum |t|.
  //     So |d(b) - g(b)| <= gamma_m T(b) + n 2^-1022 with m = n + 64.
  //     p.abs is within gamma_m of T(b) as well, so
  //     E(b) = 2 m u p.abs + n 2^-1020 bounds the error, with room left
  //     for E's own two roundings.
  //  2. Envelopes.  For w_i >= 0 the derivative of g -/+ gamma_m T is
  //     sum w_i s_i^2 e^(-b s_i) (1 -/+ gamma_m sgn s_i) >= 0, so both are
  //     non-decreasing in b.
  //  3. Certificate.  If d(x) < -2E(x), then g(x) + gamma_m T(x) + n 2^-1022
  //     < 0; by 2 that holds at every b <= x, and by 1 d(b) < 0 there.
  //     Likewise d(x) > 2E(x) proves d(b) > 0 for every b >= x.
  // So a midpoint at or left of neg_edge takes `d < 0`, one at or right
  // of pos_edge takes `d >= 0`, exactly as its pass would decide.
  double neg_edge = -kInf, pos_edge = kInf;
  const double err_rel = static_cast<double>(n + 64) * 0x1p-52;
  const double err_abs = static_cast<double>(n) * 0x1p-1020;
  // Moves the edges by the pass at beta; returns its band 2E (or +inf).
  auto certify_pass = [&](double beta, const Pass& p) {
    if (!certify || !(p.abs < 0x1p1000)) return kInf;  // No overflow.
    const double band = 2.0 * (err_rel * p.abs + err_abs);
    if (p.d < -band) neg_edge = std::max(neg_edge, beta);
    if (p.d > band) pos_edge = std::min(pos_edge, beta);
    return band;
  };

  // Z is strictly convex in beta; locate the sign change of dZ/dbeta with
  // a capped bracket, then bisect.
  constexpr double kBetaCap = 35.0;  // exp stays within double range.
  const Pass p0 = pass_at(0.0);
  const double d0 = p0.d;
  double lo_b, hi_b;
  // Whether dZ(lo_b) < 0 is known; dZ(hi_b) < 0 is always known false.
  bool lo_negative = true;
  if (d0 < 0.0) {
    lo_b = 0.0;
    hi_b = kBetaCap;
    if (pass_at(hi_b).d < 0.0) {
      // Perfect (or near-perfect) classifier on the active mass: the cap
      // is the minimizer within our numeric budget.
      if (z_min != nullptr) *z_min = z_at(hi_b);
      return hi_b * inv_scale;
    }
  } else if (d0 > 0.0) {
    lo_b = -kBetaCap;
    hi_b = 0.0;
    double d_lo = pass_at(lo_b).d;
    if (d_lo > 0.0) {
      if (z_min != nullptr) *z_min = z_at(lo_b);
      return lo_b * inv_scale;
    }
    lo_negative = d_lo < 0.0;
  } else {
    if (z_min != nullptr) *z_min = z_at(0.0);
    return 0.0;
  }

  // Localise the sign change: safeguarded Newton steps from 0 inside the
  // sign bracket [a, b] while each pass certifies its side; then, around
  // the first pass x inside its own band, certify a point on each side,
  // doubling the offset from 2 band / slope.
  if (certify) {
    constexpr int kNewtonSteps = 16;
    constexpr int kCertifySteps = 8;
    double a = lo_b, b = hi_b, x = 0.0;
    Pass p = p0;
    double band = certify_pass(x, p);
    for (int step = 0; step < kNewtonSteps && std::fabs(p.d) > band;
         ++step) {
      double next = x - p.d / p.slope;
      if (!(next > a && next < b)) next = 0.5 * (a + b);
      x = next;
      p = pass_at(x);
      band = certify_pass(x, p);
      (p.d < 0.0 ? a : b) = x;
    }
    if (std::fabs(p.d) <= band) {
      const double width = 2.0 * band / p.slope;
      double off = width;
      for (int k = 0; k < kCertifySteps && x - off > lo_b && neg_edge < x - off;
           ++k, off *= 2.0) {
        certify_pass(x - off, pass_at(x - off));
      }
      off = width;
      for (int k = 0; k < kCertifySteps && x + off < hi_b && pos_edge > x + off;
           ++k, off *= 2.0) {
        certify_pass(x + off, pass_at(x + off));
      }
    }
  }

  for (int iter = 0; iter < 64; ++iter) {
    double mid = 0.5 * (lo_b + hi_b);
    // Settled: this step, and so every later one, leaves the bracket.
    if (mid == hi_b || (mid == lo_b && lo_negative)) break;
    bool negative = mid <= neg_edge;
    if (!negative && mid < pos_edge) {
      const Pass p = pass_at(mid);
      certify_pass(mid, p);
      negative = p.d < 0.0;
    }
    if (negative) {
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

  // Reference layouts are built on first use and kept: no round's
  // weights change them.  A pivot's layout is rebuilt each time.
  const size_t grid = std::max<size_t>(2, options.interval_grid);
  std::vector<ProjectionLayout> reference_layouts(
      options.query_sensitive ? ctx.num_candidates() : 0);
  ProjectionLayout pivot_layout;

  // Scratch buffers reused across rounds.
  std::vector<double> values(nt);
  std::vector<double> margin(t);  // y_i * F̃_i.
  std::vector<double> cut_w, cut_r;  // Prefix sums at the cuts.

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
      // taken by projection, then query object, then triple index: walk
      // the layout's objects, each one's triples in turn, and record the
      // running sums at the cuts.
      ProjectionLayout* layout = &pivot_layout;
      if (spec.type == Embedding1DSpec::Type::kReference) {
        layout = &reference_layouts[spec.c1];
      }
      if (layout == &pivot_layout || layout->cut_at.empty()) {
        BuildLayout(values.data(), query_objects, query_start, grid, layout);
      }
      const size_t num_cuts = layout->cut_at.size();
      cut_w.assign(num_cuts, 0.0);
      cut_r.assign(num_cuts, 0.0);
      double sum_w = 0.0, sum_r = 0.0;
      for (size_t c = 1, k = 0; c < num_cuts; ++c) {
        for (; k < layout->cut_at[c]; ++k) {
          const uint32_t o = layout->order[k];
          for (uint32_t j = query_start[o]; j < query_start[o + 1]; ++j) {
            const uint32_t idx = by_query[j];
            sum_w += w[idx];
            sum_r += w[idx] * margin[idx] * inv_scale;
          }
        }
        cut_w[c] = sum_w;
        cut_r[c] = sum_r;
      }

      const double total_w = cut_w.back();
      const bool by_correlation =
          options.interval_selection ==
          AdaBoostOptions::IntervalSelection::kCorrelation;
      for (size_t u = 0; u + 1 < num_cuts; ++u) {
        for (size_t v = u + 1; v < num_cuts; ++v) {
          double w_in = cut_w[v] - cut_w[u];
          if (w_in < options.min_split_mass * total_w) continue;
          double r = cut_r[v] - cut_r[u];
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
          if (!(zb < best.z_bound)) continue;  // A NaN bound never wins.
          best = {spec, layout->edge[u], layout->edge[v], zb};
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
