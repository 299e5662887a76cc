#ifndef QSE_CORE_WEAK_CLASSIFIER_H_
#define QSE_CORE_WEAK_CLASSIFIER_H_

#include <limits>

#include "src/core/embedding1d.h"

namespace qse {

/// A trained query-sensitive weak classifier Q̃_{F,V} with its AdaBoost
/// weight α (Sec. 5.1, Eq. 5):
///
///     Q̃_{F,V}(q, a, b) = S_{F,V}(q) · F̃(q, a, b)
///
/// where the splitter S_{F,V}(q) = 1 iff F(q) ∈ V = [lo, hi], and
/// F̃(q,a,b) = |F(q) - F(b)| - |F(q) - F(a)| (Eq. 3 specialized to 1D).
/// Query-insensitive classifiers (the original BoostMap) are the special
/// case lo = -inf, hi = +inf.
struct WeakClassifier {
  Embedding1DSpec spec;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  double alpha = 0.0;

  /// S_{F,V}(q) given the query's 1D projection F(q).
  bool Accepts(double fq) const { return fq >= lo && fq <= hi; }

  /// Q̃_{F,V}(q,a,b) given the three 1D projections.
  double Evaluate(double fq, double fa, double fb) const {
    if (!Accepts(fq)) return 0.0;
    double db = fq > fb ? fq - fb : fb - fq;
    double da = fq > fa ? fq - fa : fa - fq;
    return db - da;
  }
};

}  // namespace qse

#endif  // QSE_CORE_WEAK_CLASSIFIER_H_
