#include "src/core/triple_sampler.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/util/top_k.h"

namespace qse {

std::vector<std::vector<uint32_t>> NeighborOrdering(const Matrix& dist) {
  const size_t n = dist.rows();
  QSE_CHECK(dist.cols() == n);
  std::vector<std::vector<uint32_t>> order(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t>& row = order[i];
    row.reserve(n - 1);
    for (size_t j = 0; j < n; ++j) {
      if (j != i) row.push_back(static_cast<uint32_t>(j));
    }
    std::sort(row.begin(), row.end(), [&](uint32_t a, uint32_t b) {
      return ValueThenIndexLess(dist(i, a), a, dist(i, b), b);
    });
  }
  return order;
}

std::vector<Triple> SampleRandomTriples(const Matrix& train_dist,
                                        size_t count, Rng* rng) {
  const size_t n = train_dist.rows();
  QSE_CHECK_MSG(n >= 3, "need at least 3 training objects");
  std::vector<Triple> triples;
  triples.reserve(count);
  size_t attempts = 0;
  const size_t max_attempts = count * 100 + 1000;
  while (triples.size() < count && attempts < max_attempts) {
    ++attempts;
    uint32_t q = static_cast<uint32_t>(rng->Index(n));
    uint32_t a = static_cast<uint32_t>(rng->Index(n));
    uint32_t b = static_cast<uint32_t>(rng->Index(n));
    if (q == a || q == b || a == b) continue;
    double da = train_dist(q, a);
    double db = train_dist(q, b);
    if (da == db) continue;  // Type-0 triple; carries no label.
    Triple t;
    t.q = q;
    // Normalize so a is the closer object and y = +1, matching the
    // original BoostMap's convention ("with the constraint that q is
    // closer to a than to b", Sec. 3.2).
    if (da < db) {
      t.a = a;
      t.b = b;
    } else {
      t.a = b;
      t.b = a;
    }
    t.y = 1;
    triples.push_back(t);
  }
  QSE_CHECK_MSG(triples.size() == count,
                "failed to sample enough labelled triples; distance "
                "measure may be degenerate");
  return triples;
}

std::vector<Triple> SampleSelectiveTriples(const Matrix& train_dist,
                                           size_t count, size_t k1,
                                           Rng* rng) {
  const size_t n = train_dist.rows();
  QSE_CHECK_MSG(n >= 4, "need at least 4 training objects");
  QSE_CHECK_MSG(k1 >= 1, "k1 must be >= 1");
  QSE_CHECK_MSG(k1 + 1 <= n - 1,
                "k1 too large for the training set: need k1 + 1 <= |Xtr| - 1");
  std::vector<std::vector<uint32_t>> order = NeighborOrdering(train_dist);

  std::vector<Triple> triples;
  triples.reserve(count);
  size_t attempts = 0;
  const size_t max_attempts = count * 100 + 1000;
  while (triples.size() < count && attempts < max_attempts) {
    ++attempts;
    uint32_t q = static_cast<uint32_t>(rng->Index(n));
    // a: the k'-th nearest neighbor of q with k' in [1, k1] (1-based).
    size_t ka = 1 + rng->Index(k1);
    // b: the k'-th nearest neighbor with k' in [k1+1, n-1].
    size_t kb = k1 + 1 + rng->Index(n - 1 - k1);
    uint32_t a = order[q][ka - 1];
    uint32_t b = order[q][kb - 1];
    if (train_dist(q, a) == train_dist(q, b)) continue;  // Tie at the cut.
    Triple t;
    t.q = q;
    t.a = a;
    t.b = b;
    t.y = 1;
    triples.push_back(t);
  }
  QSE_CHECK_MSG(triples.size() == count,
                "failed to sample enough selective triples");
  return triples;
}

}  // namespace qse
