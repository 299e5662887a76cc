#ifndef QSE_UTIL_TOP_K_H_
#define QSE_UTIL_TOP_K_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qse {

/// An (index, score) pair ordered by ascending score; ties broken by index
/// so that results are fully deterministic.
struct ScoredIndex {
  size_t index = 0;
  double score = 0.0;

  friend bool operator<(const ScoredIndex& a, const ScoredIndex& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.index < b.index;
  }
  friend bool operator==(const ScoredIndex& a, const ScoredIndex& b) {
    return a.index == b.index && a.score == b.score;
  }
};

/// Ascending (value, index) order with NaN after every number: a strict
/// total order even on NaN values, so std::sort's result under it is
/// unique (a plain `<` on the values makes std::sort undefined on NaN).
inline bool ValueThenIndexLess(double va, size_t a, double vb, size_t b) {
  const bool a_nan = std::isnan(va), b_nan = std::isnan(vb);
  if (a_nan != b_nan) return b_nan;
  if (!a_nan && va != vb) return va < vb;
  return a < b;
}

/// Returns the k smallest (index, score) pairs of `scores`, sorted
/// ascending.  k is clamped to scores.size().  O(n + k log k) via
/// nth_element.
std::vector<ScoredIndex> SmallestK(const std::vector<double>& scores,
                                   size_t k);

/// The k-th smallest of v[0..n), 1 <= k <= n: the value std::nth_element
/// would place at index k - 1.  `v` is left as it is.
///
/// An MSD radix select with no data-dependent branch per element: each
/// level builds a 256-bucket histogram over the live [min, max] range,
/// finds the bucket holding the k-th value and compacts that bucket
/// alone, and at most 16 values are ranked by counting.  Comparison-based
/// selection mispredicts about every other branch on values it has not
/// seen before, which is the prescreened scan's case (filter_scorer.cc).
int32_t SelectKthSmallest(const int32_t* v, size_t n, size_t k);

/// An upper bound on SelectKthSmallest(v, n, k) from its first histogram
/// alone: the largest value the bucket holding the k-th smallest admits,
/// capped at max(v).  It exceeds the k-th smallest by less than
/// (max(v) - min(v)) / 128, and by nothing when that range is under 256.
int32_t KthSmallestUpperBound(const int32_t* v, size_t n, size_t k);

/// Returns indices of `scores` sorted by ascending score (full argsort with
/// deterministic tie-breaking by index).
std::vector<size_t> ArgsortAscending(const std::vector<double>& scores);

/// Merges several lists, each sorted ascending by (score, index), into the
/// k smallest entries overall, sorted ascending.  The gather half of
/// scatter/gather retrieval: per-shard top-p candidate lists funnel through
/// this to form the global top-p.  A k-way heap merge, O(S + k log S) for S
/// lists — it never touches the tails the merged prefix cannot reach.
/// Entries must be unique across lists under the (score, index) order
/// (shards hold disjoint ids); k is clamped to the total entry count.
std::vector<ScoredIndex> MergeSortedTopK(
    const std::vector<std::vector<ScoredIndex>>& lists, size_t k);

/// Streaming bounded selection of the k smallest ScoredIndex entries, with
/// the same (score, index) total order — and therefore the same results —
/// as SmallestK.  Backs the filter step's early-abandon scan: threshold()
/// exposes the current k-th best score so a scorer can abandon a row as
/// soon as its partial sum provably exceeds it.
class BoundedTopK {
 public:
  explicit BoundedTopK(size_t k) : k_(k) { heap_.reserve(k); }

  /// True once k entries are held (the threshold is then meaningful).
  bool full() const { return heap_.size() >= k_; }

  /// Score of the current k-th smallest entry; +infinity while not full
  /// (nothing can be abandoned yet), -infinity when k == 0.
  double threshold() const;

  /// Inserts `cand` if it is among the k smallest seen so far; returns
  /// whether it was kept.
  bool Offer(ScoredIndex cand);

  /// Extracts the kept entries sorted ascending by (score, index),
  /// leaving the container empty.
  std::vector<ScoredIndex> TakeSortedAscending();

  size_t size() const { return heap_.size(); }

 private:
  size_t k_;
  std::vector<ScoredIndex> heap_;  // Max-heap: heap_[0] is the k-th best.
};

}  // namespace qse

#endif  // QSE_UTIL_TOP_K_H_
