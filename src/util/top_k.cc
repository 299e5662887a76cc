#include "src/util/top_k.h"

#include <limits>

#include "src/util/logging.h"

namespace qse {
namespace {

/// Selections over at most this many keys rank every key instead.
constexpr size_t kRankSelectMax = 16;

/// The k-th smallest of keys[0..n): the key with fewer than k keys below
/// it and at least k at or below it.  O(n^2) compares, no branch on them.
uint32_t RankSelect(const uint32_t* keys, size_t n, size_t k) {
  uint32_t kth = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t below = 0;
    size_t at_or_below = 0;
    for (size_t j = 0; j < n; ++j) {
      below += keys[j] < keys[i];
      at_or_below += keys[j] <= keys[i];
    }
    kth = below < k && k <= at_or_below ? keys[i] : kth;
  }
  return kth;
}

/// (min, max) of v[0..n), n >= 1.
std::pair<int32_t, int32_t> MinMax(const int32_t* v, size_t n) {
  int32_t lo = v[0];
  int32_t hi = v[0];
  for (size_t i = 1; i < n; ++i) {
    lo = std::min(lo, v[i]);
    hi = std::max(hi, v[i]);
  }
  return {lo, hi};
}

/// The shift that maps keys in [0, range], range > 0, onto at most 256
/// buckets of width 2^shift <= range / 128.
int BucketShift(uint32_t range) {
  return std::max(0, 32 - __builtin_clz(range) - 8);
}

/// One radix level over the keys uint32_t(in[i]) - base, all in [0,
/// range]: the 256-bucket histogram at `shift`, and the bucket that holds
/// the k-th smallest key.  *k becomes that key's rank within its bucket.
template <typename T>
uint32_t KthBucket(const T* in, size_t n, uint32_t base, int shift,
                   size_t* k) {
  uint32_t hist[256] = {};
  for (size_t i = 0; i < n; ++i) {
    ++hist[(static_cast<uint32_t>(in[i]) - base) >> shift];
  }
  uint32_t bucket = 0;
  while (hist[bucket] < *k) *k -= hist[bucket++];
  return bucket;
}

/// Narrows the selection to the k-th smallest key's bucket: writes that
/// bucket's keys, rebased to its first value, to out[0..m) (out may be
/// `in`) and returns m, moving *base to the bucket's first value and
/// *range to the bucket's width.  The compaction stores every key and
/// advances by whether it belongs, so it never branches on a key.
template <typename T>
size_t NarrowToKthBucket(const T* in, size_t n, uint32_t* base,
                         uint32_t* range, size_t* k, uint32_t* out) {
  const int shift = BucketShift(*range);
  const uint32_t bucket = KthBucket(in, n, *base, shift, k);
  const uint32_t first = bucket << shift;
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t key = static_cast<uint32_t>(in[i]) - *base;
    out[m] = key - first;
    m += (key >> shift) == bucket;
  }
  *base += first;
  *range = std::min(*range - first, (uint32_t{1} << shift) - 1);
  return m;
}

}  // namespace

std::vector<ScoredIndex> SmallestK(const std::vector<double>& scores,
                                   size_t k) {
  k = std::min(k, scores.size());
  std::vector<ScoredIndex> all(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) all[i] = {i, scores[i]};
  if (k < all.size()) {
    std::nth_element(all.begin(), all.begin() + static_cast<long>(k),
                     all.end());
    all.resize(k);
  }
  std::sort(all.begin(), all.end());
  return all;
}

int32_t SelectKthSmallest(const int32_t* v, size_t n, size_t k) {
  QSE_CHECK(k >= 1 && k <= n);
  // Keys are offsets from `base` (uint32 arithmetic), which orders them
  // as the int32 values; each level moves `base` to the start of the k-th
  // key's bucket and keeps that bucket alone.  The first level reads v,
  // later ones their own compacted keys; a range of 2^32 - 1 takes at
  // most four.
  const auto [lo, hi] = MinMax(v, n);
  uint32_t base = static_cast<uint32_t>(lo);
  uint32_t range = static_cast<uint32_t>(hi) - base;
  if (range == 0) return lo;
  std::vector<uint32_t> scratch(n);
  uint32_t* keys = scratch.data();
  n = NarrowToKthBucket(v, n, &base, &range, &k, keys);
  while (range != 0 && n > kRankSelectMax) {
    uint32_t key_base = 0;
    n = NarrowToKthBucket(keys, n, &key_base, &range, &k, keys);
    base += key_base;
  }
  const uint32_t kth = range == 0 ? 0 : RankSelect(keys, n, k);
  return static_cast<int32_t>(base + kth);
}

int32_t KthSmallestUpperBound(const int32_t* v, size_t n, size_t k) {
  QSE_CHECK(k >= 1 && k <= n);
  const auto [lo, hi] = MinMax(v, n);
  const uint32_t base = static_cast<uint32_t>(lo);
  const uint32_t range = static_cast<uint32_t>(hi) - base;
  if (range == 0) return lo;
  const int shift = BucketShift(range);
  const uint32_t bucket = KthBucket(v, n, base, shift, &k);
  const uint32_t last = (bucket << shift) + ((uint32_t{1} << shift) - 1);
  return static_cast<int32_t>(base + std::min(range, last));
}

std::vector<size_t> ArgsortAscending(const std::vector<double>& scores) {
  std::vector<ScoredIndex> all(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) all[i] = {i, scores[i]};
  std::sort(all.begin(), all.end());
  std::vector<size_t> idx(all.size());
  for (size_t i = 0; i < all.size(); ++i) idx[i] = all[i].index;
  return idx;
}

double BoundedTopK::threshold() const {
  if (k_ == 0) return -std::numeric_limits<double>::infinity();
  if (!full()) return std::numeric_limits<double>::infinity();
  return heap_.front().score;
}

bool BoundedTopK::Offer(ScoredIndex cand) {
  if (k_ == 0) return false;
  if (!full()) {
    heap_.push_back(cand);
    std::push_heap(heap_.begin(), heap_.end());
    return true;
  }
  if (!(cand < heap_.front())) return false;
  std::pop_heap(heap_.begin(), heap_.end());
  heap_.back() = cand;
  std::push_heap(heap_.begin(), heap_.end());
  return true;
}

std::vector<ScoredIndex> BoundedTopK::TakeSortedAscending() {
  std::sort_heap(heap_.begin(), heap_.end());
  return std::move(heap_);
}

std::vector<ScoredIndex> MergeSortedTopK(
    const std::vector<std::vector<ScoredIndex>>& lists, size_t k) {
  // One cursor per non-empty list; a min-heap over the cursors' current
  // heads yields the global ascending order one entry at a time.
  struct Cursor {
    const std::vector<ScoredIndex>* list;
    size_t pos;
    const ScoredIndex& head() const { return (*list)[pos]; }
  };
  // std::*_heap builds a max-heap under its comparator, so "greater head"
  // compares as less to keep the smallest head on top.
  auto min_heap_order = [](const Cursor& a, const Cursor& b) {
    return b.head() < a.head();
  };
  std::vector<Cursor> heap;
  heap.reserve(lists.size());
  size_t total = 0;
  for (const std::vector<ScoredIndex>& list : lists) {
    total += list.size();
    if (!list.empty()) heap.push_back({&list, 0});
  }
  std::make_heap(heap.begin(), heap.end(), min_heap_order);

  std::vector<ScoredIndex> merged;
  merged.reserve(std::min(k, total));
  while (merged.size() < k && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), min_heap_order);
    Cursor& top = heap.back();
    merged.push_back(top.head());
    if (++top.pos < top.list->size()) {
      std::push_heap(heap.begin(), heap.end(), min_heap_order);
    } else {
      heap.pop_back();
    }
  }
  return merged;
}

}  // namespace qse
