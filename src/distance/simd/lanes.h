#ifndef QSE_DISTANCE_SIMD_LANES_H_
#define QSE_DISTANCE_SIMD_LANES_H_

// Internal to the kernel translation units: the fixed float64
// lane-reduction tree of the determinism contract (kernels.h).  Every
// ISA materializes its accumulator lanes into a plain array and reduces
// through exactly this expression, so the final rounding sequence cannot
// differ between scalar, AVX2 and AVX-512 builds.  Also the per-group
// operands the vector tiers' int8 prescreen broadcasts, and the int8
// stream's prefetch that every tier's prescreen runs.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/distance/simd/kernels.h"

namespace qse {
namespace simd {

/// Lanes of the float64 discipline.
inline constexpr size_t kF64Lanes = 4;

/// The float64 reduction, verbatim from the pre-dispatch scalar kernels.
inline double ReduceF64Lanes(const double* l) {
  return (l[0] + l[1]) + (l[2] + l[3]);
}

/// One 4-dim group's operands of an int8 prescreen call (kernels.h),
/// each a dword the vector tiers broadcast to every row slot: the
/// query's four bytes, and the coefficients of the group's even dims
/// (4g, 4g + 2) and odd dims (4g + 1, 4g + 3) as int16 pairs, matching
/// the even and odd bytes of a row slot's absolute differences in its
/// two 16-bit lanes.  Zero past d, so padding bytes weigh nothing.
struct PrescreenGroup {
  int32_t q;
  int32_t c_even;
  int32_t c_odd;
};

/// The groups of one call, on the stack for up to kStackGroups of them
/// (1,024 dims), so the kernels allocate nothing for rows that short.
class PrescreenGroups {
 public:
  PrescreenGroups(const int8_t* q, const int16_t* c, size_t d)
      : size_((d + kI8GroupDims - 1) / kI8GroupDims),
        groups_(stack_) {
    if (size_ > kStackGroups) {
      heap_.resize(size_);
      groups_ = heap_.data();
    }
    for (size_t g = 0; g < size_; ++g) {
      int8_t qb[kI8GroupDims] = {};
      uint16_t cw[kI8GroupDims] = {};
      for (size_t t = 0; t < kI8GroupDims; ++t) {
        const size_t j = kI8GroupDims * g + t;
        if (j >= d) break;
        qb[t] = q[j];
        cw[t] = static_cast<uint16_t>(c[j]);
      }
      std::memcpy(&groups_[g].q, qb, sizeof(int32_t));
      groups_[g].c_even = static_cast<int32_t>(cw[0] | uint32_t{cw[2]} << 16);
      groups_[g].c_odd = static_cast<int32_t>(cw[1] | uint32_t{cw[3]} << 16);
    }
  }

  PrescreenGroups(const PrescreenGroups&) = delete;
  PrescreenGroups& operator=(const PrescreenGroups&) = delete;

  size_t size() const { return size_; }
  const PrescreenGroup& operator[](size_t g) const { return groups_[g]; }

 private:
  static constexpr size_t kStackGroups = 256;

  size_t size_;
  PrescreenGroup* groups_;
  PrescreenGroup stack_[kStackGroups];
  std::vector<PrescreenGroup> heap_;
};

/// Bytes of one 4-dim group of a block: one cache line.
inline constexpr size_t kI8GroupBytes = kI8BlockRows * kI8GroupDims;

/// The block to prefetch while scoring the one holding rows [first,
/// first + kI8BlockRows) at `block`: the block kI8PrefetchBlocks further
/// on, or `block` itself when that one lies past the whole blocks of the
/// `stored` rows (kernels.h).  Prefetching lines already being read is
/// close to free, and it keeps the group loop free of a branch.
inline const int8_t* I8BlockAhead(const int8_t* block, size_t first,
                                  size_t stored, size_t block_bytes) {
  return first + kI8PrefetchBlocks * kI8BlockRows < stored
             ? block + kI8PrefetchBlocks * block_bytes
             : block;
}

/// Prefetches group g of the block `ahead` into L1.
inline void PrefetchI8Group(const int8_t* ahead, size_t g) {
  __builtin_prefetch(ahead + kI8GroupBytes * g, 0, 3);
}

}  // namespace simd
}  // namespace qse

#endif  // QSE_DISTANCE_SIMD_LANES_H_
