#ifndef QSE_DISTANCE_SIMD_PRESCREEN_OPERANDS_H_
#define QSE_DISTANCE_SIMD_PRESCREEN_OPERANDS_H_

// Internal to the vector kernel translation units: the query and
// coefficients of one int8 prescreen block call (kernels.h), laid out
// for a kernel that reads rows in chunks of kChunk bytes and splits each
// chunk's absolute differences into the even and odd bytes of its 16-bit
// lanes (a mask and a shift, no cross-lane shuffle) before vpmaddwd.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace qse {
namespace simd {

template <size_t kChunk>
class PrescreenOperands {
 public:
  PrescreenOperands(const int8_t* q, const int16_t* c, size_t d)
      : d_(d), chunks_((d + kChunk - 1) / kChunk) {
    const size_t padded = chunks_ * kChunk;
    q_ = q_stack_;
    c_ = c_stack_;
    row_ = row_stack_;
    if (padded > kStackDims) {
      q_heap_.resize(padded);
      c_heap_.resize(padded);
      row_heap_.resize(padded);
      q_ = q_heap_.data();
      c_ = c_heap_.data();
      row_ = row_heap_.data();
    }
    std::memset(q_, 0, padded);
    if (d > 0) std::memcpy(q_, q, d);
    for (size_t k = 0; k < chunks_; ++k) {
      int16_t* even = c_ + k * kChunk;
      int16_t* odd = even + kChunk / 2;
      for (size_t l = 0; l < kChunk / 2; ++l) {
        const size_t j = k * kChunk + 2 * l;
        even[l] = j < d ? c[j] : 0;
        odd[l] = j + 1 < d ? c[j + 1] : 0;
      }
    }
  }

  size_t chunks() const { return chunks_; }
  /// Bytes a kernel reads per row: d rounded up to whole chunks.
  size_t padded() const { return chunks_ * kChunk; }
  /// The query, zero past d.
  const int8_t* q() const { return q_; }
  /// Chunk k's coefficients at k * kChunk: kChunk / 2 for its even dims,
  /// then kChunk / 2 for its odd dims; 0 past d, so whatever bytes a
  /// padded read finds there add nothing.
  const int16_t* coeffs() const { return c_; }
  /// A copy of `row` padded with zeros, for a row whose padded read
  /// would run past the end of its block.  Valid until the next call.
  const int8_t* PaddedCopy(const int8_t* row) {
    if (d_ > 0) std::memcpy(row_, row, d_);
    std::memset(row_ + d_, 0, padded() - d_);
    return row_;
  }

 private:
  /// Padded widths up to this many dims use the stack buffers, so the
  /// kernel allocates nothing for rows of up to 512 dims.
  static constexpr size_t kStackDims = 512;

  size_t d_;
  size_t chunks_;
  int8_t* q_;
  int16_t* c_;
  int8_t* row_;
  alignas(64) int8_t q_stack_[kStackDims];
  alignas(64) int16_t c_stack_[kStackDims];
  alignas(64) int8_t row_stack_[kStackDims];
  std::vector<int8_t> q_heap_;
  std::vector<int16_t> c_heap_;
  std::vector<int8_t> row_heap_;
};

}  // namespace simd
}  // namespace qse

#endif  // QSE_DISTANCE_SIMD_PRESCREEN_OPERANDS_H_
