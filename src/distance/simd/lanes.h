#ifndef QSE_DISTANCE_SIMD_LANES_H_
#define QSE_DISTANCE_SIMD_LANES_H_

// Internal to the kernel translation units: the fixed float64
// lane-reduction tree of the determinism contract (kernels.h).  Every
// ISA materializes its accumulator lanes into a plain array and reduces
// through exactly this expression, so the final rounding sequence cannot
// differ between scalar, AVX2 and AVX-512 builds.

#include <cstddef>

namespace qse {
namespace simd {

/// Lanes of the float64 discipline.
inline constexpr size_t kF64Lanes = 4;

/// The float64 reduction, verbatim from the pre-dispatch scalar kernels.
inline double ReduceF64Lanes(const double* l) {
  return (l[0] + l[1]) + (l[2] + l[3]);
}

}  // namespace simd
}  // namespace qse

#endif  // QSE_DISTANCE_SIMD_LANES_H_
