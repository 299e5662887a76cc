#ifndef QSE_DISTANCE_SIMD_CDTW_ROWS_H_
#define QSE_DISTANCE_SIMD_CDTW_ROWS_H_

// Internal to the kernel translation units: the row-by-row cDTW band DP.
// It is the scalar tier's cdtw_f64 entry, and every vector tier calls it
// for the shapes its wavefront does not cover (kernels.h).  It lives in
// the baseline-ISA scalar TU, so calling it from an ISA TU never runs an
// instruction the CPU may lack.

#include <cstddef>

namespace qse {
namespace simd {

/// cdtw_f64's contract (kernels.h), one DP row at a time, for any
/// lengths n, m >= 1 and any window in [0, max(n, m)].
double CdtwRows(const double* a, size_t n, const double* b, size_t m,
                size_t dims, long window);

}  // namespace simd
}  // namespace qse

#endif  // QSE_DISTANCE_SIMD_CDTW_ROWS_H_
