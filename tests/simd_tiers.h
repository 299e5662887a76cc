#ifndef QSE_TESTS_SIMD_TIERS_H_
#define QSE_TESTS_SIMD_TIERS_H_

// The SIMD tiers a test can run here: compiled into this binary AND
// executable by this CPU.  Suites that check a property on every tier
// iterate RunnableTiers() and pass each tier's kernel table explicitly.

#include <vector>

#include "src/distance/simd/dispatch.h"
#include "src/distance/simd/kernels.h"

namespace qse {
namespace simd {

/// Whether this CPU can actually execute a tier's kernels.  KernelsFor
/// answers whether the BUILD has them; both must hold to run one here.
inline bool CpuSupports(SimdLevel level) {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
      return __builtin_cpu_supports("avx2");
    case SimdLevel::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl");
  }
#endif
  return level == SimdLevel::kScalar;
}

struct Tier {
  SimdLevel level;
  const KernelTable* table;
};

/// All tiers this binary compiled AND this machine can execute.  Always
/// contains at least the scalar tier.
inline std::vector<Tier> RunnableTiers() {
  std::vector<Tier> tiers;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    const KernelTable* table = KernelsFor(level);
    if (table != nullptr && CpuSupports(level)) tiers.push_back({level, table});
  }
  return tiers;
}

}  // namespace simd
}  // namespace qse

#endif  // QSE_TESTS_SIMD_TIERS_H_
