#include "src/distance/edit_distance.h"

#include <algorithm>
#include <vector>

namespace qse {

size_t EditDistance(const std::string& a, const std::string& b) {
  const size_t n = a.size(), m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  std::vector<size_t> prev(m + 1), curr(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    curr[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      size_t del = prev[j] + 1;
      size_t ins = curr[j - 1] + 1;
      curr[j] = std::min({sub, del, ins});
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

}  // namespace qse
