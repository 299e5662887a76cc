#ifndef QSE_DISTANCE_EDIT_DISTANCE_H_
#define QSE_DISTANCE_EDIT_DISTANCE_H_

#include <string>

namespace qse {

/// Levenshtein edit distance (unit-cost insert / delete / substitute).
/// One of the expensive sequence distances the paper's introduction
/// motivates (matching strings and biological sequences); used by the
/// string-search example and tests.
size_t EditDistance(const std::string& a, const std::string& b);

}  // namespace qse

#endif  // QSE_DISTANCE_EDIT_DISTANCE_H_
