#ifndef QSE_UTIL_STATUSOR_H_
#define QSE_UTIL_STATUSOR_H_

#include <cassert>
#include <optional>
#include <utility>

#include "src/util/status.h"

namespace qse {

/// Either a value of type T or an error Status.  Mirrors absl::StatusOr.
///
/// Usage:
///   StatusOr<Model> m = LoadModel(path);
///   if (!m.ok()) return m.status();
///   Use(m.value());
template <typename T>
class StatusOr {
 public:
  /// Error state.  `status` must not be OK (an OK status with no value is a
  /// programming error and is converted to kInternal).
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      status_ = Status::Internal(
          "StatusOr constructed with OK status but no value");
    }
  }

  /// Value state.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

  bool ok() const { return value_.has_value(); }

  /// OK when a value is held, otherwise the stored error.
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;  // OK iff value_ holds a value.
  std::optional<T> value_;
};

/// Assigns the value of a StatusOr expression to `lhs`, or early-returns the
/// error.  `lhs` may be a declaration, e.g.
///   QSE_ASSIGN_OR_RETURN(auto model, LoadModel(path));
#define QSE_ASSIGN_OR_RETURN(lhs, expr)            \
  auto QSE_CONCAT_(_qse_sor_, __LINE__) = (expr);  \
  if (!QSE_CONCAT_(_qse_sor_, __LINE__).ok())      \
    return QSE_CONCAT_(_qse_sor_, __LINE__).status(); \
  lhs = std::move(QSE_CONCAT_(_qse_sor_, __LINE__)).value()

#define QSE_CONCAT_INNER_(a, b) a##b
#define QSE_CONCAT_(a, b) QSE_CONCAT_INNER_(a, b)

}  // namespace qse

#endif  // QSE_UTIL_STATUSOR_H_
