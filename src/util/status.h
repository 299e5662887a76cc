#ifndef QSE_UTIL_STATUS_H_
#define QSE_UTIL_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace qse {

/// Canonical error codes, modelled after the Google/Abseil canonical space.
/// The library does not use C++ exceptions; fallible operations return
/// Status (or StatusOr<T>, see statusor.h).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kInternal = 5,
  kIOError = 6,
  kUnimplemented = 7,
  kDeadlineExceeded = 8,
  kResourceExhausted = 9,
  kUnavailable = 10,
  kDataLoss = 11,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "INVALID_ARGUMENT", ...).
const char* StatusCodeToString(StatusCode code);

/// Value type carrying either success (OK) or an error code plus message.
///
/// Usage:
///   Status s = DoThing();
///   if (!s.ok()) return s;
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "CODE_NAME: message".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }
  bool operator!=(const Status& other) const { return !(*this == other); }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Early-return helper: propagates a non-OK status to the caller.
#define QSE_RETURN_IF_ERROR(expr)            \
  do {                                       \
    ::qse::Status _qse_status = (expr);      \
    if (!_qse_status.ok()) return _qse_status; \
  } while (0)

}  // namespace qse

#endif  // QSE_UTIL_STATUS_H_
