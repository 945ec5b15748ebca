#ifndef GPAR_COMMON_STATUS_H_
#define GPAR_COMMON_STATUS_H_

#include "common/require_cxx20.h"  // IWYU pragma: keep

#include <ostream>
#include <string>
#include <utility>

namespace gpar {

/// Error categories used across the library. Mirrors the RocksDB/Arrow
/// convention of status codes instead of exceptions on hot paths.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kIoError,
  kCorruption,
  kUnimplemented,
  kInternal,
  /// Transient failure: safe to retry. A failpoint's default injection.
  kUnavailable,
};

/// Lightweight status object returned by fallible operations.
///
/// A `Status` is cheap to copy in the OK case (no allocation) and carries a
/// code plus a human-readable message otherwise. Use the factory functions
/// (`Status::OK()`, `Status::InvalidArgument(...)`, ...) to construct.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

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
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  /// Constructs from a runtime code — for layers (like the failpoint
  /// registry) that inject configured, not hardcoded, error categories.
  /// A `kOk` code yields OK and drops the message.
  static Status FromCode(StatusCode code, std::string msg) {
    if (code == StatusCode::kOk) return Status();
    return Status(code, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<code>: <message>" for logs and test failures.
  std::string ToString() const {
    if (ok()) return "OK";
    return CodeName(code_) + ": " + message_;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  static std::string CodeName(StatusCode code) {
    switch (code) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kInvalidArgument: return "InvalidArgument";
      case StatusCode::kNotFound: return "NotFound";
      case StatusCode::kOutOfRange: return "OutOfRange";
      case StatusCode::kIoError: return "IoError";
      case StatusCode::kCorruption: return "Corruption";
      case StatusCode::kUnimplemented: return "Unimplemented";
      case StatusCode::kInternal: return "Internal";
      case StatusCode::kUnavailable: return "Unavailable";
    }
    return "Unknown";
  }

  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Propagates a non-OK status to the caller; the Arrow/RocksDB idiom.
#define GPAR_RETURN_NOT_OK(expr)             \
  do {                                       \
    ::gpar::Status _st = (expr);             \
    if (!_st.ok()) return _st;               \
  } while (false)

}  // namespace gpar

#endif  // GPAR_COMMON_STATUS_H_
