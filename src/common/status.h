// Status and Result<T>: RocksDB-style error propagation without exceptions.
//
// Fallible operations (I/O, parsing, shape-checked public entry points) return
// Status or Result<T>. Programmer errors (violated preconditions on internal
// hot paths) use the RLL_CHECK macros from common/check.h instead.

#ifndef RLL_COMMON_STATUS_H_
#define RLL_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace rll {

/// Machine-readable classification of an error.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kIOError,
};

/// Human-readable name for a StatusCode (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// The result of an operation that can fail. Cheap to copy when OK.
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

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Inspired by
/// arrow::Result / absl::StatusOr.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from a non-OK status (failure).
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return value_.has_value(); }
  /// OK when a value is held, the stored error otherwise.
  const Status& status() const { return status_; }

  /// Access the contained value. Undefined if !ok(); callers must check.
  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

  /// Returns the value or `fallback` when this holds an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;  // OK when value_ is set.
};

}  // namespace rll

/// Propagates a non-OK Status to the caller.
#define RLL_RETURN_IF_ERROR(expr)             \
  do {                                        \
    ::rll::Status _st = (expr);               \
    if (!_st.ok()) return _st;                \
  } while (false)

#define RLL_MACRO_CONCAT_INNER(a, b) a##b
#define RLL_MACRO_CONCAT(a, b) RLL_MACRO_CONCAT_INNER(a, b)

#define RLL_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.ok()) return tmp.status();             \
  lhs = std::move(tmp).value()

/// Evaluates a Result<T> expression; assigns the value or propagates error.
#define RLL_ASSIGN_OR_RETURN(lhs, expr) \
  RLL_ASSIGN_OR_RETURN_IMPL(RLL_MACRO_CONCAT(_rll_result_, __LINE__), lhs, \
                            expr)

#endif  // RLL_COMMON_STATUS_H_
