#ifndef CIT_COMMON_STATUS_H_
#define CIT_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "common/check.h"

namespace cit {

// Error codes for fallible operations. Mirrors the RocksDB/Arrow idiom:
// library code reports recoverable failures through Status/Result rather
// than exceptions.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kIoError,
  kFailedPrecondition,
  kInternal,
};

// A lightweight status object carrying a code and a human-readable message.
// Cheap to copy in the OK case (empty message).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Renders "OK" or "<CodeName>: <message>" for logs and test failures.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

// Result<T> holds either a value or an error Status, so callers can write
//   Result<Panel> r = LoadCsv(path);
//   if (!r.ok()) return r.status();
//   Panel p = std::move(r).value();
// Reading value() of an error result is a programmer error and aborts.
template <typename T>
class Result {
 public:
  // Intentionally implicit so functions can `return value;` / `return status;`.
  Result(T value) : value_(std::move(value)) {}
  Result(Status status) : status_(std::move(status)) {}

  bool ok() const { return value_.has_value(); }

  // OK whenever a value is held.
  const Status& status() const { return status_; }

  const T& value() const& {
    CIT_CHECK(ok());
    return *value_;
  }
  T& value() & {
    CIT_CHECK(ok());
    return *value_;
  }
  T&& value() && {
    CIT_CHECK(ok());
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace cit

#endif  // CIT_COMMON_STATUS_H_
