#ifndef HIMPACT_COMMON_STATUS_H_
#define HIMPACT_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "common/check.h"

/// \file
/// Minimal Status / StatusOr error-handling vocabulary.
///
/// The library does not use exceptions (see DESIGN.md); fallible factory
/// functions return `StatusOr<T>` and infallible hot-path operations are
/// plain member functions.

namespace himpact {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kFailedPrecondition = 2,
  kOutOfRange = 3,
  kInternal = 4,
  kUnavailable = 5,
  kResourceExhausted = 6,
  kDeadlineExceeded = 7,
};

/// Result of an operation: either OK or a code plus a human-readable message.
///
/// `Status` is cheap to copy for the OK case (empty message) and is used for
/// parameter validation in sketch/estimator factories.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Returns an OK status.
  static Status OK() { return Status(); }

  /// Returns an `kInvalidArgument` status with the given message.
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }

  /// Returns a `kFailedPrecondition` status with the given message.
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }

  /// Returns a `kOutOfRange` status with the given message.
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }

  /// Returns a `kInternal` status with the given message.
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }

  /// Returns a `kUnavailable` status with the given message. Used by
  /// randomized primitives (e.g. the l0-sampler) that are allowed to FAIL
  /// with probability delta.
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }

  /// True iff the status is OK.
  bool ok() const { return code_ == StatusCode::kOk; }

  /// The status code.
  StatusCode code() const { return code_; }

  /// The human-readable message (empty for OK).
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<code>: <message>" for logs and test failures.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type `T` or a non-OK `Status` explaining its absence.
template <typename T>
class StatusOr {
 public:
  /// Constructs from a value (implicit on purpose: mirrors absl::StatusOr).
  StatusOr(T value) : status_(Status::OK()), value_(std::move(value)) {}

  /// Constructs from a non-OK status.
  StatusOr(Status status) : status_(std::move(status)) {
    HIMPACT_CHECK_MSG(!status_.ok(), "StatusOr built from OK status");
  }

  /// True iff a value is present.
  bool ok() const { return status_.ok(); }

  /// The status (OK iff a value is present).
  const Status& status() const { return status_; }

  /// The contained value. Requires `ok()`.
  const T& value() const& {
    HIMPACT_CHECK_MSG(ok(), status_.message().c_str());
    return *value_;
  }

  /// The contained value (move form). Requires `ok()`.
  T&& value() && {
    HIMPACT_CHECK_MSG(ok(), status_.message().c_str());
    return *std::move(value_);
  }

  /// Mutable access to the contained value. Requires `ok()`.
  T& value() & {
    HIMPACT_CHECK_MSG(ok(), status_.message().c_str());
    return *value_;
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace himpact

#endif  // HIMPACT_COMMON_STATUS_H_
