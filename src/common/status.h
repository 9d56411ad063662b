#ifndef QTF_COMMON_STATUS_H_
#define QTF_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>

namespace qtf {

/// Error categories used across the framework.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kExecutionError,
  // Robustness taxonomy (docs/robustness.md): deadline-bounded,
  // cancellable, fault-tolerant operation.
  kDeadlineExceeded,   // a Deadline passed
  kCancelled,          // a CancellationToken was triggered
  kResourceExhausted,  // a capacity ran out (admission queue, memo size)
  kUnavailable,        // transient failure; retrying may succeed
};

/// Returns a short human-readable name for `code` ("OK", "Internal", ...).
const char* StatusCodeToString(StatusCode code);

/// Stable on-the-wire numbering of StatusCode for the serving protocol
/// (src/net/wire.h). The enum above may be reordered or grown freely; this
/// mapping is frozen — new codes get new numbers, old numbers are never
/// reused — so old clients keep decoding errors from new servers.
int32_t StatusCodeToWire(StatusCode code);

/// Inverse of StatusCodeToWire. Unknown numbers (a newer peer) decode as
/// kInternal rather than failing, so an unrecognized error still surfaces
/// as an error.
StatusCode StatusCodeFromWire(int32_t wire);

/// Outcome of an operation that can fail. The framework does not use
/// exceptions (see DESIGN.md); fallible functions return Status or
/// Result<T> and callers propagate with QTF_RETURN_NOT_OK /
/// QTF_ASSIGN_OR_RETURN.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ExecutionError(std::string msg) {
    return Status(StatusCode::kExecutionError, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace qtf

/// Propagates a non-OK Status to the caller.
#define QTF_RETURN_NOT_OK(expr)                 \
  do {                                          \
    ::qtf::Status _qtf_status = (expr);         \
    if (!_qtf_status.ok()) return _qtf_status;  \
  } while (false)

#endif  // QTF_COMMON_STATUS_H_
