// Result-based service API status codes (the PR 8 API redesign).
//
// The pre-daemon service surface reported failure by throwing
// std::invalid_argument — fine inside one process, useless across a socket:
// an exception has no stable numeric identity, so a remote client can only
// pattern-match message strings. Every public service entry point
// (ServiceBroker::start_app/submit_demand/stop_app/resume_app,
// SurfOS::install_from_datasheet, the daemon request handlers) now returns
// surfos::Result<T>: either a value or an Error carrying an ErrorCode whose
// numeric value is *wire-stable* — it round-trips through the surfosd
// protocol unchanged, and old clients can interpret codes minted by newer
// daemons (new codes only ever append).
//
// Header-only so every layer (telemetry included, which links nothing) can
// use it without a dependency edge.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace surfos {

/// Wire-stable error identities. Values are part of the surfosd protocol:
/// never renumber or remove an entry; append new codes before kInternal and
/// bump kErrorCodeCount. (DESIGN.md "Daemon & wire protocol" carries the
/// registry table.)
enum class ErrorCode : std::uint16_t {
  kOk = 0,                  ///< Success sentinel (never carried by an Error).
  kInvalidArgument = 1,     ///< Caller passed something structurally wrong.
  kNotFound = 2,            ///< Unknown app / task / site / device id.
  kAlreadyExists = 3,       ///< App id already running, duplicate site, ...
  kAdmissionShed = 4,       ///< Demand refused by the bounded admission queue.
  kParseError = 5,          ///< Datasheet / payload text did not parse.
  kUnsupportedVersion = 6,  ///< Wire protocol version not spoken here.
  kMalformedFrame = 7,      ///< Frame/TLV structure damaged or truncated.
  kUnknownCommand = 8,      ///< Message type the daemon does not implement.
  kOutOfRange = 9,          ///< Oversized frame, knob value below minimum, ...
  kUnavailable = 10,        ///< Daemon draining / no site ready to serve.
  kIoError = 11,            ///< Socket or snapshot-file I/O failed.
  kInternal = 12,           ///< Invariant violation; a bug, not an input.
};

/// One past the largest assigned code — the first value a *newer* protocol
/// peer could legitimately send us that we cannot name.
inline constexpr std::uint16_t kErrorCodeCount = 13;

constexpr const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kInvalidArgument: return "invalid-argument";
    case ErrorCode::kNotFound: return "not-found";
    case ErrorCode::kAlreadyExists: return "already-exists";
    case ErrorCode::kAdmissionShed: return "admission-shed";
    case ErrorCode::kParseError: return "parse-error";
    case ErrorCode::kUnsupportedVersion: return "unsupported-version";
    case ErrorCode::kMalformedFrame: return "malformed-frame";
    case ErrorCode::kUnknownCommand: return "unknown-command";
    case ErrorCode::kOutOfRange: return "out-of-range";
    case ErrorCode::kUnavailable: return "unavailable";
    case ErrorCode::kIoError: return "io-error";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown-error";  // A newer peer's code: identity preserved by value.
}

/// A failed operation: stable code plus a human diagnostic. The message is
/// advisory (it crosses the wire but clients must branch on `code` only).
struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

inline Error make_error(ErrorCode code, std::string message) {
  return Error{code, std::move(message)};
}

/// Value-or-Error return for the service API. Access discipline:
///
///   auto r = broker.start_app("vr", demand);
///   if (!r.ok()) return r.error().code;   // or propagate: r.error()
///   use(r.value());
///
/// value() on a failed Result (and error() on a successful one) throws
/// std::logic_error — that is a caller bug, not a runtime condition, and it
/// must never be reachable from wire input.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : state_(std::in_place_index<0>, std::move(value)) {}
  Result(Error error) : state_(std::in_place_index<1>, std::move(error)) {}
  Result(ErrorCode code, std::string message)
      : state_(std::in_place_index<1>, Error{code, std::move(message)}) {}

  bool ok() const noexcept { return state_.index() == 0; }
  explicit operator bool() const noexcept { return ok(); }

  /// kOk on success, the error's code otherwise.
  ErrorCode code() const noexcept {
    return ok() ? ErrorCode::kOk : std::get<1>(state_).code;
  }

  const T& value() const& {
    require(ok(), "Result::value() on error");
    return std::get<0>(state_);
  }
  T& value() & {
    require(ok(), "Result::value() on error");
    return std::get<0>(state_);
  }
  T&& value() && {
    require(ok(), "Result::value() on error");
    return std::get<0>(std::move(state_));
  }
  T value_or(T fallback) const& {
    return ok() ? std::get<0>(state_) : std::move(fallback);
  }

  const Error& error() const& {
    require(!ok(), "Result::error() on success");
    return std::get<1>(state_);
  }
  Error&& error() && {
    require(!ok(), "Result::error() on success");
    return std::get<1>(std::move(state_));
  }

 private:
  static void require(bool condition, const char* what) {
    if (!condition) throw std::logic_error(what);
  }

  std::variant<T, Error> state_;
};

/// Result<void>: success carries nothing; the same error discipline.
template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(Error error) : error_(std::in_place, std::move(error)) {}
  Result(ErrorCode code, std::string message)
      : error_(std::in_place, Error{code, std::move(message)}) {}

  bool ok() const noexcept { return !error_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }
  ErrorCode code() const noexcept {
    return ok() ? ErrorCode::kOk : error_->code;
  }
  const Error& error() const& {
    if (ok()) throw std::logic_error("Result::error() on success");
    return *error_;
  }
  Error&& error() && {
    if (ok()) throw std::logic_error("Result::error() on success");
    return std::move(*error_);
  }

 private:
  std::optional<Error> error_;
};

/// Success for Result<void> call sites that want to be explicit.
inline Result<void> ok_result() { return Result<void>(); }

}  // namespace surfos
