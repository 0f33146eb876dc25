// Structured error taxonomy for runtime failures.
//
// Until this header existed every runtime failure surfaced as a bare
// std::runtime_error string, a std::invalid_argument, or — worse — silent
// garbage (a NaN born in one matvec propagates into every downstream Ritz
// value; an unconverged Jacobi sweep returns whatever the last rotation
// left). gecos::Error carries a machine-checkable ErrorKind next to the
// human-readable message, so callers (the checkpoint/resume layer, the
// fault-injection harness, long-running drivers) can branch on WHAT failed:
// fall back to the previous checkpoint on io_corrupt, refuse a newer file
// format on version_mismatch, restart from a fresh state on numerical_nan.
// Convention: std::invalid_argument stays the exception for caller API
// misuse (bad sizes passed in, k = 0); gecos::Error is for conditions that
// arise at runtime from data, files, or floating-point state. See DESIGN.md
// "Checkpoint format & failure model".
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace gecos {

/// What failed — the machine-checkable half of a gecos::Error.
enum class ErrorKind {
  io_corrupt,       ///< checkpoint bytes fail validation (magic/size/checksum)
  version_mismatch, ///< checkpoint written by an unknown format version
  dim_mismatch,     ///< dimensions disagree, overflow, or exceed memory
  numerical_nan,    ///< a NaN/Inf surfaced in an amplitude reduction
  breakdown,        ///< an iterative method lost its invariants mid-flight
  not_converged,    ///< an iteration limit exhausted without convergence
  protocol,         ///< malformed or unsupported serve-protocol traffic
  not_found,        ///< a requested job / artifact does not exist
  cancelled,        ///< a job was cancelled before producing a result
};

/// Short stable name of an ErrorKind (for logs and test assertions).
inline const char* to_string(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::io_corrupt: return "io_corrupt";
    case ErrorKind::version_mismatch: return "version_mismatch";
    case ErrorKind::dim_mismatch: return "dim_mismatch";
    case ErrorKind::numerical_nan: return "numerical_nan";
    case ErrorKind::breakdown: return "breakdown";
    case ErrorKind::not_converged: return "not_converged";
    case ErrorKind::protocol: return "protocol";
    case ErrorKind::not_found: return "not_found";
    case ErrorKind::cancelled: return "cancelled";
  }
  return "unknown";
}

/// Every ErrorKind, in declaration order — the iteration domain of
/// parse_error_kind() and the round-trip tests.
inline constexpr ErrorKind kAllErrorKinds[] = {
    ErrorKind::io_corrupt, ErrorKind::version_mismatch,
    ErrorKind::dim_mismatch, ErrorKind::numerical_nan,
    ErrorKind::breakdown, ErrorKind::not_converged,
    ErrorKind::protocol, ErrorKind::not_found,
    ErrorKind::cancelled,
};

/// The stable machine-readable wire name of an ErrorKind — the form error
/// replies of the serve protocol carry (identical to to_string; this alias
/// is the documented wire-format entry point).
inline const char* error_kind_name(ErrorKind kind) { return to_string(kind); }

/// Inverse of error_kind_name(): parses a kind name back into the enum.
/// Returns true and sets `out` on a known name; returns false (leaving
/// `out` untouched) otherwise — an unknown name from a newer peer must not
/// crash an older client, so this never throws.
inline bool parse_error_kind(std::string_view name, ErrorKind& out) {
  for (const ErrorKind k : kAllErrorKinds) {
    if (name == error_kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

/// Runtime failure with a structured kind. what() is
/// "<kind>: <message>" so plain logs stay self-describing.
class Error : public std::runtime_error {
 public:
  /// Builds the error from its kind and a human-readable message.
  Error(ErrorKind kind, const std::string& message)
      : std::runtime_error(std::string(to_string(kind)) + ": " + message),
        kind_(kind) {}

  /// The machine-checkable failure category.
  ErrorKind kind() const { return kind_; }

  /// The message without the "<kind>: " prefix: what to pass when the kind
  /// travels beside it (a wire error frame, a failed job's record), so a
  /// rebuilt Error does not repeat it.
  const char* message() const noexcept {
    return what() + std::char_traits<char>::length(to_string(kind_)) + 2;
  }

 private:
  ErrorKind kind_;
};

}  // namespace gecos
