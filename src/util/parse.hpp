// Strict number parsing for command-line flags and environment knobs.
//
// std::atoi, std::strtoull and std::atof accept a sign ("-1" cast to uint32
// is 4294967295), whitespace, trailing junk ("12x" reads as 12) and, for
// doubles, nan and inf. These parsers take the whole token or nothing, so a
// typo is a usage error naming the flag, not a silently different run.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>

namespace gecos {

/// Decimal integer in [lo, hi]: digits only (no sign, no whitespace, no
/// trailing characters) and range-checked; nullopt for anything else.
inline std::optional<std::uint64_t> parse_uint(const char* text,
                                               std::uint64_t lo,
                                               std::uint64_t hi) {
  if (text == nullptr || !std::isdigit(static_cast<unsigned char>(text[0])))
    return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || v < lo || v > hi) return std::nullopt;
  return v;
}

/// Finite double that consumes the whole token (no leading whitespace);
/// nullopt for anything else, including nan and inf.
inline std::optional<double> parse_double(const char* text) {
  if (text == nullptr || text[0] == '\0' ||
      std::isspace(static_cast<unsigned char>(text[0])))
    return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (*end != '\0' || !std::isfinite(v)) return std::nullopt;
  return v;
}

}  // namespace gecos
