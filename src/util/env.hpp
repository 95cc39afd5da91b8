// Environment-variable knob parsing shared by every subsystem.
//
// All SurfOS size/count knobs (SURFOS_THREADS, SURFOS_ADMIT_QUEUE,
// SURFOS_TRACE_BUFFER, ...) parse through env_size so they agree on the
// rejection rules: values must be plain base-10 non-negative integers with
// no trailing junk, and anything unparsable, negative, overflowing, or
// below the knob's minimum falls back to the built-in default. This
// replaces the per-file strtoul/strtol parsing where "-1" silently wrapped
// to ULONG_MAX.
//
// Header-only (inline): surfos_telemetry is deliberately dependency-free
// and cannot link surfos_util, but its SURFOS_TRACE_BUFFER knob still
// parses through this helper.
#pragma once

#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <limits>

namespace surfos::util {

/// Parses environment variable `name` as a non-negative size.
///
/// Returns `fallback` when the variable is unset, empty, not a full
/// base-10 integer (trailing junk rejected), negative, out of range, or
/// smaller than `min_value`. A knob that treats 0 as "disabled" passes
/// `min_value = 0`; a knob that needs at least one unit passes 1.
inline std::size_t env_size(const char* name, std::size_t fallback,
                            std::size_t min_value) noexcept {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  // Signed parse so "-1" is seen as a negative number and rejected instead
  // of wrapping to a huge unsigned value (the strtoul bug this replaces).
  const long long parsed = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0') return fallback;  // junk / trailing junk
  if (errno == ERANGE) return fallback;             // out of long long range
  if (parsed < 0) return fallback;                  // negatives rejected
  const auto value = static_cast<unsigned long long>(parsed);
  if (value > std::numeric_limits<std::size_t>::max()) return fallback;
  if (value < min_value) return fallback;
  return static_cast<std::size_t>(value);
}

}  // namespace surfos::util
