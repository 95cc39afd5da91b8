// Runtime knob configuration: one registry, one snapshot, hot-reloadable
// between epochs.
//
// Every SURFOS_* knob except SURFOS_SIMD is a row of `kKnobRegistry`, and
// the row is the one place its name, default, minimum, reload point and doc
// are written. Readers name only the row:
//
//   - `core::knob(Knob::kAdmitQueue)` returns the installed snapshot's value
//     when a daemon installed one, and otherwise parses the environment
//     with `env_size` (library mode: unset, junk, negative, out-of-range or
//     below-minimum values give the row's default).
//   - `Config` holds a value for every row: `Config()` the registry
//     defaults, `Config::from_env()` the environment value or the default.
//     surfosd installs `from_env()` at startup, before any thread exists.
//   - `surfos-ctl set-knob` lands in `set_config_knob()`, which validates the
//     name and minimum against the row, refuses construction-reload rows,
//     and swaps in an updated copy atomically (readers hold a shared_ptr;
//     no torn reads).
//
// Hot-reload granularity is the reader's re-read cadence: per control epoch
// (pump budget, daemon epoch period), per submit (admission capacity), or
// construction-only (thread count, trace ring, trace switch). The registry
// records which; DESIGN.md documents it per knob.
//
// SURFOS_SIMD is the one direct environment read left (util/simd.cpp): it
// names a code path rather than a size, and the precompute digest needs it
// fixed before the first kernel runs.
//
// Header-only: telemetry and util sit below surfos_core in the link order
// but still own knobs.
#pragma once

#include <array>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "core/status.hpp"

namespace surfos::core {

/// When a knob's new value actually takes effect after a set-knob.
enum class KnobReload : std::uint8_t {
  kPerEpoch,       ///< Re-read every control epoch / call.
  kPerSubmit,      ///< Re-read on every admission submit.
  kConstruction,   ///< Read once when the owning object is built.
};

/// One registry row per knob, in `kKnobRegistry` order.
enum class Knob : std::uint8_t {
  kThreads,
  kAdmitQueue,
  kTraceBuffer,
  kEpochMs,
  kPumpMax,
  kSubOutbox,
  kSloOverrunStreak,
  kSloQueuePct,
  kSloShed,
  kPrecomputeCache,
  kTrace,
};

struct KnobSpec {
  const char* name;           ///< Environment-variable spelling.
  std::size_t default_value;  ///< Value when unset or rejected.
  std::size_t min_value;      ///< Smaller values are rejected.
  KnobReload reload;
  const char* doc;
};

/// Every knob the daemon can snapshot and surfos-ctl can set, indexed by
/// `Knob`.
inline constexpr KnobSpec kKnobRegistry[] = {
    {"SURFOS_THREADS", 0, 0, KnobReload::kConstruction,
     "worker threads in the process-wide pool (0 = one per detected core)"},
    {"SURFOS_ADMIT_QUEUE", 256, 1, KnobReload::kPerSubmit,
     "bounded admission-queue capacity per broker"},
    {"SURFOS_TRACE_BUFFER", 65536, 64, KnobReload::kConstruction,
     "flight-recorder ring capacity in events"},
    {"SURFOS_EPOCH_MS", 20, 1, KnobReload::kPerEpoch,
     "surfosd control-epoch period in milliseconds"},
    {"SURFOS_PUMP_MAX", 8, 1, KnobReload::kPerEpoch,
     "max demands admitted per control epoch per site"},
    {"SURFOS_SUB_OUTBOX", 64, 1, KnobReload::kPerEpoch,
     "per-subscriber outbox depth in frames before drop-oldest"},
    {"SURFOS_SLO_OVERRUN_STREAK", 3, 1, KnobReload::kPerEpoch,
     "consecutive epoch-budget overruns before a site degrades"},
    {"SURFOS_SLO_QUEUE_PCT", 80, 1, KnobReload::kPerEpoch,
     "admission-queue depth as % of SURFOS_ADMIT_QUEUE that degrades"},
    {"SURFOS_SLO_SHED", 1, 1, KnobReload::kPerEpoch,
     "demands shed in one epoch that degrades a site"},
    // 256 MiB: ~2000 64-element rows or a few dozen multi-panel scene
    // statics; generous for a fleet of rooms, bounded for a daemon.
    {"SURFOS_PRECOMPUTE_CACHE", 256u << 20, 0, KnobReload::kPerEpoch,
     "precompute-store byte budget (LRU; 0 = keep only pinned artifacts)"},
    {"SURFOS_TRACE", 0, 0, KnobReload::kConstruction,
     "1 records causal trace spans into the flight recorder"},
};

inline constexpr std::size_t kKnobCount = std::size(kKnobRegistry);
static_assert(static_cast<std::size_t>(Knob::kTrace) + 1 == kKnobCount);

inline constexpr const KnobSpec& knob_spec(Knob row) noexcept {
  return kKnobRegistry[static_cast<std::size_t>(row)];
}

inline const KnobSpec* find_knob(std::string_view name) noexcept {
  for (const KnobSpec& spec : kKnobRegistry) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// Parses the row's environment variable as a plain base-10 size. Unset,
/// empty, junk (trailing junk included), negative, out-of-range and
/// below-minimum values give the row's default.
inline std::size_t env_size(const KnobSpec& spec) noexcept {
  const char* env = std::getenv(spec.name);
  if (env == nullptr || *env == '\0') return spec.default_value;
  errno = 0;
  char* end = nullptr;
  // Signed parse so "-1" is rejected instead of wrapping to a huge value.
  const long long parsed = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || parsed < 0) {
    return spec.default_value;
  }
  const auto value = static_cast<unsigned long long>(parsed);
  if (value > std::numeric_limits<std::size_t>::max() ||
      value < spec.min_value) {
    return spec.default_value;
  }
  return static_cast<std::size_t>(value);
}

/// An immutable snapshot holding a value for every registry row.
class Config {
 public:
  /// Every row at its registry default.
  Config() {
    for (std::size_t i = 0; i < kKnobCount; ++i) {
      values_[i] = kKnobRegistry[i].default_value;
    }
  }

  /// Every row from the process environment (env_size rules).
  static Config from_env() {
    Config config;
    for (std::size_t i = 0; i < kKnobCount; ++i) {
      config.values_[i] = env_size(kKnobRegistry[i]);
    }
    return config;
  }

  /// Sets a knob, validating the name against the registry and the value
  /// against the row's minimum.
  Result<void> set(std::string_view name, std::size_t value) {
    const KnobSpec* spec = find_knob(name);
    if (spec == nullptr) {
      return {ErrorCode::kNotFound,
              "unknown knob: " + std::string(name)};
    }
    if (value < spec->min_value) {
      return {ErrorCode::kOutOfRange,
              std::string(name) + " must be >= " +
                  std::to_string(spec->min_value)};
    }
    values_[static_cast<std::size_t>(spec - kKnobRegistry)] = value;
    return {};
  }

  std::size_t value(Knob row) const noexcept {
    return values_[static_cast<std::size_t>(row)];
  }

 private:
  std::array<std::size_t, kKnobCount> values_{};
};

namespace detail {
struct ConfigSlot {
  std::mutex mutex;
  std::shared_ptr<const Config> snapshot;  ///< nullptr = library mode.
};
inline ConfigSlot& config_slot() {
  static ConfigSlot slot;
  return slot;
}
}  // namespace detail

/// Publishes `snapshot` as the process-wide knob source (the daemon calls
/// this once at startup, then again per set-knob via set_config_knob).
inline void install_config(Config snapshot) {
  auto& slot = detail::config_slot();
  const std::lock_guard<std::mutex> lock(slot.mutex);
  slot.snapshot = std::make_shared<const Config>(std::move(snapshot));
}

/// Removes the installed snapshot: knob reads fall back to the environment
/// (tests use this to restore library mode).
inline void clear_config() {
  auto& slot = detail::config_slot();
  const std::lock_guard<std::mutex> lock(slot.mutex);
  slot.snapshot.reset();
}

/// The current snapshot (nullptr when none installed).
inline std::shared_ptr<const Config> config_snapshot() {
  auto& slot = detail::config_slot();
  const std::lock_guard<std::mutex> lock(slot.mutex);
  return slot.snapshot;
}

/// Copy-update-swap: readers holding the old snapshot finish with old
/// values; the next knob() sees the new one. No snapshot installed is an
/// error — set-knob only makes sense under a daemon — and so is a
/// construction-reload row, which a running process never re-reads.
inline Result<void> set_config_knob(std::string_view name, std::size_t value) {
  auto& slot = detail::config_slot();
  const std::lock_guard<std::mutex> lock(slot.mutex);
  if (!slot.snapshot) {
    return {ErrorCode::kUnavailable, "no config snapshot installed"};
  }
  if (const KnobSpec* spec = find_knob(name);
      spec != nullptr && spec->reload == KnobReload::kConstruction) {
    return {ErrorCode::kInvalidArgument,
            std::string(name) +
                " is read at construction: set it in the environment "
                "before start"};
  }
  Config updated = *slot.snapshot;
  if (Result<void> set = updated.set(name, value); !set.ok()) {
    return set;
  }
  slot.snapshot = std::make_shared<const Config>(std::move(updated));
  return {};
}

/// The one knob read: the installed snapshot's value, the environment's
/// otherwise.
inline std::size_t knob(Knob row) {
  if (const auto snapshot = config_snapshot()) return snapshot->value(row);
  return env_size(knob_spec(row));
}

}  // namespace surfos::core
