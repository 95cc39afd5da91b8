// Runtime knob configuration: one snapshot, hot-reloadable between epochs.
//
// Before PR 8 every SURFOS_* size knob was read straight from the process
// environment, several of them once at construction time (admission queue
// capacity, trace-ring size) — so a long-running surfosd
// could never retune them without a restart, and `putenv` mid-run is not a
// control plane. Config fixes the plumbing:
//
//   - `Config::from_env()` captures every registered SURFOS_* knob once (the
//     daemon does this at startup, before any thread exists).
//   - `install_config()` publishes the snapshot process-wide; `surfos-ctl
//     set-knob` lands in `set_config_knob()`, which swaps in an updated copy
//     atomically (readers hold a shared_ptr; no torn reads).
//   - Knob *readers* call `core::knob(name, fallback, min)` instead of
//     util::env_size directly: with a snapshot installed the snapshot wins,
//     otherwise behavior is byte-for-byte the old env read — library users
//     and tests see no change.
//
// Hot-reload granularity is the reader's re-read cadence: per control epoch
// (pump budget, daemon epoch period), per submit (admission capacity), or
// construction-only (thread count, trace ring) — the registry below records
// which, and DESIGN.md documents it per knob.
//
// Header-only for the same reason as util/env.hpp: telemetry and util sit
// below surfos_core in the link order but still own knobs.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.hpp"
#include "util/env.hpp"

namespace surfos::core {

/// When a knob's new value actually takes effect after a set-knob.
enum class KnobReload : std::uint8_t {
  kPerEpoch,       ///< Re-read every control epoch / call.
  kPerSubmit,      ///< Re-read on every admission submit.
  kConstruction,   ///< Read once when the owning object is built.
};

struct KnobSpec {
  const char* name;        ///< Environment-variable spelling (the knob's id).
  std::size_t min_value;   ///< env_size minimum; set-knob rejects below this.
  KnobReload reload;
  const char* doc;
};

/// Every size knob the daemon can snapshot and surfos-ctl can set. Names
/// are the single source of truth for set-knob validation.
inline constexpr KnobSpec kKnobRegistry[] = {
    {"SURFOS_THREADS", 1, KnobReload::kConstruction,
     "worker threads in the process-wide pool"},
    {"SURFOS_ADMIT_QUEUE", 1, KnobReload::kPerSubmit,
     "bounded admission-queue capacity per broker"},
    {"SURFOS_TRACE_BUFFER", 1, KnobReload::kConstruction,
     "flight-recorder ring capacity in events"},
    {"SURFOS_EPOCH_MS", 1, KnobReload::kPerEpoch,
     "surfosd control-epoch period in milliseconds"},
    {"SURFOS_PUMP_MAX", 1, KnobReload::kPerEpoch,
     "max demands admitted per control epoch per site"},
    {"SURFOS_SUB_OUTBOX", 1, KnobReload::kPerEpoch,
     "per-subscriber outbox depth in frames before drop-oldest"},
    {"SURFOS_SLO_OVERRUN_STREAK", 1, KnobReload::kPerEpoch,
     "consecutive epoch-budget overruns before a site degrades"},
    {"SURFOS_SLO_QUEUE_PCT", 1, KnobReload::kPerEpoch,
     "admission-queue depth as % of SURFOS_ADMIT_QUEUE that degrades"},
    {"SURFOS_SLO_RETRY_PCT", 1, KnobReload::kPerEpoch,
     "ARQ retransmissions as % of sends per epoch that degrades"},
    {"SURFOS_SLO_SHED", 1, KnobReload::kPerEpoch,
     "demands shed in one epoch that degrades a site"},
    {"SURFOS_PRECOMPUTE_CACHE", 0, KnobReload::kPerEpoch,
     "precompute-store byte budget (LRU; 0 = keep only pinned artifacts)"},
};

inline const KnobSpec* find_knob(std::string_view name) noexcept {
  for (const KnobSpec& spec : kKnobRegistry) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// An immutable snapshot of knob values. A knob with no entry falls back to
/// the reader's built-in default (same rule as an unset env var).
class Config {
 public:
  Config() = default;

  /// Captures every registered knob from the process environment, parsing
  /// with the same rejection rules as util::env_size (junk falls back to
  /// "unset", never to a wrong number).
  static Config from_env() {
    Config config;
    for (const KnobSpec& spec : kKnobRegistry) {
      // Sentinel fallback: env_size cannot return npos-1 for a real knob, so
      // two probes distinguish "unset/invalid" from any parsed value.
      constexpr std::size_t kProbeA = static_cast<std::size_t>(-2);
      constexpr std::size_t kProbeB = static_cast<std::size_t>(-3);
      const std::size_t a = util::env_size(spec.name, kProbeA, spec.min_value);
      if (a == kProbeA &&
          util::env_size(spec.name, kProbeB, spec.min_value) == kProbeB) {
        continue;  // unset or rejected: leave the reader's default in force
      }
      config.values_[spec.name] = a;
    }
    return config;
  }

  /// Sets a knob, validating the name against the registry and the value
  /// against the knob's minimum.
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
    values_[std::string(name)] = value;
    return {};
  }

  std::optional<std::size_t> lookup(std::string_view name) const {
    const auto it = values_.find(std::string(name));
    return it == values_.end() ? std::nullopt
                               : std::optional<std::size_t>(it->second);
  }

  /// Registry order, with the snapshot's value where one is set.
  std::vector<std::pair<std::string, std::optional<std::size_t>>> entries()
      const {
    std::vector<std::pair<std::string, std::optional<std::size_t>>> out;
    out.reserve(std::size(kKnobRegistry));
    for (const KnobSpec& spec : kKnobRegistry) {
      out.emplace_back(spec.name, lookup(spec.name));
    }
    return out;
  }

 private:
  std::map<std::string, std::size_t, std::less<>> values_;
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
/// error — set-knob only makes sense under a daemon.
inline Result<void> set_config_knob(std::string_view name, std::size_t value) {
  auto& slot = detail::config_slot();
  const std::lock_guard<std::mutex> lock(slot.mutex);
  if (!slot.snapshot) {
    return {ErrorCode::kUnavailable, "no config snapshot installed"};
  }
  Config updated = *slot.snapshot;
  if (Result<void> set = updated.set(name, value); !set.ok()) {
    return set;
  }
  slot.snapshot = std::make_shared<const Config>(std::move(updated));
  return {};
}

/// The knob read every SURFOS_* size-knob site routes through: installed
/// snapshot first, environment otherwise. `fallback`/`min_value` have the
/// util::env_size semantics.
inline std::size_t knob(const char* name, std::size_t fallback,
                        std::size_t min_value) {
  if (const auto snapshot = config_snapshot()) {
    if (const auto value = snapshot->lookup(name)) {
      return *value < min_value ? fallback : *value;
    }
    return fallback;  // snapshot installed, knob unset: daemon-start default
  }
  return util::env_size(name, fallback, min_value);
}

}  // namespace surfos::core
