// Fleet SLO watchdog: per-site health classification for the streaming
// observability plane.
//
// Every control epoch the daemon feeds each site's load signals into the
// watchdog, which folds them into a three-state health verdict:
//
//   kHealthy   — all signals under their thresholds.
//   kDegraded  — at least one SLO signal fired this epoch: an epoch-budget
//                overrun streak, admission-queue depth vs SURFOS_ADMIT_QUEUE,
//                or demand shedding.
//   kUnhealthy — a degraded condition has persisted for at least twice the
//                overrun-streak threshold (sustained, not transient).
//
// Thresholds come from the SURFOS_SLO_* knobs (hot-reloadable per epoch via
// set-knob, like every other kPerEpoch knob). States are published on the
// `health` subscription topic and summarized in every kStatusReply, so both
// a live `surfos-top` and a one-shot `surfos-ctl status` see the same
// verdicts.
//
// Every signal is per site. The control links are not a signal: surfosd's
// sites run loss-free links, so a retransmission rate could never fire; a
// lossy transport's stats are on each driver's link().
//
// Thread-compatibility: not internally synchronized — the daemon evaluates
// under its epoch mutex.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace surfos::daemon {

/// Wire-stable health states (kHealthState tag): append only.
enum class SloState : std::uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kUnhealthy = 2,
};

const char* slo_state_name(SloState state) noexcept;

/// Thresholds, one knob each. Defaults are deliberately forgiving: a
/// healthy demo fleet should sit at kHealthy without tuning.
struct SloThresholds {
  /// Consecutive epochs over the SURFOS_EPOCH_MS wall budget that degrade.
  std::uint64_t overrun_streak = 3;
  /// Queue depth as a percentage of capacity that degrades.
  std::uint64_t queue_pct = 80;
  /// Demands shed in a single epoch that degrade.
  std::uint64_t shed = 1;

  /// Reads the SURFOS_SLO_* knobs through core::knob (snapshot-aware).
  static SloThresholds from_knobs();
};

/// One epoch's raw signals for one site. Counter-style fields are
/// *cumulative* totals; the watchdog differences them against the previous
/// epoch internally.
struct SloInputs {
  std::uint64_t queue_depth = 0;
  std::uint64_t queue_capacity = 1;
  std::uint64_t shed_total = 0;       ///< Cumulative demands shed.
  bool epoch_overrun = false;  ///< This epoch exceeded its wall budget.
};

struct SiteHealth {
  std::string site_id;
  SloState state = SloState::kHealthy;
  std::uint64_t epochs_in_state = 1;  ///< Consecutive epochs at `state`.
  std::string reason;  ///< Human-readable cause, empty when healthy.
};

class SloWatchdog {
 public:
  /// Folds one epoch of signals into the site's health state and returns
  /// the verdict. Call once per site per epoch.
  SiteHealth evaluate(const std::string& site_id, const SloInputs& inputs,
                      const SloThresholds& thresholds);

  /// Worst state across the given verdicts (kHealthy when empty).
  static SloState fleet_state(const std::vector<SiteHealth>& sites) noexcept;

 private:
  struct State {
    SloState state = SloState::kHealthy;
    std::uint64_t epochs_in_state = 0;
    std::uint64_t overrun_streak = 0;
    std::uint64_t bad_streak = 0;  ///< Consecutive degraded-or-worse epochs.
    std::uint64_t prev_shed = 0;
  };

  std::map<std::string, State> states_;
};

}  // namespace surfos::daemon
