#include "daemon/slo.hpp"

#include <algorithm>

#include "core/config.hpp"

namespace surfos::daemon {

const char* slo_state_name(SloState state) noexcept {
  switch (state) {
    case SloState::kHealthy: return "healthy";
    case SloState::kDegraded: return "degraded";
    case SloState::kUnhealthy: return "unhealthy";
  }
  return "?";
}

SloThresholds SloThresholds::from_knobs() {
  SloThresholds t;
  t.overrun_streak = core::knob(core::Knob::kSloOverrunStreak);
  t.queue_pct = core::knob(core::Knob::kSloQueuePct);
  t.retry_pct = core::knob(core::Knob::kSloRetryPct);
  t.shed = core::knob(core::Knob::kSloShed);
  return t;
}

SloState SloWatchdog::fleet_state(
    const std::vector<SiteHealth>& sites) noexcept {
  SloState worst = SloState::kHealthy;
  for (const SiteHealth& site : sites) {
    worst = std::max(worst, site.state);
  }
  return worst;
}

SiteHealth SloWatchdog::evaluate(const std::string& site_id,
                                 const SloInputs& inputs,
                                 const SloThresholds& thresholds) {
  State& s = states_[site_id];

  // Per-epoch deltas from the cumulative inputs. A first evaluation
  // differences against zero, i.e. counts everything since daemon start —
  // correct for a fresh process, conservative after a restore.
  const std::uint64_t shed_delta = inputs.shed_total - s.prev_shed;
  const std::uint64_t retry_delta = inputs.arq_retry_total - s.prev_retry;
  const std::uint64_t send_delta = inputs.arq_send_total - s.prev_send;
  s.prev_shed = inputs.shed_total;
  s.prev_retry = inputs.arq_retry_total;
  s.prev_send = inputs.arq_send_total;

  s.overrun_streak = inputs.epoch_overrun ? s.overrun_streak + 1 : 0;

  std::string reason;
  const std::uint64_t capacity = std::max<std::uint64_t>(1,
                                                         inputs.queue_capacity);
  const std::uint64_t queue_pct = inputs.queue_depth * 100 / capacity;
  if (queue_pct >= thresholds.queue_pct) {
    reason = "queue " + std::to_string(inputs.queue_depth) + "/" +
             std::to_string(capacity);
  } else if (shed_delta >= thresholds.shed) {
    reason = "shed " + std::to_string(shed_delta) + " demand(s)";
  } else if (send_delta > 0 &&
             retry_delta * 100 >= thresholds.retry_pct * send_delta) {
    reason = "arq retry " + std::to_string(retry_delta) + "/" +
             std::to_string(send_delta) + " sends";
  } else if (s.overrun_streak >= thresholds.overrun_streak) {
    reason = "epoch overrun x" + std::to_string(s.overrun_streak);
  }

  SloState next = SloState::kHealthy;
  if (!reason.empty()) {
    s.bad_streak += 1;
    // Sustained degradation escalates: twice the overrun-streak threshold
    // of consecutive bad epochs means the site is not recovering on its own.
    next = s.bad_streak >= 2 * thresholds.overrun_streak
               ? SloState::kUnhealthy
               : SloState::kDegraded;
    if (next == SloState::kUnhealthy) {
      reason += " (sustained x" + std::to_string(s.bad_streak) + ")";
    }
  } else {
    s.bad_streak = 0;
  }

  s.epochs_in_state = next == s.state ? s.epochs_in_state + 1 : 1;
  s.state = next;

  SiteHealth health;
  health.site_id = site_id;
  health.state = s.state;
  health.epochs_in_state = s.epochs_in_state;
  health.reason = reason;
  return health;
}

}  // namespace surfos::daemon
