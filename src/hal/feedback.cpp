#include "hal/feedback.hpp"

#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace surfos::hal {

SweepResult CodebookSelector::sweep_and_select(SurfaceDriver& driver,
                                               const SlotProbe& probe) {
  if (!probe) throw std::invalid_argument("CodebookSelector: null probe");
  SURFOS_TRACE_SPAN("hal.feedback.sweep");
  SURFOS_COUNT("hal.feedback.sweeps");
  SURFOS_COUNT_N("hal.feedback.probes", driver.slot_count());
  SweepResult result;
  result.per_slot_metric.resize(driver.slot_count());
  const std::uint16_t current = driver.active_slot();
  bool first = true;
  for (std::uint16_t slot = 0; slot < driver.slot_count(); ++slot) {
    const double metric = probe(slot);
    result.per_slot_metric[slot] = metric;
    if (first || metric > result.best_metric) {
      result.best_metric = metric;
      result.best_slot = slot;
      first = false;
    }
  }
  if (driver.spec().is_passive()) return result;
  if (result.best_slot != current &&
      result.best_metric >
          result.per_slot_metric[current] + switch_margin_) {
    driver.select_config(result.best_slot);
    ++switches_;
    SURFOS_COUNT("hal.feedback.switches");
  }
  return result;
}

}  // namespace surfos::hal
