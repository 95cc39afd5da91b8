#include "hal/batch.hpp"

#include <cmath>

#include "telemetry/telemetry.hpp"
#include "util/units.hpp"

namespace surfos::hal {

std::uint16_t phase_code(double radians) noexcept {
  return static_cast<std::uint16_t>(
      std::lround(radians / util::kTwoPi * 65535.0));
}

std::uint8_t amplitude_code(double amplitude) noexcept {
  return static_cast<std::uint8_t>(std::lround(amplitude * 255.0));
}

// --- WriteCombiner -----------------------------------------------------------

void WriteCombiner::stage(SurfaceDriver& driver, std::uint16_t slot,
                          surface::SurfaceConfig config, bool activate) {
  ++staged_;
  auto [it, inserted] = pending_.try_emplace({driver.device_id(), slot});
  if (!inserted) ++coalesced_;
  it->second.driver = &driver;
  it->second.config = std::move(config);
  it->second.activate = it->second.activate || activate;
  it->second.trace = telemetry::current_trace();
}

FlushStats WriteCombiner::flush() {
  FlushStats stats;
  stats.writes_staged = staged_;
  stats.writes_coalesced = coalesced_;
  const auto note_frame = [&](const SurfaceDriver& driver) {
    const Micros delay = driver.spec().control_delay_us;
    if (!driver.spec().is_passive() && delay > stats.worst_delay_us) {
      stats.worst_delay_us = delay;
    }
  };
  // Whether each driver had a frame in flight before this flush sent any:
  // a driver's entries are contiguous in key order, so its first entry reads
  // the state before this flush's own frames to it.
  const SurfaceDriver* previous = nullptr;
  bool in_flight = false;
  for (auto& [key, pending] : pending_) {
    // Reattribute the deferred frame build to the intent that staged it.
    telemetry::TraceScope trace_scope(pending.trace);
    SurfaceDriver& driver = *pending.driver;
    if (&driver != previous) {
      previous = &driver;
      in_flight = driver.has_frames_in_flight();
    }
    const std::uint16_t slot = key.second;
    const surface::SurfaceConfig& target = pending.config;

    // Diff against the stored slot in wire-code space: an element whose
    // serialized u16/u8 codes are unchanged is transmitted bit-for-bit as
    // stored (stored values are decode-side fixed points), so a slot with
    // no changed element already holds what the write would leave.
    std::size_t changed = 0;
    const bool sized = target.size() == driver.panel().element_count();
    if (sized) {
      const surface::SurfaceConfig& stored = driver.stored_config(slot);
      for (std::size_t i = 0; i < target.size(); ++i) {
        if (phase_code(target.phase(i)) != phase_code(stored.phase(i)) ||
            amplitude_code(target.amplitude(i)) !=
                amplitude_code(stored.amplitude(i))) {
          ++changed;
        }
      }
    }

    // A stored slot is the hardware's state only when nothing is in flight.
    // An unsized target goes to the driver, which reports the mismatch as an
    // unbatched write_config would.
    if (sized && changed == 0 && !in_flight) {
      ++stats.writes_elided;
    } else if (driver.write_config(slot, target) == DriverStatus::kOk) {
      ++stats.transactions;
      stats.element_updates += changed;
      note_frame(driver);
    }

    if (pending.activate && driver.select_config(slot) == DriverStatus::kOk) {
      ++stats.selects;
      note_frame(driver);
    }
  }
  pending_.clear();
  staged_ = 0;
  coalesced_ = 0;
  SURFOS_COUNT_N("hal.batch.writes_staged", stats.writes_staged);
  SURFOS_COUNT_N("hal.batch.writes_coalesced", stats.writes_coalesced);
  SURFOS_COUNT_N("hal.batch.writes_elided", stats.writes_elided);
  SURFOS_COUNT_N("hal.batch.transactions", stats.transactions);
  SURFOS_COUNT_N("hal.batch.element_updates", stats.element_updates);
  return stats;
}

}  // namespace surfos::hal
