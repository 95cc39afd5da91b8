#include "hal/driver.hpp"

#include <atomic>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace surfos::hal {

namespace {
std::uint64_t next_config_revision() noexcept {
  static std::atomic<std::uint64_t> sequence{0};
  return sequence.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace

SurfaceDriver::SurfaceDriver(std::string device_id,
                             const surface::SurfacePanel* panel,
                             HardwareSpec spec)
    : device_id_(std::move(device_id)), panel_(panel), spec_(std::move(spec)) {
  if (panel_ == nullptr) throw std::invalid_argument("SurfaceDriver: null panel");
  init_slots(spec_.config_slots == 0 ? 1 : spec_.config_slots);
}

void SurfaceDriver::init_slots(std::size_t count) {
  slots_.assign(count, surface::SurfaceConfig(panel_->element_count()));
  config_revision_ = next_config_revision();
  active_config_ = panel_->realizable(slots_[0]);
  active_slot_ = 0;
}

const surface::SurfaceConfig& SurfaceDriver::stored_config(
    std::uint16_t slot) const {
  if (slot >= slots_.size()) throw std::out_of_range("SurfaceDriver: slot");
  return slots_[slot];
}

void SurfaceDriver::commit_slot(std::uint16_t slot,
                                const surface::SurfaceConfig& config) {
  slots_.at(slot) = panel_->realizable(config);
  config_revision_ = next_config_revision();
  if (slot == active_slot_) active_config_ = slots_[slot];
}

void SurfaceDriver::activate_slot(std::uint16_t slot) {
  active_slot_ = slot;
  active_config_ = slots_.at(slot);
}

// --- ProgrammableSurfaceDriver ----------------------------------------------

ProgrammableSurfaceDriver::ProgrammableSurfaceDriver(
    std::string device_id, const surface::SurfacePanel* panel,
    HardwareSpec spec, const SimClock* clock, ReliableOptions options)
    : SurfaceDriver(std::move(device_id), panel, spec),
      link_(clock, [&] {
        // Control delay is modeled as forward link latency end to end.
        options.forward.latency_us = spec.control_delay_us;
        return options;
      }()) {
  link_.set_receiver([this](const Frame& frame) { apply(frame); });
}

DriverStatus ProgrammableSurfaceDriver::write_config(
    std::uint16_t slot, const surface::SurfaceConfig& config) {
  if (slot >= slot_count()) return DriverStatus::kBadSlot;
  if (config.size() != panel().element_count()) return DriverStatus::kBadConfig;
  SURFOS_TRACE_SPAN("hal.driver.write_config");
  SURFOS_COUNT("hal.driver.config_writes");
  Frame frame;
  frame.type = MessageType::kWriteConfig;
  frame.slot = slot;
  frame.payload = config.serialize();
  link_.send(std::move(frame));
  return DriverStatus::kOk;
}

DriverStatus ProgrammableSurfaceDriver::select_config(std::uint16_t slot) {
  if (slot >= slot_count()) return DriverStatus::kBadSlot;
  SURFOS_COUNT("hal.driver.config_selects");
  Frame frame;
  frame.type = MessageType::kSelectConfig;
  frame.slot = slot;
  link_.send(std::move(frame));
  return DriverStatus::kOk;
}

void ProgrammableSurfaceDriver::poll() {
  const std::size_t applied_before = frames_applied();
  const std::size_t rejected_before = frames_rejected();
  link_.poll();
  SURFOS_COUNT_N("hal.driver.frames_applied",
                 frames_applied() - applied_before);
  SURFOS_COUNT_N("hal.driver.frames_rejected",
                 frames_rejected() - rejected_before);
}

void ProgrammableSurfaceDriver::apply(const Frame& frame) {
  if (frame.slot >= slot_count()) {
    ++frames_rejected_;
    return;
  }
  switch (frame.type) {
    case MessageType::kWriteConfig:
      try {
        commit_slot(frame.slot,
                    surface::SurfaceConfig::deserialize(frame.payload));
        ++frames_applied_;
      } catch (const std::invalid_argument&) {
        ++frames_rejected_;
      }
      break;
    case MessageType::kSelectConfig:
      activate_slot(frame.slot);
      ++frames_applied_;
      break;
    default:
      ++frames_rejected_;
      break;
  }
}

// --- PassiveSurfaceDriver ----------------------------------------------------

PassiveSurfaceDriver::PassiveSurfaceDriver(std::string device_id,
                                           const surface::SurfacePanel* panel,
                                           HardwareSpec spec)
    : SurfaceDriver(std::move(device_id), panel, [&] {
        spec.reconfigurability = surface::Reconfigurability::kPassive;
        spec.control_delay_us = kInfiniteDelay;
        spec.config_slots = 1;
        spec.power_mw = 0.0;
        return spec;
      }()) {}

DriverStatus PassiveSurfaceDriver::fabricate(
    const surface::SurfaceConfig& config) {
  if (fabricated_) return DriverStatus::kAlreadyFixed;
  if (config.size() != panel().element_count()) return DriverStatus::kBadConfig;
  commit_slot(0, config);
  fabricated_ = true;
  return DriverStatus::kOk;
}

DriverStatus PassiveSurfaceDriver::write_config(
    std::uint16_t slot, const surface::SurfaceConfig& config) {
  if (slot != 0) return DriverStatus::kBadSlot;
  if (fabricated_) return DriverStatus::kAlreadyFixed;
  return fabricate(config);
}

DriverStatus PassiveSurfaceDriver::select_config(std::uint16_t slot) {
  return slot == 0 ? DriverStatus::kOk : DriverStatus::kBadSlot;
}

// --- Spec synthesis ----------------------------------------------------------

HardwareSpec spec_for_panel(const surface::SurfacePanel& panel, em::Band band) {
  HardwareSpec spec;
  spec.model = panel.id();
  spec.op_mode = panel.op_mode();
  spec.reconfigurability = panel.reconfigurability();
  spec.granularity = panel.granularity();
  spec.band_response[band] = 0.9;
  if (spec.reconfigurability == surface::Reconfigurability::kPassive) {
    spec.control_delay_us = kInfiniteDelay;
    spec.config_slots = 1;
    spec.power_mw = 0.0;
  } else {
    // Element-wise designs shift more state per update; column/row-wise
    // hardware has shorter update paths.
    spec.control_delay_us =
        panel.granularity() == surface::ControlGranularity::kElement ? 1000
                                                                     : 200;
    spec.config_slots = 8;
    spec.power_mw = 0.05 * static_cast<double>(panel.element_count());
  }
  return spec;
}

}  // namespace surfos::hal
