// Unified surface driver API (paper 3.1 "Hardware Manager").
//
// Drivers mask hardware heterogeneity behind one programming interface whose
// currency is the element-wise SurfaceConfig: write_config() stores a whole
// configuration in a slot (asynchronously, through the control link — the
// control plane), select_config() switches the active slot (the cheap
// data-plane action an endpoint-feedback loop exercises), and poll() lets
// in-flight control traffic land. There is no partial write: every stored
// slot is written whole.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hal/clock.hpp"
#include "hal/link.hpp"
#include "hal/protocol.hpp"
#include "hal/spec.hpp"
#include "surface/config.hpp"
#include "surface/panel.hpp"

namespace surfos::hal {

enum class DriverStatus {
  kOk,
  kUnsupported,   ///< Operation not available on this hardware class.
  kBadSlot,       ///< Slot index out of range.
  kBadConfig,     ///< Configuration does not match the element count.
  kAlreadyFixed,  ///< Passive surface already fabricated.
};

constexpr const char* to_string(DriverStatus s) noexcept {
  switch (s) {
    case DriverStatus::kOk: return "ok";
    case DriverStatus::kUnsupported: return "unsupported";
    case DriverStatus::kBadSlot: return "bad-slot";
    case DriverStatus::kBadConfig: return "bad-config";
    case DriverStatus::kAlreadyFixed: return "already-fixed";
  }
  return "?";
}

class SurfaceDriver {
 public:
  SurfaceDriver(std::string device_id, const surface::SurfacePanel* panel,
                HardwareSpec spec);
  virtual ~SurfaceDriver() = default;
  SurfaceDriver(const SurfaceDriver&) = delete;
  SurfaceDriver& operator=(const SurfaceDriver&) = delete;

  const std::string& device_id() const noexcept { return device_id_; }
  const surface::SurfacePanel& panel() const noexcept { return *panel_; }
  const HardwareSpec& spec() const noexcept { return spec_; }

  /// Writes a configuration into a storage slot. May apply asynchronously;
  /// kOk means accepted for delivery.
  virtual DriverStatus write_config(std::uint16_t slot,
                                    const surface::SurfaceConfig& config) = 0;

  /// Activates a stored slot.
  virtual DriverStatus select_config(std::uint16_t slot) = 0;

  /// Processes any in-flight control traffic; call when simulated time has
  /// advanced.
  virtual void poll() {}

  /// True while a frame this driver sent has not reached the hardware, so a
  /// stored slot may not yet hold what was last written to it.
  virtual bool has_frames_in_flight() const noexcept { return false; }

  /// The configuration currently actuating the hardware (after granularity /
  /// quantization projection).
  const surface::SurfaceConfig& active_config() const noexcept {
    return active_config_;
  }
  std::uint16_t active_slot() const noexcept { return active_slot_; }

  /// The stored (not necessarily active) configuration of a slot.
  const surface::SurfaceConfig& stored_config(std::uint16_t slot) const;
  std::size_t slot_count() const noexcept { return slots_.size(); }

  /// Rises whenever a stored slot is (re)written: a write_config applied in
  /// poll (first send or ARQ retransmission), fabricate. Each bump
  /// draws from one process-wide sequence, so a value is never reused, not
  /// even by a driver that replaces a removed one under the same id. A
  /// reader that saw revision r has seen every stored slot while it stays r.
  std::uint64_t config_revision() const noexcept { return config_revision_; }

 protected:
  /// init_slots and commit_slot are the only writers of the stored slots;
  /// both bump config_revision().
  void init_slots(std::size_t count);
  /// Stores `config` (projected to what the hardware realizes) into a slot
  /// and refreshes the active config when the slot is active.
  void commit_slot(std::uint16_t slot, const surface::SurfaceConfig& config);
  void activate_slot(std::uint16_t slot);

 private:
  std::string device_id_;
  const surface::SurfacePanel* panel_;
  HardwareSpec spec_;
  std::vector<surface::SurfaceConfig> slots_;
  std::uint64_t config_revision_ = 0;
  surface::SurfaceConfig active_config_;
  std::uint16_t active_slot_ = 0;
};

/// Runtime-reconfigurable surface behind a latent, possibly lossy control
/// path. Every control frame rides a ReliableLink whose forward latency is
/// the spec's control delay; the controller validates each frame it
/// receives and applies it to the stored slots.
class ProgrammableSurfaceDriver final : public SurfaceDriver {
 public:
  ProgrammableSurfaceDriver(std::string device_id,
                            const surface::SurfacePanel* panel,
                            HardwareSpec spec, const SimClock* clock,
                            ReliableOptions options = {});

  DriverStatus write_config(std::uint16_t slot,
                            const surface::SurfaceConfig& config) override;
  DriverStatus select_config(std::uint16_t slot) override;
  void poll() override;
  bool has_frames_in_flight() const noexcept override {
    return !link_.all_delivered();
  }

  std::size_t frames_applied() const noexcept { return frames_applied_; }
  /// Frames that failed their CRC on the link, plus frames the controller
  /// received but refused (bad slot, malformed payload, unknown type).
  std::size_t frames_rejected() const noexcept {
    return frames_rejected_ + link_.rejected_count();
  }
  const ReliableLink& link() const noexcept { return link_; }

 private:
  void apply(const Frame& frame);

  ReliableLink link_;
  std::size_t frames_applied_ = 0;
  std::size_t frames_rejected_ = 0;
};

/// Fabrication-time-configurable surface: one slot, written exactly once.
class PassiveSurfaceDriver final : public SurfaceDriver {
 public:
  PassiveSurfaceDriver(std::string device_id,
                       const surface::SurfacePanel* panel, HardwareSpec spec);

  /// The single fabrication-time write.
  DriverStatus fabricate(const surface::SurfaceConfig& config);

  DriverStatus write_config(std::uint16_t slot,
                            const surface::SurfaceConfig& config) override;
  DriverStatus select_config(std::uint16_t slot) override;

  bool fabricated() const noexcept { return fabricated_; }

 private:
  bool fabricated_ = false;
};

/// Builds the natural spec for a catalog design (band response from its
/// band(s), control delay by hardware class, slots by granularity).
HardwareSpec spec_for_panel(const surface::SurfacePanel& panel, em::Band band);

}  // namespace surfos::hal
