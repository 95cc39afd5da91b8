// SurfOS — the public facade.
//
// One object wires the full stack for a managed radio environment:
//
//   SurfOS os(environment, ap, band, budget);
//   os.install_programmable(*catalog.find("NR-Surface"), pose, 16, 16, "s0");
//   os.register_client("VR_headset", position);
//   auto task = os.orchestrator().enhance_link({"VR_headset", 30.0, 10.0});
//   os.step();
//
// The facade owns the simulated clock, the device registry, every installed
// panel (drivers hold non-owning pointers), the orchestrator, and the
// service broker. Hardware can be installed from the Table-1 catalog or
// synthesized from datasheet text (the Section 3.4 automation path).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "broker/broker.hpp"
#include "broker/specgen.hpp"
#include "core/status.hpp"
#include "hal/registry.hpp"
#include "orch/orchestrator.hpp"
#include "sim/environment.hpp"
#include "surface/catalog.hpp"

namespace surfos {

/// Result of a datasheet-driven install: the registered device id plus any
/// non-fatal parse warnings. Replaces the old `std::vector<std::string>*`
/// warnings out-parameter.
struct InstallReport {
  std::string device_id;
  std::vector<std::string> warnings;
};

class SurfOS {
 public:
  /// `environment` must be finalized and outlive the SurfOS instance.
  SurfOS(const sim::Environment* environment, sim::TxSpec ap, em::Band band,
         em::LinkBudget budget, orch::OrchestratorOptions options = {});

  // --- Hardware installation ----------------------------------------------

  /// Installs a programmable surface of a catalog design at a pose.
  const std::string& install_programmable(const surface::CatalogEntry& entry,
                                          const geom::Frame& pose,
                                          std::size_t rows, std::size_t cols,
                                          std::string device_id);

  /// Installs a passive surface; `fabricated_config` (if non-empty) is the
  /// one-time fabrication pattern.
  const std::string& install_passive(
      const surface::CatalogEntry& entry, const geom::Frame& pose,
      std::size_t rows, std::size_t cols, std::string device_id,
      const surface::SurfaceConfig& fabricated_config = {});

  /// Parses a datasheet and installs the described surface (driver
  /// generation workflow). kParseError on a fatally unusable datasheet;
  /// non-fatal parse warnings come back in the report.
  Result<InstallReport> install_from_datasheet(
      const std::string& datasheet_text, const geom::Frame& pose,
      std::string device_id);

  /// Registers a client/sensor endpoint the orchestrator can target.
  void register_endpoint(std::string id, hal::EndpointKind kind,
                         const geom::Vec3& position);

  // --- Layers ---------------------------------------------------------------

  hal::SimClock& clock() noexcept { return clock_; }
  hal::DeviceRegistry& registry() noexcept { return registry_; }
  const hal::DeviceRegistry& registry() const noexcept { return registry_; }
  orch::Orchestrator& orchestrator() noexcept { return *orchestrator_; }
  const orch::Orchestrator& orchestrator() const noexcept {
    return *orchestrator_;
  }
  broker::ServiceBroker& broker() noexcept { return *broker_; }
  const broker::ServiceBroker& broker() const noexcept { return *broker_; }

  const surface::SurfacePanel& panel_of(const std::string& device_id) const;

  /// One control-plane cycle (schedule -> optimize -> actuate -> measure).
  orch::StepReport step() { return orchestrator_->step(); }

 private:
  hal::SimClock clock_;
  hal::DeviceRegistry registry_;
  std::vector<std::unique_ptr<surface::SurfacePanel>> panels_;
  std::unique_ptr<orch::Orchestrator> orchestrator_;
  std::unique_ptr<broker::ServiceBroker> broker_;
  em::Band band_;
};

}  // namespace surfos
