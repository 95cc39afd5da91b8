// Service tasks — the orchestrator's process abstraction (paper 3.2: "Each
// function call specifies the service goals as input and creates a task
// (akin to OS processes)").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "em/band.hpp"
#include "geom/grid.hpp"
#include "geom/vec3.hpp"
#include "hal/clock.hpp"
#include "telemetry/trace.hpp"

namespace surfos::orch {

using TaskId = std::uint64_t;

enum class ServiceType {
  kConnectivity,  ///< enhance_link(): one endpoint's SNR/latency.
  kCoverage,      ///< optimize_coverage(): region-wide median SNR.
  kSensing,       ///< enable_sensing(): localization/tracking accuracy.
  kPowering,      ///< init_powering(): RF energy delivery to a device.
  kSecurity,      ///< protect(): suppress signal leakage to a region.
};

constexpr const char* to_string(ServiceType t) noexcept {
  switch (t) {
    case ServiceType::kConnectivity: return "connectivity";
    case ServiceType::kCoverage: return "coverage";
    case ServiceType::kSensing: return "sensing";
    case ServiceType::kPowering: return "powering";
    case ServiceType::kSecurity: return "security";
  }
  return "?";
}

/// The values are wire-stable (TaskReport.state in every FleetReport); 2 is
/// unused. A cancelled task has no state: cancel_task erases it.
enum class TaskState {
  kPending = 0,    ///< Admitted, not yet scheduled.
  kRunning = 1,    ///< Holding a resource slice.
  kCompleted = 3,  ///< Duration elapsed.
  kFailed = 4,     ///< Unsatisfiable (no capable hardware, etc.).
};

constexpr const char* to_string(TaskState s) noexcept {
  switch (s) {
    case TaskState::kPending: return "pending";
    case TaskState::kRunning: return "running";
    case TaskState::kCompleted: return "completed";
    case TaskState::kFailed: return "failed";
  }
  return "?";
}

/// Larger value = more important. Mapped from application demands by the
/// service broker.
using Priority = int;
inline constexpr Priority kPriorityBackground = 0;
inline constexpr Priority kPriorityNormal = 10;
inline constexpr Priority kPriorityInteractive = 20;
inline constexpr Priority kPriorityCritical = 30;

// --- Service goals -----------------------------------------------------------

/// enhance_link("VR_headset", snr=30.0, latency=10.0)
struct LinkGoal {
  std::string endpoint_id;
  double target_snr_db = 20.0;
  double max_latency_ms = 50.0;
};

/// optimize_coverage("room", median_snr=25)
struct CoverageGoal {
  std::string region_id;
  geom::SampleGrid region{0.0, 1.0, 0.0, 1.0, 0.0, 1, 1};
  double target_median_snr_db = 20.0;
};

enum class SensingMode { kTracking, kMotion, kImaging };

/// enable_sensing("room", type="tracking", duration=3600)
struct SensingGoal {
  std::string region_id;
  geom::SampleGrid region{0.0, 1.0, 0.0, 1.0, 0.0, 1, 1};
  SensingMode mode = SensingMode::kTracking;
  double duration_s = 3600.0;
  double target_accuracy_m = 0.5;
};

/// init_powering("phone", duration=3600)
struct PowerGoal {
  std::string endpoint_id;
  double duration_s = 3600.0;
  double min_power_dbm = -55.0;  ///< Harvestable RF level at the device.
};

/// protect("meeting_room"): keep RSS in the region below a ceiling.
struct SecurityGoal {
  std::string region_id;
  geom::SampleGrid region{0.0, 1.0, 0.0, 1.0, 0.0, 1, 1};
  double max_leak_dbm = -75.0;
};

using ServiceGoal =
    std::variant<LinkGoal, CoverageGoal, SensingGoal, PowerGoal, SecurityGoal>;

ServiceType service_type_of(const ServiceGoal& goal) noexcept;

// --- Task --------------------------------------------------------------------

struct Task {
  TaskId id = 0;
  ServiceGoal goal;
  Priority priority = kPriorityNormal;
  em::Band band = em::Band::k28GHz;
  TaskState state = TaskState::kPending;
  hal::Micros created_at = 0;
  std::optional<hal::Micros> deadline;  ///< For EDF scheduling.
  std::optional<hal::Micros> expires_at;///< Auto-complete (duration goals).

  /// Most recent achieved metric in the goal's own unit (SNR dB, error m,
  /// power dBm), refreshed by the orchestrator each step.
  std::optional<double> achieved;
  bool goal_met = false;

  /// Causal trace: adopted from the ambient TraceContext at admission (the
  /// broker installs one per intent) or minted from the task id. The
  /// trace_id is deterministic — same call sequence, same id, regardless of
  /// thread count or the SURFOS_TRACE switch.
  telemetry::TraceContext trace;

  ServiceType type() const noexcept { return service_type_of(goal); }
  bool active() const noexcept {
    return state == TaskState::kPending || state == TaskState::kRunning;
  }
};

}  // namespace surfos::orch
