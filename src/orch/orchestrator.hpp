// The surface orchestrator: SurfOS's central control plane (paper 3.2).
//
// Exposes the environment-wide service APIs — enhance_link(),
// optimize_coverage(), enable_sensing(), init_powering(), protect() — each
// creating a Task. step() then: (1) schedules active tasks onto slices of
// time/frequency/space, (2) jointly optimizes surface configurations per
// slice against the channel model, (3) actuates the configurations through
// the hardware manager's drivers (write_config/select_config over control
// links), and (4) measures achieved service metrics from the *hardware's*
// realized state, not the optimizer's intent.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "em/propagation.hpp"
#include "hal/batch.hpp"
#include "hal/registry.hpp"
#include "opt/optimizer.hpp"
#include "orch/objectives.hpp"
#include "orch/perf.hpp"
#include "orch/scheduler.hpp"
#include "orch/task.hpp"
#include "orch/variables.hpp"
#include "sim/channel.hpp"
#include "sim/environment.hpp"

namespace surfos::orch {

struct OrchestratorContext {
  const sim::Environment* environment = nullptr;
  sim::TxSpec ap;  ///< The serving AP/base station this control plane models.
  em::Band default_band = em::Band::k28GHz;
  em::LinkBudget budget;
  sim::ChannelOptions channel_options;
};

struct OrchestratorOptions {
  SchedulePolicy policy = SchedulePolicy::kPriorityJoint;
  std::size_t sensing_bins = 121;
  /// Re-run optimization every step even when nothing changed (for ablations;
  /// normally plans are reused until tasks or the environment change).
  bool always_reoptimize = false;
};

struct TaskReport {
  TaskId id = 0;
  ServiceType type = ServiceType::kConnectivity;
  TaskState state = TaskState::kPending;
  std::optional<double> achieved;
  bool goal_met = false;
};

/// Per-step control-cycle trace (telemetry). The counts are deterministic;
/// the `*_us` fields are wall-clock timings and vary run to run, so byte
/// comparisons of reports zero them first.
struct StepTrace {
  double schedule_us = 0.0;
  double optimize_us = 0.0;
  double actuate_us = 0.0;
  double measure_us = 0.0;
  double total_us = 0.0;
  std::size_t plans_fresh = 0;      ///< Plans (re)built this step.
  std::size_t plans_reused = 0;     ///< Cache hits: channel/optimum reused.
  std::size_t objective_evaluations = 0;  ///< Optimizer loss evaluations.
  std::size_t config_writes = 0;    ///< Config-write transactions issued.
  /// Elements re-coded across those writes; a naive writer would pay one
  /// transaction per element.
  std::size_t element_updates = 0;
  std::size_t writes_staged = 0;    ///< Per-device writes staged this epoch.
  std::size_t writes_coalesced = 0;  ///< Staged writes absorbed by later ones.
  std::size_t writes_elided = 0;    ///< Dirty slots already at target state.
  /// Trace id of each assignment processed this step (the primary task's),
  /// in schedule order — the join key between a StepReport and the flight
  /// recorder. Deterministic and identical whether SURFOS_TRACE is on or off.
  std::vector<telemetry::TraceId> trace_ids;
  /// Trace id of *every* scheduled task this step, in schedule order (a
  /// superset of trace_ids, which keeps only each assignment's primary). A
  /// task's id first appears here on the step whose epoch flush applied its
  /// configurations — the admit-to-applied join key the fleet bench uses.
  std::vector<telemetry::TraceId> task_trace_ids;
};

struct StepReport {
  std::size_t assignment_count = 0;
  std::size_t optimizations_run = 0;
  std::vector<TaskId> starved;
  std::vector<TaskReport> tasks;
  StepTrace trace;
};

class Orchestrator;

/// Typed handle returned by the service APIs: the task id plus live status
/// accessors backed by the orchestrator that admitted it. Implicitly
/// converts to TaskId so pre-redesign call sites keep compiling; the handle
/// is only valid while its orchestrator is alive.
class TaskHandle {
 public:
  TaskHandle() = default;
  TaskHandle(Orchestrator* orchestrator, TaskId id) noexcept
      : orchestrator_(orchestrator), id_(id) {}

  TaskId id() const noexcept { return id_; }
  operator TaskId() const noexcept { return id_; }

  /// True when the handle points at a task its orchestrator still knows.
  bool valid() const noexcept;
  /// Live task state. Throws std::invalid_argument on an invalid handle.
  TaskState status() const;
  /// Whether the goal was met at the last measurement. Throws on invalid.
  bool goal_met() const;
  /// Most recent achieved metric in the goal's own unit (SNR dB, error m,
  /// power dBm); nullopt before the first measurement. Throws on invalid.
  std::optional<double> last_metric() const;
  /// The task's causal trace context (intent-derived trace id). Throws on
  /// invalid. Join key into the flight recorder / Chrome trace export.
  telemetry::TraceContext trace() const;

 private:
  const Task& task() const;

  Orchestrator* orchestrator_ = nullptr;
  TaskId id_ = 0;
};

class Orchestrator {
 public:
  /// `registry`, `clock`, and everything in `context` must outlive the
  /// orchestrator.
  Orchestrator(hal::DeviceRegistry* registry, hal::SimClock* clock,
               OrchestratorContext context, OrchestratorOptions options = {});

  // --- Service API (paper Fig 6 function names) ---------------------------
  // `band` overrides the environment's default band for the task — the
  // frequency axis of the scheduler's multiplexing (tasks on different
  // bands get independent slices over their bands' surfaces).

  // Each returns a TaskHandle bound to this orchestrator. The handle
  // implicitly converts to TaskId, so code written against the pre-handle
  // API keeps working unchanged (see DESIGN.md "Telemetry").

  TaskHandle enhance_link(LinkGoal goal,
                          Priority priority = kPriorityInteractive,
                          std::optional<em::Band> band = std::nullopt);
  TaskHandle optimize_coverage(CoverageGoal goal,
                               Priority priority = kPriorityNormal,
                               std::optional<em::Band> band = std::nullopt);
  TaskHandle enable_sensing(SensingGoal goal,
                            Priority priority = kPriorityNormal,
                            std::optional<em::Band> band = std::nullopt);
  TaskHandle init_powering(PowerGoal goal,
                           Priority priority = kPriorityBackground,
                           std::optional<em::Band> band = std::nullopt);
  TaskHandle protect(SecurityGoal goal, Priority priority = kPriorityCritical,
                     std::optional<em::Band> band = std::nullopt);

  // --- Task lifecycle ------------------------------------------------------

  /// Erases the task: it leaves the schedule at the next step and releases
  /// its resource slice, find_task returns null and a TaskHandle to it is no
  /// longer valid(). The orchestrator's only exit for a task; unknown ids
  /// are a no-op. (Pausing an app's work is the broker's business: it
  /// cancels the tasks and re-translates the demand on resume.)
  void cancel_task(TaskId id);
  const Task* find_task(TaskId id) const noexcept;
  std::vector<const Task*> tasks() const;

  /// Static-geometry change (walls, furniture rebuilt): invalidates every
  /// cached channel and plan so the next step() rebuilds them. Moving
  /// obstacle boxes (sim::Environment::move_obstacle_box, people walking)
  /// needs no call: each step syncs a cached plan's channel by delta,
  /// reuses the plan when its channel did not change and re-plans it as a
  /// fresh build would when it did.
  void notify_environment_changed();

  // --- Control knobs -------------------------------------------------------

  void set_optimizer(std::unique_ptr<opt::Optimizer> optimizer);
  const opt::Optimizer& optimizer() const noexcept { return *optimizer_; }
  Scheduler& scheduler() noexcept { return scheduler_; }

  /// One control-plane cycle: schedule -> optimize -> actuate -> measure.
  StepReport step();

  /// The configurations last realized for an assignment's devices (empty if
  /// the device has not been programmed yet).
  std::optional<surface::SurfaceConfig> last_realized(
      const std::string& device_id) const;

  const OrchestratorContext& context() const noexcept { return context_; }

 private:
  struct Plan {
    std::unique_ptr<sim::SceneChannel> channel;
    std::unique_ptr<PanelVariables> variables;
    std::vector<const surface::SurfacePanel*> panels;
    /// Per task: indices into the channel's RX points.
    std::map<TaskId, std::vector<std::size_t>> task_rx;
    std::map<TaskId, std::size_t> sensing_panel_of;  ///< For sensing tasks.
    std::vector<double> x;  ///< Current control phases.
    std::uint64_t env_revision = 0;
    /// Task ids the channel's RX rows were built for. When only this
    /// differs from the incoming assignment, plan_for rebases the channel's
    /// RX set in O(changed endpoints) instead of rebuilding the plan.
    std::vector<TaskId> tasks;
    bool optimized = false;
    double last_loss = 0.0;
    /// The TaskReports of the last measure and the summed config revision
    /// of the plan's devices they were read from. A kept plan re-uses them
    /// while `measured` holds and the revision has not moved; every
    /// optimize-and-stage (so every fresh or rebased plan) clears
    /// `measured`.
    std::vector<TaskReport> reports;
    std::uint64_t measured_revision = 0;
    bool measured = false;
  };

  /// A plan's physical resources: band, slot and devices. Deliberately
  /// excludes the task set, so task churn lands on the same plan and its
  /// channel can be rebased in O(changed endpoints) (plan_for).
  struct PlanKey {
    em::Band band = em::Band::k28GHz;
    std::uint16_t slot = 0;
    std::vector<std::string> devices;
  };
  /// Orders PlanKeys and looks a plan up straight from an Assignment (same
  /// member names), so finding a kept plan builds no key.
  struct PlanKeyLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return std::tie(a.band, a.slot, a.devices) <
             std::tie(b.band, b.slot, b.devices);
    }
  };

  TaskId admit(ServiceGoal goal, Priority priority,
               std::optional<double> duration_s,
               std::optional<em::Band> band = std::nullopt);
  std::vector<geom::Vec3> probe_points(const Task& task, bool& ok) const;
  Plan& plan_for(const Assignment& assignment, bool& fresh);
  /// Fills plan.task_rx (indices into `rx_points`) from the assignment's
  /// tasks, appending each task's probe points; failing tasks are marked
  /// kFailed and skipped.
  void collect_task_rx(const Assignment& assignment, Plan& plan,
                       std::vector<geom::Vec3>& rx_points);
  /// Picks each sensing task's aperture panel from the plan's channel.
  void pick_sensing_panels(const Assignment& assignment, Plan& plan) const;
  /// Returns the number of objective evaluations the optimizer spent.
  std::size_t optimize_plan(const Assignment& assignment, Plan& plan);
  /// Stages the plan's realized configs into the epoch's write-combining
  /// buffer (flushed once per step; see step()).
  void stage_actuate(const Assignment& assignment, const Plan& plan,
                     hal::WriteCombiner& combiner);
  /// Measures the assignment's tasks from the hardware's stored configs
  /// and keeps the reports on the plan, stamped with `revision`.
  void measure(const Assignment& assignment, Plan& plan,
               std::uint64_t revision, StepReport& report);
  /// Appends a kept plan's last reports and puts each task's state and
  /// metric back to them (another plan may have measured the task since).
  void keep_measurement(const Plan& plan, StepReport& report);
  /// Sum of the assignment's devices' config revisions.
  std::uint64_t config_revision(const Assignment& assignment) const;
  /// Candidate starting points for a fresh plan: the relay-chain focus and
  /// the direct per-panel focus (multi-panel scenes can favor either
  /// structure; the optimizer keeps whichever basin wins).
  std::vector<std::vector<double>> initial_candidates(
      const Assignment& assignment, Plan& plan) const;
  std::vector<surface::SurfaceConfig> hardware_configs(
      const Assignment& assignment, const Plan& plan) const;

  hal::DeviceRegistry* registry_;
  hal::SimClock* clock_;
  OrchestratorContext context_;
  OrchestratorOptions options_;
  Scheduler scheduler_;
  std::unique_ptr<opt::Optimizer> optimizer_;

  std::map<TaskId, Task> tasks_;
  TaskId next_task_id_ = 1;
  std::uint64_t env_revision_ = 1;
  std::map<PlanKey, Plan, PlanKeyLess> plans_;
};

}  // namespace surfos::orch
