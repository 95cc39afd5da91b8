#include "orch/orchestrator.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace surfos::orch {

namespace {
constexpr const char* kLog = "orchestrator";
}

// --- TaskHandle ----------------------------------------------------------------

bool TaskHandle::valid() const noexcept {
  return orchestrator_ != nullptr && orchestrator_->find_task(id_) != nullptr;
}

const Task& TaskHandle::task() const {
  const Task* task =
      orchestrator_ == nullptr ? nullptr : orchestrator_->find_task(id_);
  if (task == nullptr) {
    throw std::invalid_argument("TaskHandle: invalid handle for task " +
                                std::to_string(id_));
  }
  return *task;
}

TaskState TaskHandle::status() const { return task().state; }

bool TaskHandle::goal_met() const { return task().goal_met; }

std::optional<double> TaskHandle::last_metric() const {
  return task().achieved;
}

telemetry::TraceContext TaskHandle::trace() const { return task().trace; }

Orchestrator::Orchestrator(hal::DeviceRegistry* registry, hal::SimClock* clock,
                           OrchestratorContext context,
                           OrchestratorOptions options)
    : registry_(registry),
      clock_(clock),
      context_(std::move(context)),
      options_(options),
      scheduler_(options.policy),
      optimizer_(std::make_unique<opt::GradientDescent>()) {
  if (registry_ == nullptr || clock_ == nullptr) {
    throw std::invalid_argument("Orchestrator: null registry or clock");
  }
  if (context_.environment == nullptr) {
    throw std::invalid_argument("Orchestrator: null environment");
  }
}

// --- Service API --------------------------------------------------------------

TaskId Orchestrator::admit(ServiceGoal goal, Priority priority,
                           std::optional<double> duration_s,
                           std::optional<em::Band> band) {
  Task task;
  task.id = next_task_id_++;
  task.goal = std::move(goal);
  task.priority = priority;
  task.band = band.value_or(context_.default_band);
  task.created_at = clock_->now();
  if (duration_s) {
    task.expires_at = clock_->now() + static_cast<hal::Micros>(
                                          *duration_s * hal::kMicrosPerSecond);
  }
  // Adopt the caller's causal trace (the broker installs one per intent);
  // direct service-API calls mint a task-id-derived trace instead. Either
  // way the id is deterministic and independent of the SURFOS_TRACE switch.
  const telemetry::TraceContext& ambient = telemetry::current_trace();
  task.trace = ambient.valid()
                   ? ambient
                   : telemetry::TraceContext{
                         telemetry::make_trace_id(
                             telemetry::trace_domain("orch.task"), task.id),
                         0};
  SURFOS_INFO(kLog) << "admit task " << task.id << " ("
                    << to_string(task.type()) << ", prio " << priority << ")";
  SURFOS_COUNT("orch.tasks.admitted");
  const TaskId id = task.id;
  tasks_.emplace(id, std::move(task));
  return id;
}

TaskHandle Orchestrator::enhance_link(LinkGoal goal, Priority priority,
                                      std::optional<em::Band> band) {
  return {this, admit(std::move(goal), priority, std::nullopt, band)};
}

TaskHandle Orchestrator::optimize_coverage(CoverageGoal goal, Priority priority,
                                           std::optional<em::Band> band) {
  return {this, admit(std::move(goal), priority, std::nullopt, band)};
}

TaskHandle Orchestrator::enable_sensing(SensingGoal goal, Priority priority,
                                        std::optional<em::Band> band) {
  const double duration = goal.duration_s;
  return {this, admit(std::move(goal), priority, duration, band)};
}

TaskHandle Orchestrator::init_powering(PowerGoal goal, Priority priority,
                                       std::optional<em::Band> band) {
  const double duration = goal.duration_s;
  return {this, admit(std::move(goal), priority, duration, band)};
}

TaskHandle Orchestrator::protect(SecurityGoal goal, Priority priority,
                                 std::optional<em::Band> band) {
  return {this, admit(std::move(goal), priority, std::nullopt, band)};
}

// --- Task lifecycle -------------------------------------------------------------

void Orchestrator::cancel_task(TaskId id) { tasks_.erase(id); }

const Task* Orchestrator::find_task(TaskId id) const noexcept {
  const auto it = tasks_.find(id);
  return it == tasks_.end() ? nullptr : &it->second;
}

std::vector<const Task*> Orchestrator::tasks() const {
  std::vector<const Task*> out;
  out.reserve(tasks_.size());
  for (const auto& [id, task] : tasks_) out.push_back(&task);
  return out;
}

void Orchestrator::notify_environment_changed() {
  ++env_revision_;
  SURFOS_COUNT("orch.env.changes");
  SURFOS_INFO(kLog) << "environment changed (revision " << env_revision_ << ")";
}

void Orchestrator::set_optimizer(std::unique_ptr<opt::Optimizer> optimizer) {
  if (!optimizer) throw std::invalid_argument("Orchestrator: null optimizer");
  optimizer_ = std::move(optimizer);
  // Optimizer choice invalidates cached optimizations.
  for (auto& [key, plan] : plans_) plan.optimized = false;
}

// --- Planning helpers -----------------------------------------------------------

std::vector<geom::Vec3> Orchestrator::probe_points(const Task& task,
                                                   bool& ok) const {
  ok = true;
  struct Visitor {
    const hal::DeviceRegistry& registry;
    bool& ok;
    std::vector<geom::Vec3> operator()(const LinkGoal& g) const {
      return endpoint(g.endpoint_id);
    }
    std::vector<geom::Vec3> operator()(const PowerGoal& g) const {
      return endpoint(g.endpoint_id);
    }
    std::vector<geom::Vec3> operator()(const CoverageGoal& g) const {
      return g.region.points();
    }
    std::vector<geom::Vec3> operator()(const SensingGoal& g) const {
      return g.region.points();
    }
    std::vector<geom::Vec3> operator()(const SecurityGoal& g) const {
      return g.region.points();
    }
    std::vector<geom::Vec3> endpoint(const std::string& id) const {
      const auto* e = registry.find_endpoint(id);
      if (e == nullptr) {
        ok = false;
        return {};
      }
      return {e->position};
    }
  };
  return std::visit(Visitor{*registry_, ok}, task.goal);
}

void Orchestrator::collect_task_rx(const Assignment& assignment, Plan& plan,
                                   std::vector<geom::Vec3>& rx_points) {
  for (const TaskId id : assignment.tasks) {
    const Task& task = tasks_.at(id);
    bool ok = true;
    const auto points = probe_points(task, ok);
    if (!ok || points.empty()) {
      tasks_.at(id).state = TaskState::kFailed;
      continue;
    }
    std::vector<std::size_t> indices(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      indices[i] = rx_points.size() + i;
    }
    plan.task_rx[id] = std::move(indices);
    rx_points.insert(rx_points.end(), points.begin(), points.end());
  }
}

void Orchestrator::pick_sensing_panels(const Assignment& assignment,
                                       Plan& plan) const {
  // Pick each sensing task's aperture: the panel with the strongest mean
  // element response over the task's probe points.
  for (const TaskId id : assignment.tasks) {
    const auto rx_it = plan.task_rx.find(id);
    if (rx_it == plan.task_rx.end()) continue;
    if (tasks_.at(id).type() != ServiceType::kSensing) continue;
    std::size_t best_panel = 0;
    double best_power = -1.0;
    for (std::size_t p = 0; p < plan.panels.size(); ++p) {
      double power = 0.0;
      for (const std::size_t j : rx_it->second) {
        // Serial element-order sum: a reduction tree could flip a near-tie.
        const em::CxPlanes& g = plan.channel->rx_planes(p, j);
        double row = 0.0;
        for (std::size_t e = 0; e < g.size(); ++e) row += std::norm(g.at(e));
        power += row;
      }
      if (power > best_power) {
        best_power = power;
        best_panel = p;
      }
    }
    plan.sensing_panel_of[id] = best_panel;
  }
}

Orchestrator::Plan& Orchestrator::plan_for(const Assignment& assignment,
                                           bool& fresh) {
  const auto it = plans_.find(assignment);
  if (it != plans_.end() && it->second.env_revision == env_revision_) {
    Plan& plan = it->second;
    const bool same_tasks = plan.tasks == assignment.tasks;
    // Blocker motion: the channel catches up by delta (SceneChannel::sync).
    // A plan whose channel values it leaves unchanged is reused as is.
    if (same_tasks && (plan.channel == nullptr || !plan.channel->sync())) {
      fresh = false;
      return plan;
    }
    // A changed channel, or the same resources with a different task set:
    // rebase the live channel instead of rebuilding the whole plan.
    // Surviving endpoints keep their rows; only new ones (and rows the
    // blocker touched) are traced (SceneChannel::rebase_rx, which syncs
    // the survivors). The result is indistinguishable from a fresh build —
    // same RX order, cleared warm start — at O(changed rows) cost.
    if (plan.channel != nullptr) {
      bool rebased = same_tasks;
      if (!same_tasks) {
        plan.task_rx.clear();
        std::vector<geom::Vec3> rx_points;
        collect_task_rx(assignment, plan, rx_points);
        rebased = !rx_points.empty();
        if (rebased) plan.channel->rebase_rx(std::move(rx_points));
      }
      if (rebased) {
        SURFOS_COUNT("orch.plan.rebased");
        plan.sensing_panel_of.clear();
        pick_sensing_panels(assignment, plan);
        plan.x.clear();
        plan.optimized = false;
        plan.last_loss = 0.0;
        plan.tasks = assignment.tasks;
        fresh = true;
        return plan;
      }
    }
    // Parked plan, or every task now fails: fall through to a full rebuild.
  }
  fresh = true;
  Plan plan;
  plan.env_revision = env_revision_;
  plan.tasks = assignment.tasks;

  for (const auto& device : assignment.devices) {
    const auto* driver = registry_->find_surface(device);
    if (driver == nullptr) {
      throw std::logic_error("Orchestrator: scheduled unknown device " + device);
    }
    plan.panels.push_back(&driver->panel());
  }

  std::vector<geom::Vec3> rx_points;
  collect_task_rx(assignment, plan, rx_points);
  // When every task in the assignment failed, an empty plan is parked.
  if (!rx_points.empty()) {
    plan.channel = std::make_unique<sim::SceneChannel>(
        context_.environment, em::band_center(assignment.band), context_.ap,
        plan.panels, std::move(rx_points), nullptr, context_.channel_options);
    plan.variables = std::make_unique<PanelVariables>(plan.panels);
    pick_sensing_panels(assignment, plan);
  }
  return plans_
      .insert_or_assign(
          PlanKey{assignment.band, assignment.slot, assignment.devices},
          std::move(plan))
      .first->second;
}

std::vector<std::vector<double>> Orchestrator::initial_candidates(
    const Assignment& assignment, Plan& plan) const {
  // Warm-start from what the hardware already stores in this slot when the
  // slot is no longer the all-zero default.
  std::vector<surface::SurfaceConfig> stored;
  bool all_zero = true;
  for (std::size_t i = 0; i < assignment.devices.size(); ++i) {
    const auto* driver = registry_->find_surface(assignment.devices[i]);
    const auto& config = driver->stored_config(assignment.slot);
    const surface::SurfaceConfig zero(config.size());
    if (config.max_phase_delta(zero) > 1e-9) all_zero = false;
    stored.push_back(config);
  }
  if (!all_zero) return {plan.variables->from_configs(stored)};

  // Centroid of all probe points as the final focus target.
  geom::Vec3 target{};
  std::size_t count = 0;
  for (const auto& [id, indices] : plan.task_rx) {
    for (const std::size_t j : indices) {
      target += plan.channel->rx_point(j);
      ++count;
    }
  }
  if (count > 0) target = target / static_cast<double>(count);
  const double frequency = em::band_center(assignment.band);

  std::vector<std::vector<double>> candidates;

  // Candidate 1: relay chain — panel k focuses the previous stage's source
  // onto the next panel (or the target for the last panel), ordered by
  // distance from the AP. Best when surfaces cascade around blockage.
  {
    std::vector<std::size_t> order(plan.panels.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return plan.panels[a]->center().distance_to(context_.ap.position) <
             plan.panels[b]->center().distance_to(context_.ap.position);
    });
    std::vector<surface::SurfaceConfig> init(plan.panels.size(),
                                             surface::SurfaceConfig{});
    geom::Vec3 source = context_.ap.position;
    for (std::size_t k = 0; k < order.size(); ++k) {
      const auto& panel = *plan.panels[order[k]];
      const geom::Vec3 next_target = (k + 1 < order.size())
                                         ? plan.panels[order[k + 1]]->center()
                                         : target;
      init[order[k]] = panel.focus_config(source, next_target, frequency);
      source = panel.center();
    }
    candidates.push_back(plan.variables->from_configs(init));
  }

  // Candidate 2: every panel independently focuses the AP onto the target.
  // Best when each surface has its own usable AP->target route.
  if (plan.panels.size() > 1) {
    std::vector<surface::SurfaceConfig> init;
    init.reserve(plan.panels.size());
    for (const auto* panel : plan.panels) {
      init.push_back(panel->focus_config(context_.ap.position, target,
                                         frequency));
    }
    candidates.push_back(plan.variables->from_configs(init));
  }
  return candidates;
}

// --- Optimization / actuation / measurement ------------------------------------

std::size_t Orchestrator::optimize_plan(const Assignment& assignment,
                                        Plan& plan) {
  const double rho = context_.budget.snr(1.0);  // linear SNR per unit |h|^2

  JointObjective joint(plan.channel.get(), plan.variables.get());
  // The warm-start candidates are derived at most once per optimization:
  // the first one normalizes the power terms, and all of them seed a plan
  // without a kept x. Nothing in between writes a stored slot.
  std::vector<std::vector<double>> candidates;
  const auto warm_starts = [&]() -> const std::vector<std::vector<double>>& {
    if (candidates.empty()) candidates = initial_candidates(assignment, plan);
    return candidates;
  };
  // The warm-start point's coefficients normalize the power terms (security
  // leak level, powering focus power); computed lazily once and shared
  // across tasks.
  std::vector<em::CxPlanes> x0_coefficients;
  const auto p0_at_start = [&](const std::vector<std::size_t>& rx) {
    if (x0_coefficients.empty()) {
      plan.variables->coefficients_into(warm_starts().front(),
                                        x0_coefficients);
    }
    double p0 = 0.0;
    for (const std::size_t j : rx) {
      p0 += std::norm(plan.channel->evaluate(j, x0_coefficients));
    }
    return std::max(p0 / static_cast<double>(rx.size()), 1e-30);
  };
  for (std::size_t k = 0; k < assignment.tasks.size(); ++k) {
    const TaskId id = assignment.tasks[k];
    const auto rx_it = plan.task_rx.find(id);
    if (rx_it == plan.task_rx.end()) continue;
    const Task& task = tasks_.at(id);
    const double weight = assignment.weights[k];
    switch (task.type()) {
      case ServiceType::kConnectivity:
      case ServiceType::kCoverage:
        joint.add_capacity(rx_it->second, rho, 1.0, weight);
        break;
      case ServiceType::kSecurity:
        // Suppress *linear* received power (not log capacity): the linear
        // mean is dominated by the worst leaks, which is exactly what a
        // protection ceiling cares about. Negative weight turns the
        // power-delivery objective into power suppression; p0 normalizes it
        // to the pre-optimization leak level.
        joint.add_power_delivery(rx_it->second, p0_at_start(rx_it->second),
                                 -weight);
        break;
      case ServiceType::kSensing:
        joint.add_localization(plan.sensing_panel_of.at(id), rx_it->second,
                               options_.sensing_bins, weight);
        break;
      case ServiceType::kPowering:
        // Normalize by the focus-init power at the device so the loss is O(1).
        joint.add_power_delivery(rx_it->second, p0_at_start(rx_it->second),
                                 weight);
        break;
    }
  }
  if (joint.term_count() == 0) return 0;

  const std::vector<std::vector<double>> kept{plan.x};
  const std::vector<std::vector<double>>& starts =
      plan.x.empty() ? warm_starts() : kept;
  opt::OptimizeResult best;
  bool have_best = false;
  std::size_t evaluations = 0;
  for (const auto& x0 : starts) {
    opt::OptimizeResult result = optimizer_->minimize(joint, x0);
    evaluations += result.evaluations;
    if (!have_best || result.value < best.value) {
      best = std::move(result);
      have_best = true;
    }
  }
  plan.x = best.x;
  plan.last_loss = best.value;
  plan.optimized = true;
  SURFOS_COUNT("orch.optimizations");
  SURFOS_COUNT_N("opt.objective.evaluations", evaluations);
  SURFOS_INFO(kLog) << "optimized assignment (" << assignment.tasks.size()
                    << " tasks, " << starts.size() << " start(s)): loss "
                    << best.value << " after " << best.evaluations
                    << " evaluations";
  return evaluations;
}

void Orchestrator::stage_actuate(const Assignment& assignment, const Plan& plan,
                                 hal::WriteCombiner& combiner) {
  if (plan.x.empty()) return;
  const auto realized = plan.variables->realize(plan.x);
  for (std::size_t i = 0; i < assignment.devices.size(); ++i) {
    auto* driver = registry_->find_surface(assignment.devices[i]);
    combiner.stage(*driver, assignment.slot, realized[i], /*activate=*/true);
  }
}

std::vector<surface::SurfaceConfig> Orchestrator::hardware_configs(
    const Assignment& assignment, const Plan&) const {
  std::vector<surface::SurfaceConfig> configs;
  for (const auto& device : assignment.devices) {
    const auto* driver = registry_->find_surface(device);
    configs.push_back(driver->stored_config(assignment.slot));
  }
  return configs;
}

std::uint64_t Orchestrator::config_revision(
    const Assignment& assignment) const {
  std::uint64_t revision = 0;
  for (const auto& device : assignment.devices) {
    revision += registry_->find_surface(device)->config_revision();
  }
  return revision;
}

void Orchestrator::measure(const Assignment& assignment, Plan& plan,
                           std::uint64_t revision, StepReport& report) {
  plan.reports.clear();
  plan.measured_revision = revision;
  plan.measured = true;
  // One realization of the hardware's configs serves every task's metric.
  const std::vector<em::CxPlanes> coefficients =
      plan.channel->coefficients_for(hardware_configs(assignment, plan));
  for (const TaskId id : assignment.tasks) {
    const auto rx_it = plan.task_rx.find(id);
    if (rx_it == plan.task_rx.end()) continue;
    Task& task = tasks_.at(id);
    if (!task.active()) continue;
    task.state = TaskState::kRunning;
    struct Visitor {
      const sim::SceneChannel& channel;
      const em::LinkBudget& budget;
      const std::vector<em::CxPlanes>& coefficients;
      const std::vector<std::size_t>& rx;
      const Plan& plan;
      TaskId id;
      std::size_t sensing_bins;
      double operator()(const LinkGoal& g, bool& met) const {
        const auto m = link_metrics(channel, budget, coefficients, rx.front());
        met = m.snr_db >= g.target_snr_db;
        return m.snr_db;
      }
      double operator()(const CoverageGoal& g, bool& met) const {
        const auto m = coverage_metrics(channel, budget, coefficients, rx);
        met = m.median_snr_db >= g.target_median_snr_db;
        return m.median_snr_db;
      }
      double operator()(const SensingGoal& g, bool& met) const {
        const auto m = sensing_metrics(channel, coefficients,
                                       plan.sensing_panel_of.at(id), rx,
                                       sensing_bins);
        met = m.median_error_m <= g.target_accuracy_m;
        return m.median_error_m;
      }
      double operator()(const PowerGoal& g, bool& met) const {
        const auto m = power_metrics(channel, budget, coefficients, rx.front());
        met = m.delivered_dbm >= g.min_power_dbm;
        return m.delivered_dbm;
      }
      double operator()(const SecurityGoal& g, bool& met) const {
        const auto m = coverage_metrics(channel, budget, coefficients, rx);
        double worst = -300.0;
        for (const double snr : m.snr_db) {
          worst = std::max(worst, snr + budget.noise_dbm());  // RSS dBm
        }
        met = worst <= g.max_leak_dbm;
        return worst;
      }
    };
    bool met = false;
    Visitor visitor{*plan.channel, context_.budget, coefficients,
                    rx_it->second, plan, id, options_.sensing_bins};
    task.achieved = std::visit(
        [&](const auto& goal) { return visitor(goal, met); }, task.goal);
    task.goal_met = met;
    plan.reports.push_back(
        {task.id, task.type(), task.state, task.achieved, task.goal_met});
  }
  report.tasks.insert(report.tasks.end(), plan.reports.begin(),
                      plan.reports.end());
}

void Orchestrator::keep_measurement(const Plan& plan, StepReport& report) {
  for (const TaskReport& kept : plan.reports) {
    Task& task = tasks_.at(kept.id);
    task.state = kept.state;
    task.achieved = kept.achieved;
    task.goal_met = kept.goal_met;
  }
  report.tasks.insert(report.tasks.end(), plan.reports.begin(),
                      plan.reports.end());
}

StepReport Orchestrator::step() {
  StepReport report;
  telemetry::TraceSpan step_span(SURFOS_SPAN_SITE("orch.step"));
  SURFOS_COUNT("orch.steps");

  // Expire duration-bound tasks.
  for (auto& [id, task] : tasks_) {
    if (task.active() && task.expires_at && clock_->now() >= *task.expires_at) {
      task.state = TaskState::kCompleted;
    }
  }

  std::vector<const Task*> active;
  for (const auto& [id, task] : tasks_) {
    if (task.active()) active.push_back(&task);
  }
  if (active.empty()) return report;

  Schedule schedule;
  {
    telemetry::TraceSpan span(SURFOS_SPAN_SITE("orch.step.schedule"));
    schedule = scheduler_.build(active, *registry_);
    report.trace.schedule_us = span.elapsed_us();
  }
  report.assignment_count = schedule.assignments.size();
  report.starved = schedule.starved;
  SURFOS_COUNT_N("orch.tasks.starved", schedule.starved.size());
  for (const TaskId id : schedule.starved) {
    tasks_.at(id).state = TaskState::kFailed;
    SURFOS_WARN(kLog) << "task " << id << " starved: no capable surface";
  }

  // The step is one control epoch: every assignment stages its writes into
  // the epoch's write-combining buffer, the buffer flushes once (at most one
  // control transaction per dirty (device, slot)), the clock rides out the
  // slowest control path once, and only then do the measure passes read the
  // realized hardware state. Measuring after the single flush keeps the
  // measured state identical to the old write-then-measure-per-assignment
  // loop whenever assignments touch disjoint devices (the scheduler's normal
  // regime: one assignment per band over that band's surfaces).
  hal::WriteCombiner combiner;
  struct Staged {
    const Assignment* assignment = nullptr;
    Plan* plan = nullptr;
    telemetry::TraceContext trace;
  };
  std::vector<Staged> staged;
  staged.reserve(schedule.assignments.size());

  for (const Assignment& assignment : schedule.assignments) {
    // The assignment runs under its primary task's trace (the first task the
    // orchestrator still knows about), so every span and driver write below
    // carries the originating intent's trace id, while the ambient span (the
    // orch.step span when tracing) stays their parent.
    telemetry::TraceContext assignment_trace{
        0, telemetry::current_trace().span_id};
    for (const TaskId id : assignment.tasks) {
      if (const Task* task = find_task(id)) {
        assignment_trace.trace_id = task->trace.trace_id;
        break;
      }
    }
    telemetry::TraceScope trace_scope(assignment_trace);
    report.trace.trace_ids.push_back(assignment_trace.trace_id);
    for (const TaskId id : assignment.tasks) {
      if (const Task* task = find_task(id)) {
        report.trace.task_trace_ids.push_back(task->trace.trace_id);
      }
    }
    SURFOS_TRACE_INSTANT("orch.schedule.assign");

    bool fresh = false;
    Plan& plan = plan_for(assignment, fresh);
    if (fresh) {
      ++report.trace.plans_fresh;
      SURFOS_COUNT("orch.plan.fresh");
    } else {
      ++report.trace.plans_reused;
      SURFOS_COUNT("orch.plan.reused");
    }
    if (!plan.channel) continue;
    if (fresh || !plan.optimized || options_.always_reoptimize) {
      plan.measured = false;  // fresh and rebased plans always land here
      {
        telemetry::TraceSpan span(SURFOS_SPAN_SITE("orch.step.optimize"));
        report.trace.objective_evaluations += optimize_plan(assignment, plan);
        report.trace.optimize_us += span.elapsed_us();
      }
      {
        telemetry::TraceSpan span(SURFOS_SPAN_SITE("orch.step.actuate"));
        stage_actuate(assignment, plan, combiner);
        report.trace.actuate_us += span.elapsed_us();
      }
      ++report.optimizations_run;
    }
    staged.push_back({&assignment, &plan, assignment_trace});
  }

  if (!combiner.empty()) {
    telemetry::TraceSpan span(
        SURFOS_SPAN_SITE("orch.step.flush"), combiner.staged());
    const hal::FlushStats stats = combiner.flush();
    report.trace.config_writes += stats.transactions;
    report.trace.element_updates += stats.element_updates;
    report.trace.writes_staged += stats.writes_staged;
    report.trace.writes_coalesced += stats.writes_coalesced;
    report.trace.writes_elided += stats.writes_elided;
    if (stats.transactions + stats.selects > 0) {
      // Wait out the slowest control path once per epoch.
      clock_->advance(stats.worst_delay_us + 1);
    }
    report.trace.actuate_us += span.elapsed_us();
  }
  // Drain every link once per step, whether or not this step wrote: an ARQ
  // driver retransmits a lost write here, and a write that lands moves the
  // device's config revision, so the measure loop below re-measures it.
  registry_->poll_all();

  // A kept plan whose devices' stored slots did not move since its last
  // measure would read back the same metrics: it re-uses its reports.
  for (const Staged& entry : staged) {
    const std::uint64_t revision = config_revision(*entry.assignment);
    if (entry.plan->measured && entry.plan->measured_revision == revision) {
      keep_measurement(*entry.plan, report);
      continue;
    }
    telemetry::TraceScope trace_scope(entry.trace);
    telemetry::TraceSpan span(SURFOS_SPAN_SITE("orch.step.measure"));
    measure(*entry.assignment, *entry.plan, revision, report);
    report.trace.measure_us += span.elapsed_us();
  }
  report.trace.total_us = step_span.elapsed_us();
  return report;
}

std::optional<surface::SurfaceConfig> Orchestrator::last_realized(
    const std::string& device_id) const {
  const auto* driver = registry_->find_surface(device_id);
  if (driver == nullptr) return std::nullopt;
  return driver->active_config();
}

}  // namespace surfos::orch
