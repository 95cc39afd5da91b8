#include "broker/broker.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace surfos::broker {

namespace {
constexpr const char* kLog = "broker";

/// Admits `goal` through its service API (paper Fig 6 function names).
orch::TaskId dispatch(orch::Orchestrator& orch, const orch::ServiceGoal& goal,
                      orch::Priority priority) {
  struct Dispatch {
    orch::Orchestrator& orch;
    orch::Priority priority;
    orch::TaskId operator()(const orch::LinkGoal& g) const {
      return orch.enhance_link(g, priority);
    }
    orch::TaskId operator()(const orch::CoverageGoal& g) const {
      return orch.optimize_coverage(g, priority);
    }
    orch::TaskId operator()(const orch::SensingGoal& g) const {
      return orch.enable_sensing(g, priority);
    }
    orch::TaskId operator()(const orch::PowerGoal& g) const {
      return orch.init_powering(g, priority);
    }
    orch::TaskId operator()(const orch::SecurityGoal& g) const {
      return orch.protect(g, priority);
    }
  };
  return std::visit(Dispatch{orch, priority}, goal);
}
}  // namespace

ServiceBroker::ServiceBroker(orch::Orchestrator* orchestrator,
                             geom::SampleGrid default_region,
                             TranslationOptions translation)
    : orchestrator_(orchestrator),
      default_region_(default_region),
      translation_(translation),
      intent_(IntentContext{}) {
  if (orchestrator_ == nullptr) {
    throw std::invalid_argument("ServiceBroker: null orchestrator");
  }
}

void ServiceBroker::add_region(std::string region_id, geom::SampleGrid region) {
  regions_.insert_or_assign(std::move(region_id), region);
}

const geom::SampleGrid& ServiceBroker::region_for(
    const std::string& region_id) const {
  const auto it = regions_.find(region_id);
  return it == regions_.end() ? default_region_ : it->second;
}

Result<telemetry::TraceId> ServiceBroker::start_session(
    std::string app_id, AppDemand demand, telemetry::TraceId trace_id) {
  if (const auto it = sessions_.find(app_id);
      it != sessions_.end() && it->second.running) {
    // Name the colliding tasks: the caller learns exactly which running
    // work holds the id, not just that something does.
    std::string tasks;
    for (const orch::TaskId id : it->second.tasks) {
      if (!tasks.empty()) tasks += ", ";
      tasks += std::to_string(id);
    }
    return make_error(ErrorCode::kAlreadyExists,
                      "ServiceBroker: app already running: " + app_id +
                          " (holds task(s) " +
                          (tasks.empty() ? "none" : tasks) + ")");
  }
  AppSession session;
  session.app_id = app_id;
  session.demand = demand;
  session.running = true;

  // One causal trace per admitted intent: every task this demand fans out
  // into — and later every span those tasks cause down through the
  // optimizer and HAL — carries this deterministic id.
  const telemetry::TraceContext intent_trace{trace_id, 0};
  telemetry::TraceScope trace_scope(intent_trace);
  SURFOS_TRACE_SPAN("broker.translate");

  const auto& budget = orchestrator_->context().budget;
  const auto requests =
      translate(demand, budget, region_for(demand.region_id), translation_);
  for (const auto& request : requests) {
    session.tasks.push_back(
        dispatch(*orchestrator_, request.goal, request.priority));
  }
  session.trace_id = intent_trace.trace_id;
  SURFOS_INFO(kLog) << "app " << app_id << " started with "
                    << session.tasks.size() << " task(s)";
  SURFOS_COUNT("broker.apps.started");
  SURFOS_COUNT_N("broker.demand.translations", requests.size());
  sessions_.insert_or_assign(std::move(app_id), std::move(session));
  return intent_trace.trace_id;
}

Result<telemetry::TraceId> ServiceBroker::start_app(std::string app_id,
                                                    AppDemand demand) {
  return start_session(
      std::move(app_id), std::move(demand),
      telemetry::make_trace_id(telemetry::trace_domain("broker.intent"),
                               ++trace_seq_));
}

Result<telemetry::TraceId> ServiceBroker::restore_session(
    std::string app_id, AppDemand demand, bool running,
    telemetry::TraceId trace_id) {
  if (running) {
    return start_session(std::move(app_id), std::move(demand), trace_id);
  }
  if (const auto it = sessions_.find(app_id);
      it != sessions_.end() && it->second.running) {
    return make_error(ErrorCode::kAlreadyExists,
                      "ServiceBroker: app already running: " + app_id);
  }
  // A stopped session is only its demand and trace id; resume_app
  // translates it.
  AppSession session;
  session.app_id = app_id;
  session.demand = std::move(demand);
  session.trace_id = trace_id;
  sessions_.insert_or_assign(std::move(app_id), std::move(session));
  return trace_id;
}

Result<void> ServiceBroker::submit_demand(
    std::string app_id, AppDemand demand,
    std::optional<orch::Priority> priority) {
  AdmissionRequest request;
  request.priority = priority.value_or(demand_priority(demand));
  request.app_id = std::move(app_id);
  request.demand = std::move(demand);
  const std::string id = request.app_id;
  if (!admission_.submit(std::move(request))) {
    return make_error(ErrorCode::kAdmissionShed,
                      "ServiceBroker: demand shed at admission: " + id);
  }
  return ok_result();
}

std::size_t ServiceBroker::pump_admissions(std::size_t max_admissions) {
  std::size_t started = 0;
  admission_.pump(max_admissions, [&](const AdmissionRequest& request) {
    if (const auto it = sessions_.find(request.app_id);
        it != sessions_.end() && it->second.running) {
      // A duplicate mid-drain is demand that resolved itself while queued;
      // dropping it must not abort the rest of the epoch's admissions.
      SURFOS_COUNT("broker.admission.duplicates");
      SURFOS_WARN(kLog) << "dropping queued demand for already-running app "
                        << request.app_id;
      return;
    }
    if (const auto result = start_app(request.app_id, request.demand);
        !result.ok()) {
      // Admission raced a concurrent start; shedding one queued demand must
      // not abort the rest of the epoch's drain.
      SURFOS_COUNT("broker.admission.start_failures");
      SURFOS_WARN(kLog) << "queued demand for " << request.app_id
                        << " failed to start: " << result.error().message;
      return;
    }
    ++started;
  });
  return started;
}

Result<void> ServiceBroker::stop_app(const std::string& app_id) {
  const auto it = sessions_.find(app_id);
  if (it == sessions_.end()) {
    return make_error(ErrorCode::kNotFound,
                      "ServiceBroker: unknown app: " + app_id);
  }
  for (const orch::TaskId id : it->second.tasks) orchestrator_->cancel_task(id);
  it->second.tasks.clear();
  it->second.running = false;
  SURFOS_COUNT("broker.apps.stopped");
  SURFOS_INFO(kLog) << "app " << app_id << " stopped; tasks cancelled";
  return ok_result();
}

Result<void> ServiceBroker::resume_app(const std::string& app_id) {
  const auto it = sessions_.find(app_id);
  if (it == sessions_.end()) {
    return make_error(ErrorCode::kNotFound,
                      "ServiceBroker: unknown app: " + app_id);
  }
  if (it->second.running) return ok_result();
  // Same path as start, under the intent's original trace id.
  const auto resumed =
      start_session(app_id, it->second.demand, it->second.trace_id);
  if (!resumed.ok()) return resumed.error();
  return ok_result();
}

AppStatus ServiceBroker::status(const std::string& app_id) const {
  AppStatus status;
  const auto it = sessions_.find(app_id);
  if (it == sessions_.end()) return status;
  status.known = true;
  status.running = it->second.running;
  status.tasks_total = it->second.tasks.size();
  for (const orch::TaskId id : it->second.tasks) {
    const auto* task = orchestrator_->find_task(id);
    if (task != nullptr && task->goal_met) ++status.tasks_met;
  }
  status.satisfied =
      status.tasks_total > 0 && status.tasks_met == status.tasks_total;
  return status;
}

std::size_t ServiceBroker::escalate_unsatisfied() {
  std::size_t escalated = 0;
  for (auto& [app_id, session] : sessions_) {
    if (!session.running) continue;
    for (orch::TaskId& id : session.tasks) {
      const auto* task = orchestrator_->find_task(id);
      if (task == nullptr || !task->active() || task->goal_met) continue;
      if (task->priority >= orch::kPriorityCritical) continue;
      // Re-admit at the next priority tier; the old task is cancelled. The
      // replacement keeps the original intent's trace id so the escalation
      // shows up as one causal chain, not a fresh trace. Copy what the
      // replacement needs first: cancel_task erases the task.
      const orch::ServiceGoal goal = task->goal;
      const orch::Priority bumped = task->priority + 10;
      const telemetry::TraceScope trace_scope({task->trace.trace_id, 0});
      SURFOS_TRACE_INSTANT("broker.escalate");
      orchestrator_->cancel_task(id);
      id = dispatch(*orchestrator_, goal, bumped);
      ++escalated;
      SURFOS_COUNT("broker.escalations");
      SURFOS_INFO(kLog) << "escalated a task of app " << app_id
                        << " to priority " << bumped;
    }
  }
  return escalated;
}

std::size_t ServiceBroker::apply_traffic_suggestions(
    const std::vector<DemandSuggestion>& suggestions) {
  std::size_t started = 0;
  // Stop auto-started sessions whose endpoint no longer shows traffic of
  // that class.
  for (auto& [app_id, session] : sessions_) {
    if (!session.running || !util::starts_with(app_id, "auto-")) continue;
    const bool still_suggested = std::any_of(
        suggestions.begin(), suggestions.end(),
        [&](const DemandSuggestion& s) {
          return s.endpoint_id == session.demand.endpoint_id &&
                 s.classification.app_class == session.demand.app_class;
        });
    if (!still_suggested) {
      (void)stop_app(app_id);
      SURFOS_INFO(kLog) << "auto session " << app_id
                        << " stopped: traffic gone";
    }
  }
  // Start sessions for newly observed application traffic.
  for (const DemandSuggestion& suggestion : suggestions) {
    if (suggestion.classification.confidence < 0.5) continue;
    const std::string app_id =
        util::format("auto-%s-%s", suggestion.endpoint_id.c_str(),
                     to_string(suggestion.classification.app_class));
    const auto it = sessions_.find(app_id);
    if (it != sessions_.end()) {
      if (!it->second.running) (void)resume_app(app_id);
      continue;
    }
    AppDemand demand = demand_profile(suggestion.classification.app_class,
                                      suggestion.endpoint_id);
    // Refine the profile with the observed rate (plus headroom) — the
    // monitor knows what the app actually consumes.
    if (demand.throughput_mbps) {
      demand.throughput_mbps =
          std::max(*demand.throughput_mbps,
                   suggestion.features.total_mbps() * 1.2);
    }
    if (!start_app(app_id, std::move(demand)).ok()) continue;
    ++started;
    SURFOS_COUNT("broker.traffic.auto_sessions");
  }
  return started;
}

IntentResult ServiceBroker::handle_utterance(const std::string& text) {
  SURFOS_TRACE_SPAN("broker.utterance");
  const IntentResult result = intent_.interpret(text);
  SURFOS_COUNT("broker.utterances");
  if (!result.understood) return result;
  SURFOS_COUNT("broker.utterances_understood");
  for (const AppClass app_class : result.activities) {
    AppDemand demand = demand_profile(app_class, result.device, result.room);
    const std::string app_id =
        util::format("%s-%zu", to_string(app_class), ++utterance_counter_);
    (void)start_app(app_id, std::move(demand));
  }
  return result;
}

}  // namespace surfos::broker
