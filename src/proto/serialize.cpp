#include "proto/serialize.hpp"

#include "proto/wire.hpp"

namespace surfos::proto {

namespace {

// Per-struct field tags. Append-only; tag 1 is the version everywhere.
namespace tag {
constexpr std::uint16_t kVersion = 1;

// StepTrace
constexpr std::uint16_t kScheduleUs = 2;
constexpr std::uint16_t kOptimizeUs = 3;
constexpr std::uint16_t kActuateUs = 4;
constexpr std::uint16_t kMeasureUs = 5;
constexpr std::uint16_t kTotalUs = 6;
constexpr std::uint16_t kPlansFresh = 7;
constexpr std::uint16_t kPlansReused = 8;
constexpr std::uint16_t kObjectiveEvals = 9;
constexpr std::uint16_t kConfigWrites = 10;
constexpr std::uint16_t kElementUpdates = 11;
constexpr std::uint16_t kWritesStaged = 12;
constexpr std::uint16_t kWritesCoalesced = 13;
constexpr std::uint16_t kWritesElided = 14;
constexpr std::uint16_t kTraceIds = 15;
constexpr std::uint16_t kTaskTraceIds = 16;

// TaskReport
constexpr std::uint16_t kTaskId = 2;
constexpr std::uint16_t kServiceType = 3;
constexpr std::uint16_t kTaskState = 4;
constexpr std::uint16_t kAchieved = 5;  // absent = nullopt
constexpr std::uint16_t kGoalMet = 6;

// StepReport
constexpr std::uint16_t kAssignments = 2;
constexpr std::uint16_t kOptimizations = 3;
constexpr std::uint16_t kStarved = 4;
constexpr std::uint16_t kTask = 5;  // repeated, nested TaskReport
constexpr std::uint16_t kStepTrace = 6;

// SiteReport (inside FleetReport)
constexpr std::uint16_t kSiteId = 2;
constexpr std::uint16_t kSiteStep = 3;

// FleetReport
constexpr std::uint16_t kSite = 2;  // repeated, nested SiteReport
constexpr std::uint16_t kTotalAssignments = 3;
constexpr std::uint16_t kTotalOptimizations = 4;
constexpr std::uint16_t kTotalStarved = 5;
constexpr std::uint16_t kFleetTrace = 6;

// InstallReport
constexpr std::uint16_t kDeviceId = 2;
constexpr std::uint16_t kWarning = 3;  // repeated

// AppDemand
constexpr std::uint16_t kAppClass = 2;
constexpr std::uint16_t kEndpointId = 3;
constexpr std::uint16_t kRegionId = 4;
constexpr std::uint16_t kThroughputMbps = 5;  // absent = nullopt
constexpr std::uint16_t kMaxLatencyMs = 6;    // absent = nullopt
constexpr std::uint16_t kNeedsSensing = 7;
constexpr std::uint16_t kNeedsSecurity = 8;
constexpr std::uint16_t kNeedsPower = 9;
constexpr std::uint16_t kDurationS = 10;  // absent = nullopt

// AppStatus
constexpr std::uint16_t kKnown = 2;
constexpr std::uint16_t kRunning = 3;
constexpr std::uint16_t kSatisfied = 4;
constexpr std::uint16_t kTasksTotal = 5;
constexpr std::uint16_t kTasksMet = 6;

// FleetInventory
constexpr std::uint16_t kSites = 2;
constexpr std::uint16_t kSurfaces = 3;
constexpr std::uint16_t kEndpoints = 4;
constexpr std::uint16_t kActiveTasks = 5;
constexpr std::uint16_t kTasksMeetingGoals = 6;
}  // namespace tag

Error malformed(const char* what) {
  return make_error(ErrorCode::kMalformedFrame, what);
}

// Exact-width field reads; false maps to kMalformedFrame at the call site.
bool get(const Tlv& tlv, double& out) {
  const auto v = tlv_f64(tlv);
  if (!v) return false;
  out = *v;
  return true;
}

bool get(const Tlv& tlv, std::uint64_t& out) {
  const auto v = tlv_u64(tlv);
  if (!v) return false;
  out = *v;
  return true;
}

/// Shared preamble check: every struct stream must open with a version tag
/// >= 1. Returns the version, or 0 for "malformed".
std::uint16_t take_version(const Tlv& tlv) {
  if (tlv.tag != tag::kVersion) return 0;
  return tlv_u16(tlv).value_or(0);
}

/// TaskState's wire values are pinned and not contiguous (2 is unused).
bool is_task_state(std::uint8_t v) {
  switch (static_cast<orch::TaskState>(v)) {
    case orch::TaskState::kPending:
    case orch::TaskState::kRunning:
    case orch::TaskState::kCompleted:
    case orch::TaskState::kFailed: return true;
  }
  return false;
}

template <typename T>
std::vector<std::uint8_t> wrap(const T& value) {
  std::vector<std::uint8_t> out;
  to_wire(value, out);
  return out;
}

}  // namespace

// --- StepTrace ---------------------------------------------------------------

void to_wire(const orch::StepTrace& trace, std::vector<std::uint8_t>& out) {
  TlvWriter w(out);
  w.put_u16(tag::kVersion, kStructVersion);
  w.put_f64(tag::kScheduleUs, trace.schedule_us);
  w.put_f64(tag::kOptimizeUs, trace.optimize_us);
  w.put_f64(tag::kActuateUs, trace.actuate_us);
  w.put_f64(tag::kMeasureUs, trace.measure_us);
  w.put_f64(tag::kTotalUs, trace.total_us);
  w.put_u64(tag::kPlansFresh, trace.plans_fresh);
  w.put_u64(tag::kPlansReused, trace.plans_reused);
  w.put_u64(tag::kObjectiveEvals, trace.objective_evaluations);
  w.put_u64(tag::kConfigWrites, trace.config_writes);
  w.put_u64(tag::kElementUpdates, trace.element_updates);
  w.put_u64(tag::kWritesStaged, trace.writes_staged);
  w.put_u64(tag::kWritesCoalesced, trace.writes_coalesced);
  w.put_u64(tag::kWritesElided, trace.writes_elided);
  w.put_u64s(tag::kTraceIds, trace.trace_ids);
  w.put_u64s(tag::kTaskTraceIds, trace.task_trace_ids);
}

std::vector<std::uint8_t> to_wire(const orch::StepTrace& trace) {
  return wrap(trace);
}

Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       orch::StepTrace& out) {
  TlvReader r(bytes);
  auto first = r.next();
  if (!first || take_version(*first) == 0) {
    return malformed("StepTrace: missing version");
  }
  out = orch::StepTrace{};
  while (auto tlv = r.next()) {
    bool ok = true;
    switch (tlv->tag) {
      case tag::kScheduleUs: ok = get(*tlv, out.schedule_us); break;
      case tag::kOptimizeUs: ok = get(*tlv, out.optimize_us); break;
      case tag::kActuateUs: ok = get(*tlv, out.actuate_us); break;
      case tag::kMeasureUs: ok = get(*tlv, out.measure_us); break;
      case tag::kTotalUs: ok = get(*tlv, out.total_us); break;
      case tag::kPlansFresh: ok = get(*tlv, out.plans_fresh); break;
      case tag::kPlansReused: ok = get(*tlv, out.plans_reused); break;
      case tag::kObjectiveEvals: ok = get(*tlv, out.objective_evaluations); break;
      case tag::kConfigWrites: ok = get(*tlv, out.config_writes); break;
      case tag::kElementUpdates: ok = get(*tlv, out.element_updates); break;
      case tag::kWritesStaged: ok = get(*tlv, out.writes_staged); break;
      case tag::kWritesCoalesced: ok = get(*tlv, out.writes_coalesced); break;
      case tag::kWritesElided: ok = get(*tlv, out.writes_elided); break;
      case tag::kTraceIds: {
        auto ids = tlv_u64s(*tlv);
        if ((ok = ids.has_value())) out.trace_ids = std::move(*ids);
        break;
      }
      case tag::kTaskTraceIds: {
        auto ids = tlv_u64s(*tlv);
        if ((ok = ids.has_value())) out.task_trace_ids = std::move(*ids);
        break;
      }
      default: break;  // unknown tag: a newer peer's field — skip
    }
    if (!ok) return malformed("StepTrace: bad field width");
  }
  if (r.truncated()) return malformed("StepTrace: truncated record");
  return {};
}

// --- TaskReport --------------------------------------------------------------

void to_wire(const orch::TaskReport& report, std::vector<std::uint8_t>& out) {
  TlvWriter w(out);
  w.put_u16(tag::kVersion, kStructVersion);
  w.put_u64(tag::kTaskId, report.id);
  w.put_u8(tag::kServiceType, static_cast<std::uint8_t>(report.type));
  w.put_u8(tag::kTaskState, static_cast<std::uint8_t>(report.state));
  if (report.achieved) w.put_f64(tag::kAchieved, *report.achieved);
  w.put_u8(tag::kGoalMet, report.goal_met ? 1 : 0);
}

Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       orch::TaskReport& out) {
  TlvReader r(bytes);
  auto first = r.next();
  if (!first || take_version(*first) == 0) {
    return malformed("TaskReport: missing version");
  }
  out = orch::TaskReport{};
  while (auto tlv = r.next()) {
    bool ok = true;
    switch (tlv->tag) {
      case tag::kTaskId: ok = get(*tlv, out.id); break;
      case tag::kServiceType: {
        const auto v = tlv_u8(*tlv);
        ok = v.has_value() && *v <= static_cast<std::uint8_t>(
                                        orch::ServiceType::kSecurity);
        if (ok) out.type = static_cast<orch::ServiceType>(*v);
        break;
      }
      case tag::kTaskState: {
        const auto v = tlv_u8(*tlv);
        ok = v.has_value() && is_task_state(*v);
        if (ok) out.state = static_cast<orch::TaskState>(*v);
        break;
      }
      case tag::kAchieved: {
        const auto v = tlv_f64(*tlv);
        if ((ok = v.has_value())) out.achieved = *v;
        break;
      }
      case tag::kGoalMet: {
        const auto v = tlv_u8(*tlv);
        if ((ok = v.has_value())) out.goal_met = *v != 0;
        break;
      }
      default: break;
    }
    if (!ok) return malformed("TaskReport: bad field");
  }
  if (r.truncated()) return malformed("TaskReport: truncated record");
  return {};
}

// --- StepReport --------------------------------------------------------------

void to_wire(const orch::StepReport& report, std::vector<std::uint8_t>& out) {
  TlvWriter w(out);
  w.put_u16(tag::kVersion, kStructVersion);
  w.put_u64(tag::kAssignments, report.assignment_count);
  w.put_u64(tag::kOptimizations, report.optimizations_run);
  w.put_u64s(tag::kStarved,
             std::span<const std::uint64_t>(report.starved.data(),
                                            report.starved.size()));
  for (const orch::TaskReport& task : report.tasks) {
    w.put_bytes(tag::kTask, wrap(task));
  }
  w.put_bytes(tag::kStepTrace, wrap(report.trace));
}

std::vector<std::uint8_t> to_wire(const orch::StepReport& report) {
  return wrap(report);
}

Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       orch::StepReport& out) {
  TlvReader r(bytes);
  auto first = r.next();
  if (!first || take_version(*first) == 0) {
    return malformed("StepReport: missing version");
  }
  out = orch::StepReport{};
  while (auto tlv = r.next()) {
    switch (tlv->tag) {
      case tag::kAssignments: {
        const auto v = tlv_u64(*tlv);
        if (!v) return malformed("StepReport: bad assignment count");
        out.assignment_count = *v;
        break;
      }
      case tag::kOptimizations: {
        const auto v = tlv_u64(*tlv);
        if (!v) return malformed("StepReport: bad optimization count");
        out.optimizations_run = *v;
        break;
      }
      case tag::kStarved: {
        auto ids = tlv_u64s(*tlv);
        if (!ids) return malformed("StepReport: bad starved list");
        out.starved.assign(ids->begin(), ids->end());
        break;
      }
      case tag::kTask: {
        orch::TaskReport task;
        if (Result<void> parsed = from_wire(tlv->value, task); !parsed.ok()) {
          return parsed;
        }
        out.tasks.push_back(std::move(task));
        break;
      }
      case tag::kStepTrace: {
        if (Result<void> parsed = from_wire(tlv->value, out.trace);
            !parsed.ok()) {
          return parsed;
        }
        break;
      }
      default: break;
    }
  }
  if (r.truncated()) return malformed("StepReport: truncated record");
  return {};
}

// --- FleetReport -------------------------------------------------------------

void to_wire(const FleetReport& report, std::vector<std::uint8_t>& out) {
  TlvWriter w(out);
  w.put_u16(tag::kVersion, kStructVersion);
  for (const SiteReport& site : report.sites) {
    std::vector<std::uint8_t> nested;
    TlvWriter sw(nested);
    sw.put_u16(tag::kVersion, kStructVersion);
    sw.put_string(tag::kSiteId, site.site_id);
    sw.put_bytes(tag::kSiteStep, wrap(site.step));
    w.put_bytes(tag::kSite, nested);
  }
  w.put_u64(tag::kTotalAssignments, report.total_assignments);
  w.put_u64(tag::kTotalOptimizations, report.total_optimizations);
  w.put_u64(tag::kTotalStarved, report.total_starved);
  w.put_bytes(tag::kFleetTrace, wrap(report.trace));
}

std::vector<std::uint8_t> to_wire(const FleetReport& report) {
  return wrap(report);
}

Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       FleetReport& out) {
  TlvReader r(bytes);
  auto first = r.next();
  if (!first || take_version(*first) == 0) {
    return malformed("FleetReport: missing version");
  }
  out = FleetReport{};
  while (auto tlv = r.next()) {
    switch (tlv->tag) {
      case tag::kSite: {
        SiteReport site;
        TlvReader sr(tlv->value);
        auto site_first = sr.next();
        if (!site_first || take_version(*site_first) == 0) {
          return malformed("SiteReport: missing version");
        }
        while (auto field = sr.next()) {
          switch (field->tag) {
            case tag::kSiteId: site.site_id = tlv_string(*field); break;
            case tag::kSiteStep: {
              if (Result<void> parsed = from_wire(field->value, site.step);
                  !parsed.ok()) {
                return parsed;
              }
              break;
            }
            default: break;
          }
        }
        if (sr.truncated()) return malformed("SiteReport: truncated record");
        out.sites.push_back(std::move(site));
        break;
      }
      case tag::kTotalAssignments: {
        const auto v = tlv_u64(*tlv);
        if (!v) return malformed("FleetReport: bad total assignments");
        out.total_assignments = *v;
        break;
      }
      case tag::kTotalOptimizations: {
        const auto v = tlv_u64(*tlv);
        if (!v) return malformed("FleetReport: bad total optimizations");
        out.total_optimizations = *v;
        break;
      }
      case tag::kTotalStarved: {
        const auto v = tlv_u64(*tlv);
        if (!v) return malformed("FleetReport: bad total starved");
        out.total_starved = *v;
        break;
      }
      case tag::kFleetTrace: {
        if (Result<void> parsed = from_wire(tlv->value, out.trace);
            !parsed.ok()) {
          return parsed;
        }
        break;
      }
      default: break;
    }
  }
  if (r.truncated()) return malformed("FleetReport: truncated record");
  return {};
}

// --- InstallReport -----------------------------------------------------------

void to_wire(const InstallReport& report, std::vector<std::uint8_t>& out) {
  TlvWriter w(out);
  w.put_u16(tag::kVersion, kStructVersion);
  w.put_string(tag::kDeviceId, report.device_id);
  for (const std::string& warning : report.warnings) {
    w.put_string(tag::kWarning, warning);
  }
}

std::vector<std::uint8_t> to_wire(const InstallReport& report) {
  return wrap(report);
}

Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       InstallReport& out) {
  TlvReader r(bytes);
  auto first = r.next();
  if (!first || take_version(*first) == 0) {
    return malformed("InstallReport: missing version");
  }
  out = InstallReport{};
  while (auto tlv = r.next()) {
    switch (tlv->tag) {
      case tag::kDeviceId: out.device_id = tlv_string(*tlv); break;
      case tag::kWarning: out.warnings.push_back(tlv_string(*tlv)); break;
      default: break;
    }
  }
  if (r.truncated()) return malformed("InstallReport: truncated record");
  return {};
}

// --- AppDemand ---------------------------------------------------------------

void to_wire(const broker::AppDemand& demand, std::vector<std::uint8_t>& out) {
  TlvWriter w(out);
  w.put_u16(tag::kVersion, kStructVersion);
  w.put_u8(tag::kAppClass, static_cast<std::uint8_t>(demand.app_class));
  w.put_string(tag::kEndpointId, demand.endpoint_id);
  w.put_string(tag::kRegionId, demand.region_id);
  if (demand.throughput_mbps) {
    w.put_f64(tag::kThroughputMbps, *demand.throughput_mbps);
  }
  if (demand.max_latency_ms) {
    w.put_f64(tag::kMaxLatencyMs, *demand.max_latency_ms);
  }
  w.put_u8(tag::kNeedsSensing, demand.needs_sensing ? 1 : 0);
  w.put_u8(tag::kNeedsSecurity, demand.needs_security ? 1 : 0);
  w.put_u8(tag::kNeedsPower, demand.needs_power ? 1 : 0);
  if (demand.duration_s) w.put_f64(tag::kDurationS, *demand.duration_s);
}

std::vector<std::uint8_t> to_wire(const broker::AppDemand& demand) {
  return wrap(demand);
}

Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       broker::AppDemand& out) {
  TlvReader r(bytes);
  auto first = r.next();
  if (!first || take_version(*first) == 0) {
    return malformed("AppDemand: missing version");
  }
  out = broker::AppDemand{};
  while (auto tlv = r.next()) {
    bool ok = true;
    switch (tlv->tag) {
      case tag::kAppClass: {
        const auto v = tlv_u8(*tlv);
        ok = v.has_value() && *v <= static_cast<std::uint8_t>(
                                        broker::AppClass::kWirelessCharging);
        if (ok) out.app_class = static_cast<broker::AppClass>(*v);
        break;
      }
      case tag::kEndpointId: out.endpoint_id = tlv_string(*tlv); break;
      case tag::kRegionId: out.region_id = tlv_string(*tlv); break;
      case tag::kThroughputMbps: {
        const auto v = tlv_f64(*tlv);
        if ((ok = v.has_value())) out.throughput_mbps = *v;
        break;
      }
      case tag::kMaxLatencyMs: {
        const auto v = tlv_f64(*tlv);
        if ((ok = v.has_value())) out.max_latency_ms = *v;
        break;
      }
      case tag::kNeedsSensing: {
        const auto v = tlv_u8(*tlv);
        if ((ok = v.has_value())) out.needs_sensing = *v != 0;
        break;
      }
      case tag::kNeedsSecurity: {
        const auto v = tlv_u8(*tlv);
        if ((ok = v.has_value())) out.needs_security = *v != 0;
        break;
      }
      case tag::kNeedsPower: {
        const auto v = tlv_u8(*tlv);
        if ((ok = v.has_value())) out.needs_power = *v != 0;
        break;
      }
      case tag::kDurationS: {
        const auto v = tlv_f64(*tlv);
        if ((ok = v.has_value())) out.duration_s = *v;
        break;
      }
      default: break;
    }
    if (!ok) return malformed("AppDemand: bad field");
  }
  if (r.truncated()) return malformed("AppDemand: truncated record");
  return {};
}

// --- AppStatus ---------------------------------------------------------------

void to_wire(const broker::AppStatus& status, std::vector<std::uint8_t>& out) {
  TlvWriter w(out);
  w.put_u16(tag::kVersion, kStructVersion);
  w.put_u8(tag::kKnown, status.known ? 1 : 0);
  w.put_u8(tag::kRunning, status.running ? 1 : 0);
  w.put_u8(tag::kSatisfied, status.satisfied ? 1 : 0);
  w.put_u64(tag::kTasksTotal, status.tasks_total);
  w.put_u64(tag::kTasksMet, status.tasks_met);
}

std::vector<std::uint8_t> to_wire(const broker::AppStatus& status) {
  return wrap(status);
}

Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       broker::AppStatus& out) {
  TlvReader r(bytes);
  auto first = r.next();
  if (!first || take_version(*first) == 0) {
    return malformed("AppStatus: missing version");
  }
  out = broker::AppStatus{};
  while (auto tlv = r.next()) {
    bool ok = true;
    switch (tlv->tag) {
      case tag::kKnown: {
        const auto v = tlv_u8(*tlv);
        if ((ok = v.has_value())) out.known = *v != 0;
        break;
      }
      case tag::kRunning: {
        const auto v = tlv_u8(*tlv);
        if ((ok = v.has_value())) out.running = *v != 0;
        break;
      }
      case tag::kSatisfied: {
        const auto v = tlv_u8(*tlv);
        if ((ok = v.has_value())) out.satisfied = *v != 0;
        break;
      }
      case tag::kTasksTotal: ok = get(*tlv, out.tasks_total); break;
      case tag::kTasksMet: ok = get(*tlv, out.tasks_met); break;
      default: break;
    }
    if (!ok) return malformed("AppStatus: bad field");
  }
  if (r.truncated()) return malformed("AppStatus: truncated record");
  return {};
}

// --- FleetInventory ----------------------------------------------------------

void to_wire(const FleetInventory& inventory, std::vector<std::uint8_t>& out) {
  TlvWriter w(out);
  w.put_u16(tag::kVersion, kStructVersion);
  w.put_u64(tag::kSites, inventory.sites);
  w.put_u64(tag::kSurfaces, inventory.surfaces);
  w.put_u64(tag::kEndpoints, inventory.endpoints);
  w.put_u64(tag::kActiveTasks, inventory.active_tasks);
  w.put_u64(tag::kTasksMeetingGoals, inventory.tasks_meeting_goals);
}

std::vector<std::uint8_t> to_wire(const FleetInventory& inventory) {
  return wrap(inventory);
}

Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       FleetInventory& out) {
  TlvReader r(bytes);
  auto first = r.next();
  if (!first || take_version(*first) == 0) {
    return malformed("FleetInventory: missing version");
  }
  out = FleetInventory{};
  while (auto tlv = r.next()) {
    bool ok = true;
    switch (tlv->tag) {
      case tag::kSites: ok = get(*tlv, out.sites); break;
      case tag::kSurfaces: ok = get(*tlv, out.surfaces); break;
      case tag::kEndpoints: ok = get(*tlv, out.endpoints); break;
      case tag::kActiveTasks: ok = get(*tlv, out.active_tasks); break;
      case tag::kTasksMeetingGoals: ok = get(*tlv, out.tasks_meeting_goals); break;
      default: break;
    }
    if (!ok) return malformed("FleetInventory: bad field");
  }
  if (r.truncated()) return malformed("FleetInventory: truncated record");
  return {};
}

}  // namespace surfos::proto
