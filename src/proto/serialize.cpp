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

}  // namespace tag

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

Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       orch::StepTrace& out) {
  return read_record(bytes, out, "StepTrace", true, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kScheduleUs: return read_field(tlv, out.schedule_us);
      case tag::kOptimizeUs: return read_field(tlv, out.optimize_us);
      case tag::kActuateUs: return read_field(tlv, out.actuate_us);
      case tag::kMeasureUs: return read_field(tlv, out.measure_us);
      case tag::kTotalUs: return read_field(tlv, out.total_us);
      case tag::kPlansFresh: return read_field(tlv, out.plans_fresh);
      case tag::kPlansReused: return read_field(tlv, out.plans_reused);
      case tag::kObjectiveEvals:
        return read_field(tlv, out.objective_evaluations);
      case tag::kConfigWrites: return read_field(tlv, out.config_writes);
      case tag::kElementUpdates: return read_field(tlv, out.element_updates);
      case tag::kWritesStaged: return read_field(tlv, out.writes_staged);
      case tag::kWritesCoalesced:
        return read_field(tlv, out.writes_coalesced);
      case tag::kWritesElided: return read_field(tlv, out.writes_elided);
      case tag::kTraceIds: return read_field(tlv, out.trace_ids);
      case tag::kTaskTraceIds: return read_field(tlv, out.task_trace_ids);
      default: return true;  // unknown tag: a newer peer's field — skip
    }
  });
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
  return read_record(bytes, out, "TaskReport", true, [&](const Tlv& tlv) {
    std::uint8_t v = 0;
    switch (tlv.tag) {
      case tag::kTaskId: return read_field(tlv, out.id);
      case tag::kServiceType:
        if (!read_field(tlv, v) ||
            v > static_cast<std::uint8_t>(orch::ServiceType::kSecurity)) {
          return false;
        }
        out.type = static_cast<orch::ServiceType>(v);
        return true;
      case tag::kTaskState:
        if (!read_field(tlv, v) || !is_task_state(v)) return false;
        out.state = static_cast<orch::TaskState>(v);
        return true;
      case tag::kAchieved: return read_field(tlv, out.achieved);
      case tag::kGoalMet: return read_field(tlv, out.goal_met);
      default: return true;
    }
  });
}

// --- StepReport --------------------------------------------------------------

void to_wire(const orch::StepReport& report, std::vector<std::uint8_t>& out) {
  TlvWriter w(out);
  w.put_u16(tag::kVersion, kStructVersion);
  w.put_u64(tag::kAssignments, report.assignment_count);
  w.put_u64(tag::kOptimizations, report.optimizations_run);
  w.put_u64s(tag::kStarved, report.starved);
  w.nest_each(tag::kTask, report.tasks,
              [](const auto& task, auto& body) { to_wire(task, body); });
  w.nest(tag::kStepTrace, [&](auto& body) { to_wire(report.trace, body); });
}

Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       orch::StepReport& out) {
  return read_record(bytes, out, "StepReport", true, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kAssignments: return read_field(tlv, out.assignment_count);
      case tag::kOptimizations: return read_field(tlv, out.optimizations_run);
      case tag::kStarved: return read_field(tlv, out.starved);
      case tag::kTask:
        return from_wire(tlv.value, out.tasks.emplace_back()).ok();
      case tag::kStepTrace: return from_wire(tlv.value, out.trace).ok();
      default: return true;
    }
  });
}

// --- FleetReport -------------------------------------------------------------

void append_site_record(const SiteReport& site,
                        std::vector<std::uint8_t>& out) {
  TlvWriter(out).nest(tag::kSite, [&](auto& body) {
    TlvWriter w(body);
    w.put_u16(tag::kVersion, kStructVersion);
    w.put_string(tag::kSiteId, site.site_id);
    w.nest(tag::kSiteStep, [&](auto& step) { to_wire(site.step, step); });
  });
}

void assemble_fleet_report(
    const FleetReport& report,
    std::span<const std::vector<std::uint8_t>> site_records,
    std::vector<std::uint8_t>& out) {
  TlvWriter w(out);
  w.put_u16(tag::kVersion, kStructVersion);
  for (const std::vector<std::uint8_t>& chunk : site_records) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  w.put_u64(tag::kTotalAssignments, report.total_assignments);
  w.put_u64(tag::kTotalOptimizations, report.total_optimizations);
  w.put_u64(tag::kTotalStarved, report.total_starved);
  w.nest(tag::kFleetTrace, [&](auto& body) { to_wire(report.trace, body); });
}

void to_wire(const FleetReport& report, std::vector<std::uint8_t>& out) {
  std::vector<std::uint8_t> records;
  for (const SiteReport& site : report.sites) append_site_record(site, records);
  assemble_fleet_report(report, {&records, 1}, out);
}

namespace {

Result<void> site_from_wire(std::span<const std::uint8_t> bytes,
                            SiteReport& out) {
  return read_record(bytes, out, "SiteReport", true, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kSiteId: return read_field(tlv, out.site_id);
      case tag::kSiteStep: return from_wire(tlv.value, out.step).ok();
      default: return true;
    }
  });
}

}  // namespace

Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       FleetReport& out) {
  return read_record(bytes, out, "FleetReport", true, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kSite:
        return site_from_wire(tlv.value, out.sites.emplace_back()).ok();
      case tag::kTotalAssignments:
        return read_field(tlv, out.total_assignments);
      case tag::kTotalOptimizations:
        return read_field(tlv, out.total_optimizations);
      case tag::kTotalStarved: return read_field(tlv, out.total_starved);
      case tag::kFleetTrace: return from_wire(tlv.value, out.trace).ok();
      default: return true;
    }
  });
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

Result<void> from_wire(std::span<const std::uint8_t> bytes,
                       broker::AppDemand& out) {
  return read_record(bytes, out, "AppDemand", true, [&](const Tlv& tlv) {
    std::uint8_t v = 0;
    switch (tlv.tag) {
      case tag::kAppClass:
        if (!read_field(tlv, v) ||
            v > static_cast<std::uint8_t>(
                    broker::AppClass::kWirelessCharging)) {
          return false;
        }
        out.app_class = static_cast<broker::AppClass>(v);
        return true;
      case tag::kEndpointId: return read_field(tlv, out.endpoint_id);
      case tag::kRegionId: return read_field(tlv, out.region_id);
      case tag::kThroughputMbps: return read_field(tlv, out.throughput_mbps);
      case tag::kMaxLatencyMs: return read_field(tlv, out.max_latency_ms);
      case tag::kNeedsSensing: return read_field(tlv, out.needs_sensing);
      case tag::kNeedsSecurity: return read_field(tlv, out.needs_security);
      case tag::kNeedsPower: return read_field(tlv, out.needs_power);
      case tag::kDurationS: return read_field(tlv, out.duration_s);
      default: return true;
    }
  });
}

}  // namespace surfos::proto
