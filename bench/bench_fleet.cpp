// Fleet-scale sustained-load harness: 100+ sites under one Fleet, driven by
// an open-loop Poisson arrival stream followed by a bursty trace replay —
// 10,000+ application requests across connectivity / powering / sensing /
// security mixes, routed through each site's ServiceBroker admission queue
// (SURFOS_ADMIT_QUEUE bounds it; overload sheds lowest-priority demands).
//
// Every control epoch: deliver due arrivals (submit_demand), drain each
// site's queue under the weighted-fair discipline (pump_admissions), then
// one Fleet::step_all(). Admit-to-config-applied latency is joined per
// request via trace ids: the session's intent trace id first appears in a
// site's StepTrace.task_trace_ids on the step whose epoch flush applied the
// task's configurations.
//
// A second section runs a rewrite epoch and reports its batched config
// transactions against what a naive writer would pay: one transaction per
// changed element, which is the epoch's StepTrace::element_updates.
//
// All wall-clock numbers come from one host stepping every site serially or
// as one per-site loop on the process-wide pool — they measure control-plane
// software cost, not radio hardware.
//
// Emits BENCH_fleet.json:  ./bench_fleet [output.json]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_meta.hpp"
#include "broker/admission.hpp"
#include "broker/broker.hpp"
#include "core/fleet.hpp"
#include "core/surfos.hpp"
#include "hal/batch.hpp"
#include "sim/floorplan.hpp"
#include "sim/precompute_store.hpp"
#include "surface/catalog.hpp"
#include "util/rng.hpp"

using namespace surfos;

namespace {

constexpr std::size_t kSites = 100;
constexpr std::size_t kPoissonRequests = 5000;
constexpr std::size_t kTraceRequests = 5200;
constexpr std::size_t kArrivalEpochs = 40;   // per phase
constexpr std::size_t kDrainEpochs = 60;     // after the last arrival
constexpr std::size_t kPumpPerEpoch = 1;     // admissions per site per epoch
constexpr std::size_t kQueueCapacity = 32;   // via SURFOS_ADMIT_QUEUE

/// The four demand mixes the harness interleaves (class, weight out of 10).
constexpr struct {
  broker::AppClass app_class;
  int weight;
} kMix[] = {
    {broker::AppClass::kVideoStreaming, 4},   // connectivity
    {broker::AppClass::kWirelessCharging, 2},  // powering
    {broker::AppClass::kSmartHome, 2},         // sensing
    {broker::AppClass::kSensitiveData, 2},     // security
};

struct Arrival {
  double epoch = 0.0;  ///< Fractional control epoch of arrival.
  std::size_t site = 0;
  broker::AppClass app_class = broker::AppClass::kVideoStreaming;
};

broker::AppClass pick_class(util::Rng& rng) {
  int total = 0;
  for (const auto& m : kMix) total += m.weight;
  auto draw = static_cast<int>(rng.below(static_cast<std::uint64_t>(total)));
  for (const auto& m : kMix) {
    draw -= m.weight;
    if (draw < 0) return m.app_class;
  }
  return kMix[0].app_class;
}

/// Open-loop Poisson process: exponential interarrivals at a fixed rate,
/// independent of service completions (arrivals keep coming under overload).
std::vector<Arrival> poisson_arrivals(std::size_t count, double epochs,
                                      util::Rng& rng) {
  std::vector<Arrival> arrivals;
  arrivals.reserve(count);
  const double rate = static_cast<double>(count) / epochs;  // per epoch
  double t = 0.0;
  while (arrivals.size() < count) {
    double u = rng.uniform();
    while (u <= 0.0) u = rng.uniform();
    t += -std::log(u) / rate;  // wraps past `epochs` under unlucky draws
    arrivals.push_back({t, rng.below(kSites), pick_class(rng)});
  }
  return arrivals;
}

/// Trace-driven replay: a synthetic diurnal burst trace (piecewise arrival
/// rates, deterministic timestamps within each segment) — the bursts push
/// sites past the pump rate so the admission queue's shedding engages.
std::vector<Arrival> trace_arrivals(std::size_t count, double epochs,
                                    util::Rng& rng) {
  // Relative load per trace segment: quiet, ramp, burst, lull, spike, tail.
  constexpr double kSegments[] = {0.4, 0.8, 2.2, 0.5, 3.0, 0.6};
  constexpr std::size_t kSegmentCount = sizeof(kSegments) / sizeof(double);
  double total_weight = 0.0;
  for (const double w : kSegments) total_weight += w;

  std::vector<Arrival> arrivals;
  arrivals.reserve(count);
  const double segment_epochs = epochs / kSegmentCount;
  for (std::size_t s = 0; s < kSegmentCount; ++s) {
    const auto n = static_cast<std::size_t>(
        std::round(static_cast<double>(count) * kSegments[s] / total_weight));
    for (std::size_t i = 0; i < n && arrivals.size() < count; ++i) {
      const double t = segment_epochs *
                       (static_cast<double>(s) +
                        static_cast<double>(i) / std::max<std::size_t>(n, 1));
      arrivals.push_back({t, rng.below(kSites), pick_class(rng)});
    }
  }
  // Rounding may leave a short tail; replay it at the trace's end.
  while (arrivals.size() < count) {
    arrivals.push_back({epochs, rng.below(kSites), pick_class(rng)});
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.epoch < b.epoch; });
  return arrivals;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) / 100.0 + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Builds a fleet of `sites` coverage-room sites, one client endpoint each.
/// The scenario vector must outlive the fleet.
std::unique_ptr<Fleet> build_fleet(
    std::size_t sites, std::vector<sim::CoverageRoomScenario>& scenarios,
    std::size_t panel_n) {
  const surface::Catalog catalog = surface::Catalog::standard();
  auto fleet = std::make_unique<Fleet>();
  scenarios.clear();
  scenarios.reserve(sites);
  // Cheap sensing apertures: the default 121-bin scan dominates runtime at
  // fleet scale without changing the control-plane story this bench tells.
  orch::OrchestratorOptions options;
  options.sensing_bins = 21;
  for (std::size_t i = 0; i < sites; ++i) {
    scenarios.push_back(sim::make_coverage_room(/*grid_n=*/3));
    auto& scenario = scenarios.back();
    auto os = std::make_unique<SurfOS>(scenario.environment.get(),
                                       scenario.ap(), scenario.band,
                                       scenario.budget, options);
    os->install_programmable(*catalog.find("NR-Surface"),
                             scenario.surface_pose, panel_n, panel_n, "wall");
    os->register_endpoint("phone", hal::EndpointKind::kClient,
                          {1.0 + 0.01 * static_cast<double>(i % 50), 2.0, 1.0});
    fleet->add_site("site" + std::to_string(i), std::move(os));
  }
  return fleet;
}

struct LoadResult {
  std::size_t submitted = 0;
  std::size_t admitted = 0;      ///< Sessions actually started.
  std::size_t applied = 0;       ///< Sessions whose configs were written.
  std::size_t epochs = 0;
  std::size_t config_transactions = 0;
  double wall_s = 0.0;
  std::vector<double> latency_ms;  ///< admit-to-config-applied, per request
  std::map<orch::Priority, std::size_t> admitted_by_class;
  std::map<orch::Priority, std::size_t> shed_by_class;
};

LoadResult run_sustained_load(Fleet& fleet,
                              const std::vector<Arrival>& arrivals) {
  LoadResult result;
  std::vector<std::string> site_ids = fleet.site_ids();

  // Per site: app ids submitted but not yet seen running (queued), and the
  // trace-id join map for sessions awaiting their config-applied step.
  std::vector<std::vector<std::string>> queued(site_ids.size());
  std::vector<std::unordered_map<telemetry::TraceId, std::size_t>> awaiting(
      site_ids.size());
  std::unordered_map<std::size_t, std::chrono::steady_clock::time_point>
      submit_time;

  const auto start = std::chrono::steady_clock::now();
  std::size_t next_arrival = 0;
  const std::size_t max_epochs =
      static_cast<std::size_t>(arrivals.back().epoch) + kDrainEpochs + 2;

  for (std::size_t epoch = 0; epoch < max_epochs; ++epoch) {
    // 1. Deliver every arrival due this epoch to its site's broker.
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].epoch < static_cast<double>(epoch + 1)) {
      const Arrival& arrival = arrivals[next_arrival];
      const std::string app_id = "req-" + std::to_string(next_arrival);
      SurfOS& site = fleet.site(site_ids[arrival.site]);
      ++result.submitted;
      submit_time[next_arrival] = std::chrono::steady_clock::now();
      if (site.broker()
              .submit_demand(app_id,
                             broker::demand_profile(arrival.app_class, "phone"))
              .ok()) {
        queued[arrival.site].push_back(app_id);
      }
      ++next_arrival;
    }

    // 2. Weighted-fair admission drain, bounded per epoch (the control
    // plane's admission budget); then map fresh sessions to trace ids.
    for (std::size_t s = 0; s < site_ids.size(); ++s) {
      SurfOS& site = fleet.site(site_ids[s]);
      result.admitted += site.broker().pump_admissions(kPumpPerEpoch);
      auto& pending = queued[s];
      for (auto it = pending.begin(); it != pending.end();) {
        const auto session = site.broker().sessions().find(*it);
        if (session != site.broker().sessions().end() &&
            session->second.trace_id != 0) {
          const std::size_t req =
              static_cast<std::size_t>(std::stoul(it->substr(4)));
          awaiting[s].emplace(session->second.trace_id, req);
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
    }

    // 3. One fleet control epoch; join config-applied sessions by the first
    // appearance of their trace id in the site's task_trace_ids.
    const FleetReport report = fleet.step_all();
    ++result.epochs;
    result.config_transactions += report.trace.config_writes;
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < report.sites.size(); ++s) {
      if (awaiting[s].empty()) continue;
      SurfOS& site = fleet.site(report.sites[s].site_id);
      for (const telemetry::TraceId id :
           report.sites[s].step.trace.task_trace_ids) {
        const auto it = awaiting[s].find(id);
        if (it == awaiting[s].end()) continue;
        result.latency_ms.push_back(std::chrono::duration<double, std::milli>(
                                        now - submit_time[it->second])
                                        .count());
        ++result.applied;
        // Served: stop the app (cancelling its tasks) so fleet-scale work stays
        // bounded by the admission rate, not the request count.
        (void)site.broker().stop_app("req-" + std::to_string(it->second));
        awaiting[s].erase(it);
      }
    }

    // Stop early once everything delivered and every admitted session has
    // seen its configs applied.
    if (next_arrival == arrivals.size()) {
      bool drained = true;
      for (std::size_t s = 0; s < site_ids.size() && drained; ++s) {
        drained = awaiting[s].empty() &&
                  fleet.site(site_ids[s]).broker().admission().empty();
      }
      if (drained) break;
    }
  }
  result.wall_s = ms_since(start) / 1000.0;

  for (const std::string& id : site_ids) {
    const auto& stats = fleet.site(id).broker().admission().stats();
    for (const auto& [priority, n] : stats.admitted_by_class) {
      result.admitted_by_class[priority] += n;
    }
    for (const auto& [priority, n] : stats.shed_by_class) {
      result.shed_by_class[priority] += n;
    }
  }
  return result;
}

/// Rewrite workload: one link task per site lands its config, then every
/// endpoint moves and the environment is invalidated, so the second epoch
/// rewrites every slot. Returns that epoch's trace.
orch::StepTrace run_rewrite_epoch() {
  constexpr std::size_t kRewriteSites = 20;
  std::vector<sim::CoverageRoomScenario> scenarios;
  auto fleet = build_fleet(kRewriteSites, scenarios, /*panel_n=*/10);
  for (const std::string& id : fleet->site_ids()) {
    fleet->site(id).orchestrator().enhance_link({"phone", 10.0, 50.0});
  }
  fleet->step_all();
  for (const std::string& id : fleet->site_ids()) {
    SurfOS& site = fleet->site(id);
    site.registry().find_endpoint("phone")->position = {3.2, 1.2, 1.1};
    site.orchestrator().notify_environment_changed();
  }
  return fleet->step_all().trace;
}

const char* class_name(orch::Priority priority) {
  if (priority >= orch::kPriorityCritical) return "critical";
  if (priority >= orch::kPriorityInteractive) return "interactive";
  if (priority >= orch::kPriorityNormal) return "normal";
  return "background";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_fleet.json";

  std::printf("=== Fleet sustained-load harness: %zu sites ===\n", kSites);
  setenv("SURFOS_ADMIT_QUEUE", std::to_string(kQueueCapacity).c_str(), 1);

  // Arrivals: an open-loop Poisson phase, then a bursty trace replay phase
  // offset to start after it. One deterministic stream feeds both.
  util::Rng rng(20260808);
  std::vector<Arrival> arrivals =
      poisson_arrivals(kPoissonRequests, kArrivalEpochs, rng);
  std::vector<Arrival> trace =
      trace_arrivals(kTraceRequests, kArrivalEpochs, rng);
  const double trace_offset =
      std::ceil(arrivals.back().epoch) + 1.0;  // phase 2 starts after phase 1
  for (Arrival& a : trace) a.epoch += trace_offset;
  arrivals.insert(arrivals.end(), trace.begin(), trace.end());
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.epoch < b.epoch; });

  std::vector<sim::CoverageRoomScenario> scenarios;
  auto fleet = build_fleet(kSites, scenarios, /*panel_n=*/6);
  LoadResult load = run_sustained_load(*fleet, arrivals);
  const sim::PrecomputeStore::Stats pre = Fleet::precompute_stats();

  std::sort(load.latency_ms.begin(), load.latency_ms.end());
  const double p50 = percentile(load.latency_ms, 50.0);
  const double p99 = percentile(load.latency_ms, 99.0);
  const double admitted_per_s =
      load.wall_s > 0.0 ? static_cast<double>(load.admitted) / load.wall_s : 0.0;
  const double applied_per_s =
      load.wall_s > 0.0 ? static_cast<double>(load.applied) / load.wall_s : 0.0;

  std::printf("requests submitted:   %zu (poisson %zu + trace %zu)\n",
              load.submitted, kPoissonRequests, kTraceRequests);
  std::printf("admitted / applied:   %zu / %zu over %zu epochs, %.1f s wall\n",
              load.admitted, load.applied, load.epochs, load.wall_s);
  std::printf("sustained rate:       %.1f admitted/s, %.1f applied/s\n",
              admitted_per_s, applied_per_s);
  std::printf("admit->applied:       p50 %.1f ms, p99 %.1f ms (%zu samples)\n",
              p50, p99, load.latency_ms.size());
  for (const auto& [priority, n] : load.admitted_by_class) {
    std::printf("  class %-11s admitted %6zu  shed %6zu\n",
                class_name(priority), n,
                load.shed_by_class.count(priority)
                    ? load.shed_by_class.at(priority)
                    : 0);
  }

  std::printf("precompute store:     %llu hits, %llu misses, %llu evictions, "
              "%.1f MiB resident\n",
              static_cast<unsigned long long>(pre.hits),
              static_cast<unsigned long long>(pre.misses),
              static_cast<unsigned long long>(pre.evictions),
              static_cast<double>(pre.bytes) / (1024.0 * 1024.0));

  // Batched HAL writes against a naive writer's one transaction per changed
  // element, on one rewrite epoch.
  const orch::StepTrace rewrite = run_rewrite_epoch();
  const std::size_t batched_tx = rewrite.config_writes;
  const std::size_t naive_tx = rewrite.element_updates;
  const double tx_ratio = batched_tx > 0
                              ? static_cast<double>(naive_tx) /
                                    static_cast<double>(batched_tx)
                              : 0.0;
  std::printf("rewrite epoch transactions: batched %zu vs per-element %zu "
              "(%.1fx reduction)\n",
              batched_tx, naive_tx, tx_ratio);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"fleet\",\n";
  bench::write_meta(out);
  out << "  \"note\": \"control-plane software cost on one core (sites step "
         "serially or concurrently on the process pool); simulated radio, "
         "wall-clock latencies\",\n";
  out << "  \"sites\": " << kSites << ",\n";
  out << "  \"requests\": {\"total\": " << load.submitted
      << ", \"poisson\": " << kPoissonRequests
      << ", \"trace\": " << kTraceRequests << "},\n";
  out << "  \"admit_queue_capacity\": " << kQueueCapacity
      << ",\n  \"pump_per_epoch\": " << kPumpPerEpoch << ",\n";
  out << "  \"epochs\": " << load.epochs << ",\n";
  out << "  \"wall_seconds\": " << load.wall_s << ",\n";
  out << "  \"sustained\": {\"admitted_per_s\": " << admitted_per_s
      << ", \"applied_per_s\": " << applied_per_s << "},\n";
  out << "  \"admit_to_applied_ms\": {\"p50\": " << p50 << ", \"p99\": " << p99
      << ", \"samples\": " << load.latency_ms.size() << "},\n";
  out << "  \"classes\": {\n";
  {
    // Emit every class present in either map, highest priority first.
    std::map<orch::Priority, bool, std::greater<orch::Priority>> present;
    for (const auto& [priority, n] : load.admitted_by_class) {
      (void)n;
      present[priority] = true;
    }
    for (const auto& [priority, n] : load.shed_by_class) {
      (void)n;
      present[priority] = true;
    }
    std::size_t i = 0;
    for (const auto& [priority, unused] : present) {
      (void)unused;
      const auto admitted = load.admitted_by_class.count(priority)
                                ? load.admitted_by_class.at(priority)
                                : 0;
      const auto shed = load.shed_by_class.count(priority)
                            ? load.shed_by_class.at(priority)
                            : 0;
      out << "    \"" << class_name(priority) << "\": {\"admitted\": "
          << admitted << ", \"shed\": " << shed << "}"
          << (++i < present.size() ? "," : "") << "\n";
    }
  }
  out << "  },\n";
  out << "  \"precompute\": {\"hits\": " << pre.hits
      << ", \"misses\": " << pre.misses << ", \"evictions\": " << pre.evictions
      << ", \"resident_bytes\": " << pre.bytes << "},\n";
  out << "  \"config_transactions\": " << load.config_transactions << ",\n";
  out << "  \"rewrite_epoch\": {\"batched_transactions\": " << batched_tx
      << ", \"per_element_transactions\": " << naive_tx
      << ", \"reduction\": " << tx_ratio << "}\n";
  out << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
