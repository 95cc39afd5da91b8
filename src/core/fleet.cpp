#include "core/fleet.hpp"

#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace surfos {

SurfOS& Fleet::add_site(std::string site_id, std::unique_ptr<SurfOS> os) {
  if (!os) throw std::invalid_argument("Fleet: null site");
  if (site_id.empty()) throw std::invalid_argument("Fleet: empty site id");
  const auto [it, inserted] = sites_.emplace(std::move(site_id), std::move(os));
  if (!inserted) {
    throw std::invalid_argument("Fleet: duplicate site id " + it->first);
  }
  return *it->second;
}

SurfOS& Fleet::site(const std::string& site_id) {
  const auto it = sites_.find(site_id);
  if (it == sites_.end()) {
    throw std::invalid_argument("Fleet: unknown site " + site_id);
  }
  return *it->second;
}

SurfOS* Fleet::find_site(const std::string& site_id) noexcept {
  const auto it = sites_.find(site_id);
  return it == sites_.end() ? nullptr : it->second.get();
}

const SurfOS* Fleet::find_site(const std::string& site_id) const noexcept {
  const auto it = sites_.find(site_id);
  return it == sites_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Fleet::site_ids() const {
  std::vector<std::string> out;
  out.reserve(sites_.size());
  for (const auto& [id, os] : sites_) out.push_back(id);
  return out;
}

broker::IntentResult Fleet::handle_utterance(const std::string& site_id,
                                             const std::string& text) {
  return site(site_id).broker().handle_utterance(text);
}

FleetReport Fleet::step_all(const SiteHook& on_site) {
  FleetReport report;
  telemetry::TraceSpan span("core.fleet.step_all", sites_.size());
  SURFOS_COUNT("core.fleet.step_alls");

  // Snapshot the sites in map (site-id) order: index i is site i for every
  // thread count, which the determinism contract below leans on.
  std::vector<std::pair<const std::string*, SurfOS*>> sites;
  sites.reserve(sites_.size());
  for (auto& [id, os] : sites_) sites.emplace_back(&id, os.get());

  // One parallel_for over sites: the pool's dynamic chunk cursor balances
  // uneven site costs. Every site writes into its own pre-sized slot and all
  // aggregation happens *after* the parallel region, serially and in
  // site-index order — so a FleetReport is bit-identical for any
  // SURFOS_THREADS (sites share no mutable state: each SurfOS owns its
  // clock, registry, orchestrator, and broker).
  std::vector<SiteReport> slots(sites.size());
  util::parallel_for(0, sites.size(), [&](std::size_t i) {
    // Per-site deterministic trace context (site-index-derived, never
    // wall-clock) so each site's step spans land in the flight recorder
    // joined to one id; the span arg carries the 1-based site index.
    telemetry::TraceScope scope(telemetry::TraceContext{
        telemetry::make_trace_id(telemetry::trace_domain("core.fleet.site"),
                                 i + 1),
        0});
    {
      telemetry::TraceSpan site_span("core.fleet.site.step", i + 1);
      slots[i].site_id = *sites[i].first;
      slots[i].step = sites[i].second->step();
    }
    if (on_site) on_site(i, slots[i]);
  });

  for (SiteReport& site_report : slots) {
    report.total_assignments += site_report.step.assignment_count;
    report.total_optimizations += site_report.step.optimizations_run;
    report.total_starved += site_report.step.starved.size();
    const orch::StepTrace& trace = site_report.step.trace;
    report.trace.schedule_us += trace.schedule_us;
    report.trace.optimize_us += trace.optimize_us;
    report.trace.actuate_us += trace.actuate_us;
    report.trace.measure_us += trace.measure_us;
    report.trace.total_us += trace.total_us;
    report.trace.plans_fresh += trace.plans_fresh;
    report.trace.plans_reused += trace.plans_reused;
    report.trace.objective_evaluations += trace.objective_evaluations;
    report.trace.config_writes += trace.config_writes;
    report.trace.element_updates += trace.element_updates;
    report.trace.writes_staged += trace.writes_staged;
    report.trace.writes_coalesced += trace.writes_coalesced;
    report.trace.writes_elided += trace.writes_elided;
    report.trace.trace_ids.insert(report.trace.trace_ids.end(),
                                  trace.trace_ids.begin(),
                                  trace.trace_ids.end());
    report.trace.task_trace_ids.insert(report.trace.task_trace_ids.end(),
                                       trace.task_trace_ids.begin(),
                                       trace.task_trace_ids.end());
    report.sites.push_back(std::move(site_report));
  }
  return report;
}

FleetInventory Fleet::inventory() const {
  FleetInventory inventory;
  inventory.sites = sites_.size();
  for (const auto& [id, os] : sites_) {
    inventory.surfaces += os->registry().surface_count();
    inventory.endpoints += os->registry().endpoints().size();
    for (const auto* task : os->orchestrator().tasks()) {
      if (task->active()) {
        ++inventory.active_tasks;
        if (task->goal_met) ++inventory.tasks_meeting_goals;
      }
    }
  }
  return inventory;
}

}  // namespace surfos
