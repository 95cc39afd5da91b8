// Multi-site fleet management (paper Section 1: SurfOS "should effortlessly
// scale to multiple services atop one or multiple nearby surfaces, or even
// across sites. SurfOS can be a service from ISPs, a module of Cloud RAN, or
// a standalone system from a new service provider").
//
// A Fleet owns one SurfOS instance per site (apartment, office floor,
// venue), routes application requests to the right site, steps every site's
// control plane, and aggregates inventory/health for the operator's view.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/surfos.hpp"

namespace surfos {

struct SiteReport {
  std::string site_id;
  orch::StepReport step;
};

struct FleetReport {
  std::vector<SiteReport> sites;
  std::size_t total_assignments = 0;
  std::size_t total_optimizations = 0;
  std::size_t total_starved = 0;
  /// Fleet-wide control-cycle trace: per-site StepTraces summed (timings
  /// accumulate; counts are exact and deterministic).
  orch::StepTrace trace;
};

struct FleetInventory {
  std::size_t sites = 0;
  std::size_t surfaces = 0;
  std::size_t endpoints = 0;
  std::size_t active_tasks = 0;
  std::size_t tasks_meeting_goals = 0;
};

class Fleet {
 public:
  /// Registers a site. The environment behind the SurfOS instance must
  /// outlive the fleet. Throws on duplicate ids.
  SurfOS& add_site(std::string site_id, std::unique_ptr<SurfOS> os);

  /// Throws std::invalid_argument naming the site id when unknown.
  SurfOS& site(const std::string& site_id);
  SurfOS* find_site(const std::string& site_id) noexcept;
  const SurfOS* find_site(const std::string& site_id) const noexcept;
  std::vector<std::string> site_ids() const;
  std::size_t size() const noexcept { return sites_.size(); }

  /// Routes a user utterance to one site's broker.
  broker::IntentResult handle_utterance(const std::string& site_id,
                                        const std::string& text);

  /// Runs one control-plane cycle on every site. Sites step concurrently as
  /// one parallel_for over the process-wide thread pool, whose dynamic
  /// chunks balance uneven site costs; it is the outermost loop, so the
  /// parallel helpers inside each site's step run inline. The report is
  /// assembled by a serial site-index-order reduction, so it is
  /// bit-identical for any SURFOS_THREADS.
  FleetReport step_all();

  /// Cross-site inventory for the operator's dashboard.
  FleetInventory inventory() const;

 private:
  std::map<std::string, std::unique_ptr<SurfOS>> sites_;
};

}  // namespace surfos
