// Fleet service API: site lookup (const and mutable), the unknown-site
// error contract, step_all()'s control-cycle trace aggregation, byte-level
// determinism of FleetReports across thread/shard counts, and the batched
// vs per-element HAL write paths.
#include <gtest/gtest.h>

#include <ios>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "core/surfos.hpp"
#include "hal/batch.hpp"
#include "sim/floorplan.hpp"
#include "surface/catalog.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace surfos {
namespace {

/// Two small sites under one fleet; scenarios must outlive the SurfOS
/// instances, so the fixture owns them.
class FleetTest : public ::testing::Test {
 protected:
  FleetTest()
      : home_(sim::make_coverage_room(/*grid_n=*/4)),
        office_(sim::make_coverage_room(/*grid_n=*/4)) {
    const surface::Catalog catalog = surface::Catalog::standard();
    {
      auto os = std::make_unique<SurfOS>(home_.environment.get(), home_.ap(),
                                         home_.band, home_.budget);
      os->install_programmable(*catalog.find("NR-Surface"),
                               home_.surface_pose, 10, 10, "home-wall");
      os->register_endpoint("laptop", hal::EndpointKind::kClient,
                            {1.2, 2.4, 1.0});
      fleet_.add_site("home", std::move(os));
    }
    {
      auto os = std::make_unique<SurfOS>(office_.environment.get(),
                                         office_.ap(), office_.band,
                                         office_.budget);
      os->install_programmable(*catalog.find("NR-Surface"),
                               office_.surface_pose, 10, 10, "office-wall");
      os->register_endpoint("phone", hal::EndpointKind::kClient,
                            {1.0, 2.0, 1.0});
      fleet_.add_site("office", std::move(os));
    }
  }

  sim::CoverageRoomScenario home_;
  sim::CoverageRoomScenario office_;
  Fleet fleet_;
};

TEST_F(FleetTest, FindSiteConstAndMutableOverloads) {
  SurfOS* site = fleet_.find_site("home");
  ASSERT_NE(site, nullptr);
  // The non-const overload supports mutation through the pointer.
  site->register_endpoint("tablet", hal::EndpointKind::kClient,
                          {2.0, 1.0, 1.0});
  EXPECT_NE(site->registry().find_endpoint("tablet"), nullptr);

  const Fleet& const_fleet = fleet_;
  const SurfOS* const_site = const_fleet.find_site("home");
  EXPECT_EQ(const_site, site);

  EXPECT_EQ(fleet_.find_site("warehouse"), nullptr);
  EXPECT_EQ(const_fleet.find_site("warehouse"), nullptr);
}

TEST_F(FleetTest, UnknownSiteThrowsConsistentlyWithSiteIdInMessage) {
  const auto expect_names_site = [](const auto& call) {
    try {
      call();
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("warehouse"),
                std::string::npos)
          << error.what();
    }
  };
  expect_names_site([&] { fleet_.site("warehouse"); });
  expect_names_site(
      [&] { fleet_.handle_utterance("warehouse", "stream a movie"); });
}

TEST_F(FleetTest, StepAllAggregatesStepTraces) {
  fleet_.site("home").orchestrator().enhance_link({"laptop", 10.0, 50.0});
  fleet_.site("office").orchestrator().enhance_link({"phone", 10.0, 50.0});

  const FleetReport first = fleet_.step_all();
  ASSERT_EQ(first.sites.size(), 2u);
  EXPECT_EQ(first.trace.plans_fresh, 2u);  // one fresh plan per site
  EXPECT_EQ(first.trace.plans_reused, 0u);
  EXPECT_GT(first.trace.objective_evaluations, 0u);
  EXPECT_EQ(first.trace.config_writes, 2u);  // one surface written per site

  // Aggregation is exactly the per-site sum.
  std::size_t evals = 0;
  for (const auto& site : first.sites) {
    evals += site.step.trace.objective_evaluations;
  }
  EXPECT_EQ(first.trace.objective_evaluations, evals);

  const FleetReport second = fleet_.step_all();
  EXPECT_EQ(second.trace.plans_fresh, 0u);
  EXPECT_EQ(second.trace.plans_reused, 2u);  // cache hit on both sites
  EXPECT_EQ(second.trace.config_writes, 0u);
}

TEST_F(FleetTest, StepTraceRecordsEpochBatchingAndTaskTraceIds) {
  fleet_.site("home").orchestrator().enhance_link({"laptop", 10.0, 50.0});
  fleet_.site("office").orchestrator().enhance_link({"phone", 10.0, 50.0});

  const FleetReport first = fleet_.step_all();
  // One staged write per site's surface; nothing to coalesce or elide on the
  // first epoch, and each staged write became exactly one transaction.
  EXPECT_EQ(first.trace.writes_staged, 2u);
  EXPECT_EQ(first.trace.writes_coalesced, 0u);
  EXPECT_EQ(first.trace.writes_elided, 0u);
  EXPECT_EQ(first.trace.config_writes, 2u);
  // Every scheduled task's trace id is recorded (admit-to-applied join key)
  // and it is a superset of the per-assignment primary ids.
  ASSERT_EQ(first.trace.task_trace_ids.size(), 2u);
  EXPECT_EQ(first.trace.trace_ids, first.trace.task_trace_ids);
  for (const telemetry::TraceId id : first.trace.task_trace_ids) {
    EXPECT_NE(id, 0u);
  }

  // Reused plans stage nothing: the epoch flush is a no-op.
  const FleetReport second = fleet_.step_all();
  EXPECT_EQ(second.trace.writes_staged, 0u);
  EXPECT_EQ(second.trace.config_writes, 0u);
  // Scheduled tasks still report their ids even on reuse steps.
  EXPECT_EQ(second.trace.task_trace_ids.size(), 2u);
}

/// Serializes every deterministic field of a FleetReport (hexfloat for
/// metrics; the wall-clock *_us timings are intentionally excluded — they
/// are the only run-to-run-varying state).
std::string fingerprint(const FleetReport& report) {
  std::ostringstream oss;
  oss << std::hexfloat;
  oss << "assign=" << report.total_assignments
      << " opt=" << report.total_optimizations
      << " starved=" << report.total_starved << "\n";
  const auto trace = [&](const orch::StepTrace& t) {
    oss << "fresh=" << t.plans_fresh << " reused=" << t.plans_reused
        << " evals=" << t.objective_evaluations << " writes=" << t.config_writes
        << " elems=" << t.element_updates << " staged=" << t.writes_staged
        << " coalesced=" << t.writes_coalesced << " elided=" << t.writes_elided
        << " ids=[";
    for (const telemetry::TraceId id : t.trace_ids) oss << id << ",";
    oss << "] task_ids=[";
    for (const telemetry::TraceId id : t.task_trace_ids) oss << id << ",";
    oss << "]\n";
  };
  trace(report.trace);
  for (const auto& site : report.sites) {
    oss << "site " << site.site_id << ": assign="
        << site.step.assignment_count << " opt=" << site.step.optimizations_run
        << " starved=[";
    for (const orch::TaskId id : site.step.starved) oss << id << ",";
    oss << "] tasks=[";
    for (const auto& task : site.step.tasks) {
      oss << task.id << ":" << static_cast<int>(task.type) << ":"
          << static_cast<int>(task.state) << ":"
          << (task.achieved ? *task.achieved : -1.0) << ":" << task.goal_met
          << ",";
    }
    oss << "]\n";
    trace(site.step.trace);
  }
  return oss.str();
}

/// A fresh `site_count`-site fleet with one connectivity task per site,
/// stepped twice; returns the concatenated report fingerprints. Built from
/// scratch per call so runs under different pool sizes share no state.
std::string run_mini_fleet(int site_count) {
  const surface::Catalog catalog = surface::Catalog::standard();
  std::vector<sim::CoverageRoomScenario> scenarios;
  scenarios.reserve(static_cast<std::size_t>(site_count));
  Fleet fleet;
  for (int i = 0; i < site_count; ++i) {
    scenarios.push_back(sim::make_coverage_room(/*grid_n=*/4));
    auto& scenario = scenarios.back();
    auto os = std::make_unique<SurfOS>(scenario.environment.get(),
                                       scenario.ap(), scenario.band,
                                       scenario.budget);
    os->install_programmable(*catalog.find("NR-Surface"),
                             scenario.surface_pose, 8, 8, "wall");
    os->register_endpoint("phone", hal::EndpointKind::kClient,
                          {1.0 + 0.3 * i, 2.0, 1.0});
    os->orchestrator().enhance_link({"phone", 10.0, 50.0});
    fleet.add_site("site" + std::to_string(i), std::move(os));
  }
  std::string out;
  for (int step = 0; step < 2; ++step) {
    out += fingerprint(fleet.step_all());
    out += "--\n";
  }
  return out;
}

TEST(FleetDeterminism, ReportsByteIdenticalAcrossThreadCounts) {
  // Resizing the pool exercises serial stepping against concurrent stepping
  // whose dynamic chunks split 5 sites unevenly over 3 or 4 threads. The
  // reports — achieved metrics included, compared as hexfloat — must match
  // byte for byte (serial index-order reduction, per-site RNG streams).
  constexpr int kSites = 5;
  util::reset_global_pool(1);
  const std::string serial = run_mini_fleet(kSites);
  util::reset_global_pool(3);
  const std::string three = run_mini_fleet(kSites);
  util::reset_global_pool(4);
  const std::string four = run_mini_fleet(kSites);
  util::reset_global_pool(0);
  EXPECT_EQ(serial, three);
  EXPECT_EQ(serial, four);
}

TEST(FleetHalModes, BatchedRewritePaysAtLeastFourTimesFewerTransactions) {
  // One site with one link task; the first step lands the initial config,
  // then the endpoint moves and plans are invalidated so the second step
  // re-optimizes and rewrites the (now differing) slot.
  const surface::Catalog catalog = surface::Catalog::standard();
  sim::CoverageRoomScenario scenario = sim::make_coverage_room(/*grid_n=*/4);
  SurfOS os(scenario.environment.get(), scenario.ap(), scenario.band,
            scenario.budget);
  os.install_programmable(*catalog.find("NR-Surface"), scenario.surface_pose,
                          10, 10, "wall");
  os.register_endpoint("phone", hal::EndpointKind::kClient, {1.0, 2.0, 1.0});
  os.orchestrator().enhance_link({"phone", 10.0, 50.0});
  os.step();

  os.registry().find_endpoint("phone")->position = {3.2, 1.2, 1.1};
  os.orchestrator().notify_environment_changed();
  const orch::StepReport report = os.step();
  // Batched: one transaction per dirty (device, slot) per epoch. A naive
  // writer pays one per changed element — a 10x10 panel whose optimum moved
  // re-codes far more than four elements.
  EXPECT_EQ(report.trace.config_writes, 1u);
  EXPECT_GE(report.trace.element_updates, 4 * report.trace.config_writes);
}

}  // namespace
}  // namespace surfos
