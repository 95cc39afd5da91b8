// Integration tests through the SurfOS facade: full-stack scenarios that
// mirror the paper's exploratory studies at test scale — hybrid
// passive+programmable relaying (Fig 4), joint multitasking vs single-task
// optimization (Figs 2/5), datasheet-driven installation (Section 3.4), and
// resilience to control-link failures.
#include <gtest/gtest.h>

#include "core/fleet.hpp"
#include "core/surfos.hpp"
#include "core/version.hpp"
#include "orch/perf.hpp"
#include "sim/floorplan.hpp"

namespace surfos {
namespace {

TEST(Facade, VersionIsExposed) {
  EXPECT_STREQ(kVersionString, "0.1.0");
  EXPECT_EQ(kVersionMajor, 0);
}

TEST(Facade, InstallAndServeEndToEnd) {
  sim::CoverageRoomScenario scene = sim::make_coverage_room(4);
  SurfOS os(scene.environment.get(), scene.ap(), scene.band, scene.budget);
  const surface::Catalog catalog = surface::Catalog::standard();
  os.install_programmable(*catalog.find("NR-Surface"), scene.surface_pose, 16,
                          16, "s0");
  os.register_endpoint("laptop", hal::EndpointKind::kClient, {1.2, 2.4, 1.0});
  const orch::TaskId task = os.orchestrator().enhance_link({"laptop", 8.0, 50.0});
  os.step();
  const orch::Task* t = os.orchestrator().find_task(task);
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->goal_met);
  EXPECT_EQ(os.panel_of("s0").cols(), 16u);
  EXPECT_THROW(os.panel_of("ghost"), std::invalid_argument);
}

TEST(Facade, InstallRejectsWrongHardwareClass) {
  sim::CoverageRoomScenario scene = sim::make_coverage_room(4);
  SurfOS os(scene.environment.get(), scene.ap(), scene.band, scene.budget);
  const surface::Catalog catalog = surface::Catalog::standard();
  EXPECT_THROW(os.install_programmable(*catalog.find("AutoMS"),
                                       scene.surface_pose, 8, 8, "x"),
               std::invalid_argument);
}

TEST(Facade, DatasheetInstallWorkflow) {
  sim::CoverageRoomScenario scene = sim::make_coverage_room(4);
  SurfOS os(scene.environment.get(), scene.ap(), scene.band, scene.budget);
  const auto install_result = os.install_from_datasheet(
      "model: Acme\nfrequency: 28 GHz\nmode: reflective\n"
      "reconfigurable: yes\nelements: 12x12\nmystery: value\n",
      scene.surface_pose, "acme0");
  ASSERT_TRUE(install_result.ok());
  const InstallReport& install = install_result.value();
  EXPECT_EQ(install.device_id, "acme0");
  EXPECT_EQ(install.warnings.size(), 1u);  // the mystery key
  os.register_endpoint("laptop", hal::EndpointKind::kClient, {1.2, 2.4, 1.0});
  const orch::TaskId task =
      os.orchestrator().enhance_link({"laptop", 10.0, 50.0});
  os.step();
  EXPECT_TRUE(os.orchestrator().find_task(task)->goal_met);
  const auto bad = os.install_from_datasheet("nonsense", scene.surface_pose,
                                             "x");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kParseError);
}

TEST(Integration, HybridRelayDeliversBedroomCoverage) {
  // The Fig-4 structure at test scale: passive backhaul in the living room,
  // programmable steering surface in the bedroom.
  sim::ApartmentScenario scene = sim::make_apartment(4);
  SurfOS os(scene.environment.get(), scene.ap(), scene.band, scene.budget);
  const surface::Catalog catalog = surface::Catalog::standard();

  // Passive transmissive surface in the wall window (PMSat is a transmissive
  // design), installed blank: the orchestrator's first optimization cycle
  // performs the one-time fabrication write.
  const surface::CatalogEntry* passive_design = catalog.find("PMSat");
  ASSERT_NE(passive_design, nullptr);
  os.install_passive(*passive_design, scene.window_mount, 32, 32, "backhaul");
  os.install_programmable(*catalog.find("NR-Surface"), scene.bedroom_mount, 14,
                          14, "steer");

  // Baseline: without surfaces the bedroom is dead (concrete wall).
  double baseline_median;
  {
    const sim::SceneChannel direct(scene.environment.get(),
                                   em::band_center(scene.band), scene.ap(), {},
                                   scene.bedroom_grid.points());
    std::vector<double> snr;
    for (std::size_t j = 0; j < direct.rx_count(); ++j) {
      snr.push_back(scene.budget.snr_db(std::norm(direct.direct(j))));
    }
    std::sort(snr.begin(), snr.end());
    baseline_median = snr[snr.size() / 2];
  }

  orch::CoverageGoal goal;
  goal.region_id = "bedroom";
  goal.region = scene.bedroom_grid;
  goal.target_median_snr_db = baseline_median + 6.0;
  const orch::TaskId task = os.orchestrator().optimize_coverage(goal);
  os.step();
  const orch::Task* t = os.orchestrator().find_task(task);
  ASSERT_TRUE(t->achieved.has_value());
  // The surfaces lift the room well above its no-coverage baseline, and the
  // passive window got fabricated exactly once in the process.
  EXPECT_GT(*t->achieved, baseline_median + 6.0);
  const auto* backhaul = dynamic_cast<const hal::PassiveSurfaceDriver*>(
      os.registry().find_surface("backhaul"));
  ASSERT_NE(backhaul, nullptr);
  EXPECT_TRUE(backhaul->fabricated());
}

TEST(Integration, JointMultitaskingPreservesBothServices) {
  // Fig 2 / Fig 5 at test scale: coverage-only optimization degrades
  // localization; joint optimization keeps both usable.
  sim::CoverageRoomScenario scene = sim::make_coverage_room(4);
  const double freq = em::band_center(scene.band);
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(freq) / 2.0;
  const surface::SurfacePanel panel(
      "wall", scene.surface_pose, 12, 12, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);

  sim::SceneChannel channel(scene.environment.get(), freq, scene.ap(),
                            {&panel}, scene.room_grid.points());
  orch::PanelVariables vars({&panel});
  std::vector<std::size_t> all_rx(channel.rx_count());
  for (std::size_t i = 0; i < all_rx.size(); ++i) all_rx[i] = i;
  const double rho = scene.budget.snr(1.0);

  const orch::CapacityObjective coverage(&channel, &vars, all_rx, rho);
  const orch::LocalizationObjective localization(&channel, &vars, 0, all_rx,
                                                 61);
  opt::WeightedSumObjective joint;
  joint.add_term(&coverage, 1.0);
  joint.add_term(&localization, 1.0);

  const opt::GradientDescent optimizer;
  const auto x0 = vars.from_configs(std::vector<surface::SurfaceConfig>{
      panel.focus_config(scene.ap_position,
                         scene.room_grid.point(scene.room_grid.size() / 2),
                         freq)});
  const auto cov_only = optimizer.minimize(coverage, x0);
  const auto joint_result = optimizer.minimize(joint, x0);

  const auto metrics_of = [&](const std::vector<double>& x) {
    const auto coefficients = channel.coefficients_for(vars.realize(x));
    return std::make_pair(
        orch::coverage_metrics(channel, scene.budget, coefficients, all_rx),
        orch::sensing_metrics(channel, coefficients, 0, all_rx, 61));
  };
  const auto [cov_snr, cov_sense] = metrics_of(cov_only.x);
  const auto [joint_snr, joint_sense] = metrics_of(joint_result.x);

  // Joint optimization trades a little SNR for much better localization.
  EXPECT_LT(joint_sense.median_error_m, cov_sense.median_error_m);
  EXPECT_GT(joint_snr.median_snr_db, cov_snr.median_snr_db - 6.0);
}

TEST(Integration, LossyControlLinkDegradesGracefully) {
  // Failure injection: a driver behind a 100%-corrupting link never applies
  // configs, but the orchestrator still completes its loop and reports
  // unmet goals instead of crashing.
  sim::CoverageRoomScenario scene = sim::make_coverage_room(4);
  hal::SimClock clock;
  hal::DeviceRegistry registry;
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(em::band_center(scene.band)) / 2.0;
  const surface::SurfacePanel panel(
      "wall", scene.surface_pose, 10, 10, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
  hal::ReliableOptions broken;
  broken.forward.corrupt_probability = 1.0;
  registry.add_surface(std::make_unique<hal::ProgrammableSurfaceDriver>(
      "wall", &panel, hal::spec_for_panel(panel, scene.band), &clock, broken));
  registry.add_endpoint({"laptop", hal::EndpointKind::kClient,
                         {1.2, 2.4, 1.0}, scene.band, std::nullopt});
  orch::OrchestratorContext context;
  context.environment = scene.environment.get();
  context.ap = scene.ap();
  context.default_band = scene.band;
  context.budget = scene.budget;
  orch::Orchestrator orchestrator(&registry, &clock, context);
  const orch::TaskId id = orchestrator.enhance_link({"laptop", 20.0, 50.0});
  const auto report = orchestrator.step();
  EXPECT_EQ(report.assignment_count, 1u);
  const orch::Task* task = orchestrator.find_task(id);
  ASSERT_TRUE(task->achieved.has_value());
  // Hardware never left the uniform config, so the target is not met.
  EXPECT_FALSE(task->goal_met);
  const auto* driver = dynamic_cast<const hal::ProgrammableSurfaceDriver*>(
      registry.find_surface("wall"));
  EXPECT_EQ(driver->frames_applied(), 0u);
  EXPECT_GT(driver->frames_rejected(), 0u);
}

TEST(Integration, FleetManagesMultipleSites) {
  // Two independent environments under one fleet: requests route to the
  // right site, steps aggregate, inventory spans both.
  sim::CoverageRoomScenario home = sim::make_coverage_room(4);
  sim::ApartmentScenario office = sim::make_apartment(4);
  const surface::Catalog catalog = surface::Catalog::standard();

  Fleet fleet;
  {
    auto os = std::make_unique<SurfOS>(home.environment.get(), home.ap(),
                                       home.band, home.budget);
    os->install_programmable(*catalog.find("NR-Surface"), home.surface_pose,
                             12, 12, "home-wall");
    os->register_endpoint("laptop", hal::EndpointKind::kClient,
                          {1.2, 2.4, 1.0});
    os->broker().add_region("this_room",
                            geom::SampleGrid(0.8, 2.8, 0.5, 2.5, 1.0, 3, 3));
    fleet.add_site("home", std::move(os));
  }
  {
    auto os = std::make_unique<SurfOS>(office.environment.get(), office.ap(),
                                       office.band, office.budget);
    os->install_programmable(*catalog.find("mmWall"), office.window_mount, 12,
                             12, "office-window");
    os->register_endpoint("phone", hal::EndpointKind::kClient,
                          {2.0, 5.0, 1.0});
    fleet.add_site("office", std::move(os));
  }
  EXPECT_EQ(fleet.size(), 2u);
  EXPECT_THROW(fleet.add_site("home", nullptr), std::invalid_argument);
  EXPECT_THROW(fleet.site("warehouse"), std::invalid_argument);

  // Route requests to each site.
  const auto home_result =
      fleet.handle_utterance("home", "stream a movie on my laptop");
  EXPECT_TRUE(home_result.understood);
  fleet.site("office").orchestrator().init_powering({"phone", 3600.0, -80.0});

  const FleetReport report = fleet.step_all();
  EXPECT_EQ(report.sites.size(), 2u);
  EXPECT_GE(report.total_assignments, 2u);

  const FleetInventory inventory = fleet.inventory();
  EXPECT_EQ(inventory.sites, 2u);
  EXPECT_EQ(inventory.surfaces, 2u);
  EXPECT_EQ(inventory.endpoints, 2u);
  EXPECT_GE(inventory.active_tasks, 2u);
}

TEST(Integration, MultiServiceDayInTheLife) {
  // Broker-driven: three apps arrive, run, and stop; the system stays
  // consistent throughout.
  sim::CoverageRoomScenario scene = sim::make_coverage_room(4);
  SurfOS os(scene.environment.get(), scene.ap(), scene.band, scene.budget);
  const surface::Catalog catalog = surface::Catalog::standard();
  os.install_programmable(*catalog.find("NR-Surface"), scene.surface_pose, 16,
                          16, "s0");
  os.register_endpoint("laptop", hal::EndpointKind::kClient, {1.2, 2.4, 1.0});
  os.register_endpoint("phone", hal::EndpointKind::kClient, {2.2, 1.2, 1.0});
  os.broker().add_region("this_room",
                         geom::SampleGrid(0.8, 2.8, 0.5, 2.5, 1.0, 3, 3));

  ASSERT_TRUE(os.broker()
                  .start_app("meet", broker::demand_profile(
                                         broker::AppClass::kVideoConference,
                                         "laptop"))
                  .ok());
  ASSERT_TRUE(os.broker()
                  .start_app("charge", broker::demand_profile(
                                           broker::AppClass::kWirelessCharging,
                                           "phone"))
                  .ok());
  ASSERT_TRUE(os.broker()
                  .start_app("home",
                             broker::demand_profile(broker::AppClass::kSmartHome,
                                                    "", "this_room"))
                  .ok());
  os.step();
  EXPECT_TRUE(os.broker().status("meet").satisfied);
  EXPECT_EQ(os.broker().sessions().size(), 3u);

  EXPECT_TRUE(os.broker().stop_app("meet").ok());
  EXPECT_TRUE(os.broker().stop_app("charge").ok());
  EXPECT_TRUE(os.broker().stop_app("home").ok());
  const auto report = os.step();
  EXPECT_EQ(report.assignment_count, 0u);
}

}  // namespace
}  // namespace surfos
