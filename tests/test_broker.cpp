// Service broker tests: demand profiles, the non-linear demand translation
// (inverse Shannon), the intent engine against the paper's Fig 6 utterances,
// datasheet parsing / driver synthesis, and the broker daemon lifecycle.
#include <gtest/gtest.h>

#include <cmath>

#include "broker/broker.hpp"
#include "broker/demand.hpp"
#include "broker/intent.hpp"
#include "broker/specgen.hpp"
#include "broker/translate.hpp"
#include "sim/floorplan.hpp"
#include "util/units.hpp"

namespace surfos::broker {
namespace {

// --- demand profiles -------------------------------------------------------------

TEST(Demand, ProfilesMatchPaperArchetypes) {
  const AppDemand vr = demand_profile(AppClass::kVrGaming, "VR_headset");
  EXPECT_GT(vr.throughput_mbps.value(), 100.0);
  EXPECT_LE(vr.max_latency_ms.value(), 20.0);
  const AppDemand home = demand_profile(AppClass::kSmartHome, "", "room");
  EXPECT_TRUE(home.needs_sensing);
  EXPECT_FALSE(home.throughput_mbps.has_value());
  const AppDemand secure = demand_profile(AppClass::kSensitiveData, "laptop");
  EXPECT_TRUE(secure.needs_security);
  const AppDemand charge =
      demand_profile(AppClass::kWirelessCharging, "phone");
  EXPECT_TRUE(charge.needs_power);
}

// --- translation -----------------------------------------------------------------

TEST(Translate, SnrIsMonotoneInThroughput) {
  const em::LinkBudget budget{10.0, 400e6, 7.0};
  const double snr_small = required_snr_db(10.0, budget);
  const double snr_large = required_snr_db(400.0, budget);
  EXPECT_GT(snr_large, snr_small);
}

TEST(Translate, InverseShannonWithMarginsIsExact) {
  const em::LinkBudget budget{10.0, 100e6, 7.0};
  TranslationOptions options;
  options.mac_efficiency = 1.0;
  options.shannon_gap_db = 0.0;
  options.snr_margin_db = 0.0;
  options.assumed_time_share = 1.0;
  // 100 Mbps over 100 MHz needs 1 bit/s/Hz: snr = 2^1 - 1 = 1 -> 0 dB.
  EXPECT_NEAR(required_snr_db(100.0, budget, options), 0.0, 1e-9);
  // 300 Mbps -> 2^3 - 1 = 7 -> 8.45 dB.
  EXPECT_NEAR(required_snr_db(300.0, budget, options), util::to_db(7.0), 1e-9);
}

TEST(Translate, MacEfficiencyAndTimeShareRaiseRequirement) {
  const em::LinkBudget budget{10.0, 100e6, 7.0};
  TranslationOptions ideal;
  ideal.mac_efficiency = 1.0;
  ideal.shannon_gap_db = 0.0;
  ideal.snr_margin_db = 0.0;
  ideal.assumed_time_share = 1.0;
  TranslationOptions real = ideal;
  real.mac_efficiency = 0.5;
  TranslationOptions shared = ideal;
  shared.assumed_time_share = 0.5;
  const double base = required_snr_db(100.0, budget, ideal);
  EXPECT_GT(required_snr_db(100.0, budget, real), base);
  EXPECT_GT(required_snr_db(100.0, budget, shared), base);
}

TEST(Translate, LatencyMapsToPriorityTiers) {
  EXPECT_EQ(priority_for_latency(10.0), orch::kPriorityCritical);
  EXPECT_EQ(priority_for_latency(50.0), orch::kPriorityInteractive);
  EXPECT_EQ(priority_for_latency(300.0), orch::kPriorityNormal);
  EXPECT_EQ(priority_for_latency(5000.0), orch::kPriorityBackground);
}

TEST(Translate, ExpandsEveryDemandDimension) {
  const em::LinkBudget budget{10.0, 400e6, 7.0};
  const geom::SampleGrid region(0, 1, 0, 1, 1, 2, 2);
  AppDemand demand = demand_profile(AppClass::kVrGaming, "VR_headset", "room");
  demand.needs_sensing = true;
  demand.needs_security = true;
  demand.needs_power = true;
  const auto requests = translate(demand, budget, region);
  ASSERT_EQ(requests.size(), 4u);
  EXPECT_TRUE(std::holds_alternative<orch::LinkGoal>(requests[0].goal));
  EXPECT_TRUE(std::holds_alternative<orch::SensingGoal>(requests[1].goal));
  EXPECT_TRUE(std::holds_alternative<orch::SecurityGoal>(requests[2].goal));
  EXPECT_TRUE(std::holds_alternative<orch::PowerGoal>(requests[3].goal));
  // VR latency -> critical priority on the link.
  EXPECT_EQ(requests[0].priority, orch::kPriorityCritical);
}

TEST(Translate, SensingOnlyDemandCreatesNoLink) {
  const em::LinkBudget budget;
  const geom::SampleGrid region(0, 1, 0, 1, 1, 2, 2);
  const auto requests =
      translate(demand_profile(AppClass::kSmartHome, "", "room"), budget,
                region);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<orch::SensingGoal>(requests[0].goal));
}

// --- intent engine -----------------------------------------------------------------

TEST(Intent, VrGamingUtteranceMatchesFig6) {
  const IntentEngine engine;
  const IntentResult result =
      engine.interpret("I want to start VR gaming in this room.");
  ASSERT_TRUE(result.understood);
  ASSERT_GE(result.calls.size(), 3u);
  EXPECT_EQ(result.calls[0].function, "enhance_link");
  EXPECT_EQ(result.calls[0].positional[0], "VR_headset");
  EXPECT_EQ(result.calls[1].function, "enable_sensing");
  EXPECT_EQ(result.calls[1].positional[0], "this_room");
  EXPECT_EQ(result.calls[2].function, "optimize_coverage");
}

TEST(Intent, MeetingPlusChargingUtteranceMatchesFig6) {
  const IntentEngine engine;
  const IntentResult result = engine.interpret(
      "I want to have an online meeting while charging my phone.");
  ASSERT_TRUE(result.understood);
  ASSERT_EQ(result.calls.size(), 2u);
  EXPECT_EQ(result.calls[0].function, "enhance_link");
  // The meeting binds to the default laptop, not the phone being charged.
  EXPECT_EQ(result.calls[0].positional[0], "laptop");
  EXPECT_EQ(result.calls[1].function, "init_powering");
  EXPECT_EQ(result.calls[1].positional[0], "phone");
}

TEST(Intent, RendersPaperStyleCalls) {
  ServiceCall call{"enhance_link", {"laptop"}, {{"snr", 20.0}, {"latency", 50.0}}};
  EXPECT_EQ(call.render(), "enhance_link(\"laptop\", snr=20.0, latency=50.0)");
}

TEST(Intent, ExtractsRoomAndDuration) {
  const IntentEngine engine;
  const IntentResult result = engine.interpret(
      "Track motion in the meeting room for 2 hours please");
  ASSERT_TRUE(result.understood);
  EXPECT_EQ(result.room, "meeting_room");
  ASSERT_EQ(result.calls.size(), 1u);
  EXPECT_EQ(result.calls[0].function, "enable_sensing");
  EXPECT_DOUBLE_EQ(result.calls[0].named[0].second, 7200.0);
}

TEST(Intent, SecurityUtteranceCreatesProtect) {
  const IntentEngine engine;
  const IntentResult result = engine.interpret(
      "I need to send confidential files from the office");
  ASSERT_TRUE(result.understood);
  bool has_protect = false;
  for (const auto& call : result.calls) {
    if (call.function == "protect") has_protect = true;
  }
  EXPECT_TRUE(has_protect);
  EXPECT_EQ(result.room, "office");
}

TEST(Intent, GibberishIsNotUnderstood) {
  const IntentEngine engine;
  const IntentResult result = engine.interpret("the quick brown fox");
  EXPECT_FALSE(result.understood);
  EXPECT_TRUE(result.calls.empty());
}

TEST(Intent, MultiIntentOrderFollowsText) {
  const IntentEngine engine;
  const IntentResult result = engine.interpret(
      "charge my phone and then stream a movie on the tv");
  ASSERT_EQ(result.activities.size(), 2u);
  EXPECT_EQ(result.activities[0], AppClass::kWirelessCharging);
  EXPECT_EQ(result.activities[1], AppClass::kVideoStreaming);
}

// --- specgen ------------------------------------------------------------------------

constexpr const char* kGoodDatasheet = R"(# Example surface datasheet
model: AcmeSurface-28
frequency: 28 GHz
mode: reflective
reconfigurable: yes, column-wise
elements: 16x32
spacing: half-wavelength
phase_bits: 2
insertion_loss: 1.5 dB
control_delay: 2 ms
slots: 8
)";

TEST(SpecGen, ParsesCompleteDatasheet) {
  const SpecGenResult result = parse_datasheet(kGoodDatasheet);
  ASSERT_TRUE(result.blueprint.has_value());
  const DriverBlueprint& bp = *result.blueprint;
  EXPECT_EQ(bp.model, "AcmeSurface-28");
  EXPECT_EQ(bp.band, em::Band::k28GHz);
  EXPECT_EQ(bp.op_mode, surface::OperationMode::kReflective);
  EXPECT_EQ(bp.granularity, surface::ControlGranularity::kColumn);
  EXPECT_EQ(bp.rows, 16u);
  EXPECT_EQ(bp.cols, 32u);
  EXPECT_EQ(bp.element.phase_bits, 2);
  EXPECT_NEAR(bp.element.insertion_loss_db, 1.5, 1e-9);
  EXPECT_EQ(bp.control_delay_us, 2000u);
  EXPECT_EQ(bp.config_slots, 8u);
  // Half-wavelength at 28 GHz.
  EXPECT_NEAR(bp.element.spacing_m, 0.00535, 1e-4);
}

TEST(SpecGen, MissingRequiredFieldsFails) {
  const SpecGenResult result = parse_datasheet("mode: reflective\n");
  EXPECT_FALSE(result.blueprint.has_value());
  EXPECT_FALSE(result.warnings.empty());
}

TEST(SpecGen, UnknownKeysBecomeWarnings) {
  const SpecGenResult result = parse_datasheet(
      "model: X\nfrequency: 5 GHz\ncolor: blue\nnot even a line\n");
  ASSERT_TRUE(result.blueprint.has_value());
  EXPECT_EQ(result.blueprint->band, em::Band::k5GHz);
  EXPECT_GE(result.warnings.size(), 2u);
}

TEST(SpecGen, PassiveDatasheetSynthesizesPassiveDriver) {
  const SpecGenResult result = parse_datasheet(
      "model: Cheap60\nfrequency: 60 GHz\nreconfigurable: no (passive)\n"
      "elements: 8x8\n");
  ASSERT_TRUE(result.blueprint.has_value());
  EXPECT_EQ(result.blueprint->reconfigurability,
            surface::Reconfigurability::kPassive);
  const hal::HardwareSpec spec = result.blueprint->to_spec();
  EXPECT_EQ(spec.control_delay_us, hal::kInfiniteDelay);
  EXPECT_EQ(spec.config_slots, 1u);

  const geom::Frame pose({0, 0, 1}, {0, 0, 1});
  const surface::SurfacePanel panel = build_panel(*result.blueprint, pose);
  hal::SimClock clock;
  const auto driver =
      synthesize_driver(*result.blueprint, &panel, "cheap0", &clock);
  EXPECT_NE(dynamic_cast<hal::PassiveSurfaceDriver*>(driver.get()), nullptr);
}

TEST(SpecGen, ProgrammableDatasheetSynthesizesProgrammableDriver) {
  const SpecGenResult result = parse_datasheet(kGoodDatasheet);
  const geom::Frame pose({0, 0, 1}, {0, 0, 1});
  const surface::SurfacePanel panel = build_panel(*result.blueprint, pose);
  hal::SimClock clock;
  const auto driver =
      synthesize_driver(*result.blueprint, &panel, "acme0", &clock);
  EXPECT_NE(dynamic_cast<hal::ProgrammableSurfaceDriver*>(driver.get()),
            nullptr);
  EXPECT_EQ(driver->spec().control_delay_us, 2000u);
  EXPECT_EQ(driver->panel().cols(), 32u);
}

TEST(SpecGen, MalformedValuesWarnedNotFatal) {
  const SpecGenResult result = parse_datasheet(
      "model: X\nfrequency: 28 GHz\nelements: lots\nphase_bits: many\n"
      "control_delay: soon\n");
  ASSERT_TRUE(result.blueprint.has_value());
  EXPECT_GE(result.warnings.size(), 3u);
  // Defaults survive.
  EXPECT_EQ(result.blueprint->rows, 16u);
}

// --- broker daemon -----------------------------------------------------------------

struct BrokerFixture {
  sim::CoverageRoomScenario scene = sim::make_coverage_room(4);
  hal::SimClock clock;
  hal::DeviceRegistry registry;
  surface::SurfacePanel panel;
  std::unique_ptr<orch::Orchestrator> orchestrator;
  std::unique_ptr<ServiceBroker> broker;

  BrokerFixture()
      : panel([&] {
          surface::ElementDesign d;
          d.spacing_m = em::wavelength(em::band_center(scene.band)) / 2.0;
          return surface::SurfacePanel(
              "wall", scene.surface_pose, 10, 10, d,
              surface::OperationMode::kReflective,
              surface::Reconfigurability::kProgrammable,
              surface::ControlGranularity::kElement);
        }()) {
    registry.add_surface(std::make_unique<hal::ProgrammableSurfaceDriver>(
        "wall", &panel, hal::spec_for_panel(panel, scene.band), &clock));
    registry.add_endpoint({"laptop", hal::EndpointKind::kClient,
                           {1.2, 2.4, 1.0}, scene.band, std::nullopt});
    registry.add_endpoint({"phone", hal::EndpointKind::kClient,
                           {2.0, 1.5, 1.0}, scene.band, std::nullopt});
    registry.add_endpoint({"VR_headset", hal::EndpointKind::kClient,
                           {1.6, 2.0, 1.2}, scene.band, std::nullopt});
    orch::OrchestratorContext context;
    context.environment = scene.environment.get();
    context.ap = scene.ap();
    context.default_band = scene.band;
    context.budget = scene.budget;
    orchestrator = std::make_unique<orch::Orchestrator>(&registry, &clock,
                                                        context);
    broker = std::make_unique<ServiceBroker>(
        orchestrator.get(),
        geom::SampleGrid(0.8, 2.8, 0.5, 2.5, 1.0, 3, 3));
  }
};

TEST(Broker, StartAppCreatesTasks) {
  BrokerFixture fx;
  ASSERT_TRUE(fx.broker
                  ->start_app("stream", demand_profile(
                                            AppClass::kVideoStreaming,
                                            "laptop"))
                  .ok());
  const auto& sessions = fx.broker->sessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions.at("stream").tasks.size(), 1u);
  EXPECT_TRUE(sessions.at("stream").running);
  const auto collision = fx.broker->start_app(
      "stream", demand_profile(AppClass::kVideoStreaming, "laptop"));
  ASSERT_FALSE(collision.ok());
  EXPECT_EQ(collision.code(), ErrorCode::kAlreadyExists);
}

TEST(Broker, StatusTracksGoalSatisfaction) {
  BrokerFixture fx;
  AppDemand demand = demand_profile(AppClass::kVideoConference, "laptop");
  ASSERT_TRUE(fx.broker->start_app("meet", demand).ok());
  fx.orchestrator->step();
  const AppStatus status = fx.broker->status("meet");
  EXPECT_TRUE(status.known);
  EXPECT_TRUE(status.running);
  EXPECT_EQ(status.tasks_total, 1u);
  // 20 Mbps over 400 MHz needs very low SNR; the surface delivers easily.
  EXPECT_TRUE(status.satisfied);
  EXPECT_FALSE(fx.broker->status("nope").known);
}

TEST(Broker, StopAndResumeRetranslates) {
  BrokerFixture fx;
  const auto started = fx.broker->start_app(
      "stream", demand_profile(AppClass::kVideoStreaming, "laptop"));
  ASSERT_TRUE(started.ok());
  fx.orchestrator->step();
  const std::vector<orch::TaskId> before =
      fx.broker->sessions().at("stream").tasks;
  ASSERT_FALSE(before.empty());

  // Stop leaves only the demand and trace id: no task survives anywhere.
  ASSERT_TRUE(fx.broker->stop_app("stream").ok());
  EXPECT_TRUE(fx.orchestrator->tasks().empty());
  EXPECT_TRUE(fx.broker->sessions().at("stream").tasks.empty());
  EXPECT_EQ(fx.broker->status("stream").tasks_total, 0u);
  const auto report = fx.orchestrator->step();
  EXPECT_EQ(report.assignment_count, 0u);

  // Resume re-translates under the original trace id, with new task ids.
  ASSERT_TRUE(fx.broker->resume_app("stream").ok());
  const AppSession& session = fx.broker->sessions().at("stream");
  EXPECT_TRUE(session.running);
  EXPECT_EQ(session.trace_id, started.value());
  ASSERT_EQ(session.tasks.size(), before.size());
  EXPECT_GT(session.tasks.front(), before.back());
  EXPECT_EQ(fx.orchestrator->tasks().size(), session.tasks.size());
  for (const orch::TaskId id : session.tasks) {
    EXPECT_EQ(fx.orchestrator->find_task(id)->trace.trace_id, started.value());
  }
  const auto resumed = fx.orchestrator->step();
  EXPECT_EQ(resumed.assignment_count, 1u);

  // Resuming a running app changes nothing.
  const std::vector<orch::TaskId> running = session.tasks;
  ASSERT_TRUE(fx.broker->resume_app("stream").ok());
  EXPECT_EQ(fx.broker->sessions().at("stream").tasks, running);
  EXPECT_EQ(fx.broker->resume_app("ghost").code(), ErrorCode::kNotFound);
}

TEST(Broker, EscalatesUnsatisfiedApps) {
  BrokerFixture fx;
  // Demand an absurd throughput so the link goal cannot be met.
  AppDemand demand = demand_profile(AppClass::kVrGaming, "VR_headset");
  demand.throughput_mbps = 40000.0;
  demand.max_latency_ms = 400.0;  // start at normal priority
  ASSERT_TRUE(fx.broker->start_app("vr", demand).ok());
  fx.orchestrator->step();
  EXPECT_FALSE(fx.broker->status("vr").satisfied);
  const std::size_t escalated = fx.broker->escalate_unsatisfied();
  EXPECT_EQ(escalated, 1u);
  // The re-admitted task has a strictly higher priority.
  const auto& session = fx.broker->sessions().at("vr");
  const orch::Task* task = fx.orchestrator->find_task(session.tasks[0]);
  ASSERT_NE(task, nullptr);
  EXPECT_GT(task->priority, orch::kPriorityNormal);
  // The cancelled original is erased, not left behind.
  EXPECT_EQ(fx.orchestrator->tasks().size(), session.tasks.size());
}

TEST(Broker, UtteranceStartsApps) {
  BrokerFixture fx;
  const IntentResult result = fx.broker->handle_utterance(
      "I want to have an online meeting while charging my phone.");
  EXPECT_TRUE(result.understood);
  EXPECT_EQ(fx.broker->sessions().size(), 2u);
  const auto report = fx.orchestrator->step();
  EXPECT_GE(report.assignment_count, 1u);
}

TEST(Broker, TrafficSuggestionsDriveSessions) {
  BrokerFixture fx;
  util::Rng rng(7);
  TrafficMonitor monitor(2 * hal::kMicrosPerSecond);
  for (const auto& r : synthesize_traffic(AppClass::kVideoStreaming, 0,
                                          2 * hal::kMicrosPerSecond, rng)) {
    monitor.ingest("laptop", r);
  }
  const auto suggestions = monitor.analyze(2 * hal::kMicrosPerSecond);
  ASSERT_FALSE(suggestions.empty());
  EXPECT_EQ(fx.broker->apply_traffic_suggestions(suggestions), 1u);
  // The auto session exists, runs, and owns a link task.
  const std::string app_id = "auto-laptop-video-streaming";
  ASSERT_TRUE(fx.broker->status(app_id).known);
  EXPECT_TRUE(fx.broker->status(app_id).running);
  // Re-applying the same suggestions starts nothing new.
  EXPECT_EQ(fx.broker->apply_traffic_suggestions(suggestions), 0u);
  // Traffic disappears: the auto session is stopped.
  EXPECT_EQ(fx.broker->apply_traffic_suggestions({}), 0u);
  EXPECT_FALSE(fx.broker->status(app_id).running);
  // It comes back: the idled session resumes instead of duplicating.
  fx.broker->apply_traffic_suggestions(suggestions);
  EXPECT_TRUE(fx.broker->status(app_id).running);
}

TEST(Broker, LowConfidenceSuggestionsIgnored) {
  BrokerFixture fx;
  DemandSuggestion weak;
  weak.endpoint_id = "laptop";
  weak.classification = {AppClass::kVideoStreaming, 0.2};
  EXPECT_EQ(fx.broker->apply_traffic_suggestions({weak}), 0u);
  EXPECT_TRUE(fx.broker->sessions().empty());
}

TEST(Broker, NamedRegionsResolve) {
  BrokerFixture fx;
  fx.broker->add_region("meeting_room",
                        geom::SampleGrid(0.5, 1.5, 0.5, 1.5, 1.0, 2, 2));
  AppDemand demand = demand_profile(AppClass::kSmartHome, "", "meeting_room");
  ASSERT_TRUE(fx.broker->start_app("tracker", demand).ok());
  fx.orchestrator->step();
  const auto& session = fx.broker->sessions().at("tracker");
  const orch::Task* task = fx.orchestrator->find_task(session.tasks[0]);
  const auto& goal = std::get<orch::SensingGoal>(task->goal);
  EXPECT_EQ(goal.region.size(), 4u);
}

}  // namespace
}  // namespace surfos::broker
