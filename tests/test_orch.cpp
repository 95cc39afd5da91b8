// Orchestrator tests: panel-variable mapping (with analytic-gradient checks
// against finite differences for every objective, and the fused
// JointObjective against a weighted sum of standalone terms), scheduler
// policies, the
// performance models, the full control-plane loop (schedule -> optimize
// -> actuate -> measure) on the canonical coverage room, and the contract
// that a kept plan is measured once until its hardware or tasks change.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "daemon/daemon.hpp"
#include "daemon/messages.hpp"
#include "hal/reliable.hpp"
#include "opt/optimizer.hpp"
#include "orch/objectives.hpp"
#include "orch/orchestrator.hpp"
#include "orch/perf.hpp"
#include "orch/scheduler.hpp"
#include "orch/task.hpp"
#include "orch/variables.hpp"
#include "sim/dynamics.hpp"
#include "sim/floorplan.hpp"
#include "proto/serialize.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

#include "daemon_test_util.hpp"

namespace surfos::orch {
namespace {

constexpr double kFreq = 28e9;

surface::SurfacePanel small_panel(
    const std::string& id,
    surface::ControlGranularity granularity =
        surface::ControlGranularity::kElement,
    const geom::Frame& pose = geom::Frame({0, 0, 2}, {0, 0, -1}, {1, 0, 0})) {
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(kFreq) / 2.0;
  d.insertion_loss_db = 1.0;
  return surface::SurfacePanel(id, pose, 4, 4, d,
                               surface::OperationMode::kReflective,
                               surface::Reconfigurability::kProgrammable,
                               granularity);
}

// --- PanelVariables ------------------------------------------------------------

TEST(Variables, DimensionAndRanges) {
  const auto a = small_panel("a", surface::ControlGranularity::kElement);
  const auto b = small_panel("b", surface::ControlGranularity::kColumn);
  const PanelVariables vars({&a, &b});
  EXPECT_EQ(vars.dimension(), 16u + 4u);
  EXPECT_EQ(vars.range_of(0), std::make_pair(std::size_t{0}, std::size_t{16}));
  EXPECT_EQ(vars.range_of(1), std::make_pair(std::size_t{16}, std::size_t{4}));
}

TEST(Variables, CoefficientsApplyLossAndPhase) {
  const auto a = small_panel("a");
  const PanelVariables vars({&a});
  std::vector<double> x(16, 0.0);
  x[3] = 1.2;
  std::vector<em::CxPlanes> coeffs;
  vars.coefficients_into(x, coeffs);
  const double loss = std::pow(10.0, -1.0 / 20.0);
  EXPECT_NEAR(std::abs(coeffs[0].at(3)), loss, 1e-12);
  EXPECT_NEAR(std::arg(coeffs[0].at(3)), 1.2, 1e-12);
}

TEST(Variables, ColumnControlsReplicateDownColumns) {
  const auto b = small_panel("b", surface::ControlGranularity::kColumn);
  const PanelVariables vars({&b});
  std::vector<double> x(4);
  for (int i = 0; i < 4; ++i) x[static_cast<std::size_t>(i)] = 0.3 * i;
  std::vector<em::CxPlanes> coeffs;
  vars.coefficients_into(x, coeffs);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(std::arg(coeffs[0].at(r * 4 + c)),
                  0.3 * static_cast<double>(c), 1e-12);
    }
  }
}

TEST(Variables, ReduceGradientSumsGroups) {
  const auto b = small_panel("b", surface::ControlGranularity::kColumn);
  const PanelVariables vars({&b});
  std::vector<double> element_grad(16, 1.0);
  std::vector<double> x_grad(4, 0.0);
  vars.reduce_gradient(0, element_grad, x_grad);
  for (const double g : x_grad) EXPECT_DOUBLE_EQ(g, 4.0);
}

TEST(Variables, RealizeRoundTripsThroughConfigs) {
  const auto a = small_panel("a");
  const PanelVariables vars({&a});
  std::vector<double> x(16);
  for (std::size_t i = 0; i < 16; ++i) x[i] = 0.35 * static_cast<double>(i);
  const auto configs = vars.realize(x);
  const auto back = vars.from_configs(configs);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(back[i], util::wrap_two_pi(x[i]), 1e-9);
  }
}

TEST(Variables, PlanesMatchPerElementPolarUnderEveryGranularity) {
  // A non-square panel so a row/column mix-up cannot cancel out.
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(kFreq) / 2.0;
  d.insertion_loss_db = 1.7;
  using G = surface::ControlGranularity;
  for (const G granularity :
       {G::kElement, G::kColumn, G::kRow, G::kGlobal}) {
    const surface::SurfacePanel lead = small_panel("lead");
    const surface::SurfacePanel panel(
        "p", geom::Frame({0, 0, 2}, {0, 0, -1}, {1, 0, 0}), 3, 5, d,
        surface::OperationMode::kReflective,
        surface::Reconfigurability::kProgrammable, granularity);
    const PanelVariables vars({&lead, &panel});
    const std::size_t offset = vars.range_of(1).first;
    const double loss = std::pow(10.0, -1.7 / 20.0);
    util::Rng rng(83);
    std::vector<em::CxPlanes> planes;
    for (int round = 0; round < 2; ++round) {  // second round reuses buffers
      std::vector<double> x(vars.dimension());
      for (double& v : x) v = rng.uniform(-10.0, 10.0);
      vars.coefficients_into(x, planes);
      ASSERT_EQ(planes.size(), 2u);
      const em::CxPlanes& c = planes[1];
      ASSERT_EQ(c.size(), 15u);
      for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t col = 0; col < 5; ++col) {
          std::size_t control = 0;
          switch (granularity) {
            case G::kElement: control = r * 5 + col; break;
            case G::kColumn: control = col; break;
            case G::kRow: control = r; break;
            case G::kGlobal: control = 0; break;
          }
          const em::Cx expected = std::polar(loss, x[offset + control]);
          EXPECT_EQ(c.re()[r * 5 + col], expected.real());
          EXPECT_EQ(c.im()[r * 5 + col], expected.imag());
        }
      }
      for (std::size_t e = c.size(); e < c.padded_size(); ++e) {
        EXPECT_EQ(c.re()[e], 0.0);
        EXPECT_EQ(c.im()[e], 0.0);
      }
    }
  }
}

// --- Objectives (gradient checks) -------------------------------------------------

struct ObjectiveFixture {
  sim::Environment env{em::MaterialDb::standard()};
  surface::SurfacePanel panel = small_panel("p");
  std::unique_ptr<sim::SceneChannel> channel;
  std::unique_ptr<PanelVariables> vars;

  ObjectiveFixture() {
    // Low metal fence blocks the ground-level direct paths so the surface
    // (mounted at z = 2) is the dominant route — the regime the objectives
    // are optimized in.
    env.add_vertical_wall(0.0, -2.0, 0.0, 2.0, 0.0, 1.0, em::kMatMetal);
    env.finalize();
    // RX probes sit well off the panel's specular direction so a uniform
    // (mirror-like) configuration is incoherent toward them and optimization
    // has real headroom.
    channel = std::make_unique<sim::SceneChannel>(
        &env, kFreq, sim::TxSpec{{-1.0, 0.2, 0.0}, nullptr},
        std::vector<const surface::SurfacePanel*>{&panel},
        std::vector<geom::Vec3>{{1.0, -1.5, 0.1}, {0.6, -1.2, 0.3}});
    vars = std::make_unique<PanelVariables>(
        std::vector<const surface::SurfacePanel*>{&panel});
  }
};

void check_gradient(const opt::Objective& objective,
                    const std::vector<double>& x, double tolerance = 1e-5) {
  std::vector<double> analytic(x.size());
  const double value = objective.value_and_gradient(x, analytic);
  EXPECT_NEAR(value, objective.value(x), 1e-10);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    auto plus = x;
    auto minus = x;
    plus[i] += eps;
    minus[i] -= eps;
    const double fd =
        (objective.value(plus) - objective.value(minus)) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], fd, tolerance + 1e-3 * std::fabs(fd))
        << "coordinate " << i;
  }
}

TEST(Objectives, CapacityGradientMatchesFiniteDifference) {
  ObjectiveFixture fx;
  const CapacityObjective objective(fx.channel.get(), fx.vars.get(), {0, 1},
                                    1e8, 1.0);
  util::Rng rng(61);
  std::vector<double> x(fx.vars->dimension());
  for (double& v : x) v = rng.uniform(0, util::kTwoPi);
  check_gradient(objective, x);
}

TEST(Objectives, SecuritySignFlipsGradient) {
  ObjectiveFixture fx;
  const CapacityObjective maximize(fx.channel.get(), fx.vars.get(), {0}, 1e8,
                                   1.0);
  const CapacityObjective minimize(fx.channel.get(), fx.vars.get(), {0}, 1e8,
                                   -1.0);
  std::vector<double> x(fx.vars->dimension(), 0.3);
  std::vector<double> g1(x.size()), g2(x.size());
  maximize.value_and_gradient(x, g1);
  minimize.value_and_gradient(x, g2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(g1[i], -g2[i], 1e-12);
  }
  check_gradient(minimize, x);
}

TEST(Objectives, PowerDeliveryGradientMatchesFiniteDifference) {
  ObjectiveFixture fx;
  const PowerDeliveryObjective objective(fx.channel.get(), fx.vars.get(), {1},
                                         1e-12);
  util::Rng rng(67);
  std::vector<double> x(fx.vars->dimension());
  for (double& v : x) v = rng.uniform(0, util::kTwoPi);
  check_gradient(objective, x, 1e-4);
}

TEST(Objectives, LocalizationGradientMatchesFiniteDifference) {
  ObjectiveFixture fx;
  const LocalizationObjective objective(fx.channel.get(), fx.vars.get(), 0,
                                        {0, 1}, 41);
  util::Rng rng(71);
  std::vector<double> x(fx.vars->dimension());
  for (double& v : x) v = rng.uniform(0, util::kTwoPi);
  check_gradient(objective, x, 1e-4);
}

TEST(Objectives, OptimizedCapacityBeatsUniform) {
  ObjectiveFixture fx;
  // rho sized so the focused surface link lands in the tens-of-dB SNR range
  // (otherwise the capacity landscape is numerically flat and there is
  // nothing to optimize).
  const CapacityObjective objective(fx.channel.get(), fx.vars.get(), {0, 1},
                                    1e13, 1.0);
  const std::vector<double> x0(fx.vars->dimension(), 0.0);
  const auto result = opt::GradientDescent().minimize(objective, x0);
  EXPECT_LT(result.value, objective.value(x0) - 0.5);
}

TEST(Objectives, RejectBadConstruction) {
  ObjectiveFixture fx;
  EXPECT_THROW(CapacityObjective(nullptr, fx.vars.get(), {0}, 1e8),
               std::invalid_argument);
  EXPECT_THROW(CapacityObjective(fx.channel.get(), fx.vars.get(), {}, 1e8),
               std::invalid_argument);
  EXPECT_THROW(CapacityObjective(fx.channel.get(), fx.vars.get(), {0}, -1.0),
               std::invalid_argument);
  EXPECT_THROW(LocalizationObjective(fx.channel.get(), fx.vars.get(), 7, {0}),
               std::invalid_argument);
  EXPECT_THROW(
      PowerDeliveryObjective(fx.channel.get(), fx.vars.get(), {0}, 0.0),
      std::invalid_argument);
}

TEST(OptimizerEquivalence, AnnealingValueConsistentWithDenseRecompute) {
  ObjectiveFixture fx;
  const CapacityObjective capacity(fx.channel.get(), fx.vars.get(), {0, 1},
                                   1e8, 1.0);
  opt::AnnealingOptions options;
  options.max_evaluations = 300;
  const opt::SimulatedAnnealing annealer(options);
  util::Rng rng(41);
  std::vector<double> x0(fx.vars->dimension());
  for (double& v : x0) v = rng.uniform(0, util::kTwoPi);
  const double initial = capacity.value(x0);
  const auto result = annealer.minimize(capacity, x0);
  EXPECT_LE(result.value, initial);
  // The reported best is a value the annealer computed, so a fresh
  // objective recomputes it bit for bit at the reported point.
  const CapacityObjective fresh(fx.channel.get(), fx.vars.get(), {0, 1}, 1e8,
                                1.0);
  EXPECT_EQ(result.value, fresh.value(result.x));
}

// --- JointObjective --------------------------------------------------------------

/// Two panels (element- and column-controlled) and 80 RX probes, so the
/// capacity term below spans two kRxBlock blocks.
struct JointFixture {
  sim::Environment env{em::MaterialDb::standard()};
  surface::SurfacePanel a = small_panel("a");
  surface::SurfacePanel b =
      small_panel("b", surface::ControlGranularity::kColumn,
                  geom::Frame({0.6, -0.8, 2.2}, {0, 0, -1}, {1, 0, 0}));
  std::unique_ptr<sim::SceneChannel> channel;
  std::unique_ptr<PanelVariables> vars;
  std::vector<std::size_t> coverage_rx, leak_rx, sensing_rx;

  JointFixture() {
    env.add_vertical_wall(0.0, -2.0, 0.0, 2.0, 0.0, 1.0, em::kMatMetal);
    env.finalize();
    std::vector<geom::Vec3> rx;
    for (std::size_t i = 0; i < 10; ++i) {
      for (std::size_t j = 0; j < 8; ++j) {
        rx.push_back({0.4 + 0.13 * static_cast<double>(i),
                      -1.8 + 0.2 * static_cast<double>(j),
                      0.1 + 0.02 * static_cast<double>(i % 3)});
      }
    }
    const std::vector<const surface::SurfacePanel*> panels{&a, &b};
    channel = std::make_unique<sim::SceneChannel>(
        &env, kFreq, sim::TxSpec{{-1.0, 0.2, 0.0}, nullptr}, panels, rx);
    vars = std::make_unique<PanelVariables>(panels);
    for (std::size_t j = 0; j < 70; ++j) coverage_rx.push_back(j);
    for (std::size_t j = 70; j < 79; ++j) leak_rx.push_back(j);
    sensing_rx = {3, 17, 42, 64, 77};
  }

  std::vector<double> point(std::uint64_t seed) const {
    util::Rng rng(seed);
    std::vector<double> x(vars->dimension());
    for (double& v : x) v = rng.uniform(0, util::kTwoPi);
    return x;
  }
};

/// The mixed plan the orchestrator builds for capacity + security + power +
/// sensing tasks, once fused and once as a weighted sum of standalone terms.
struct MixedPlan {
  CapacityObjective capacity;
  PowerDeliveryObjective leak;
  PowerDeliveryObjective power;
  LocalizationObjective localization;
  opt::WeightedSumObjective weighted;
  JointObjective joint;

  explicit MixedPlan(const JointFixture& fx)
      : capacity(fx.channel.get(), fx.vars.get(), fx.coverage_rx, 1e12, 1.0),
        leak(fx.channel.get(), fx.vars.get(), fx.leak_rx, 3e-9),
        power(fx.channel.get(), fx.vars.get(), {79}, 2e-9),
        localization(fx.channel.get(), fx.vars.get(), 1, fx.sensing_rx, 41),
        joint(fx.channel.get(), fx.vars.get()) {
    weighted.add_term(&capacity, 3.0);
    weighted.add_term(&leak, -4.0);
    weighted.add_term(&power, 1.0);
    weighted.add_term(&localization, 2.0);
    joint.add_capacity(fx.coverage_rx, 1e12, 1.0, 3.0);
    joint.add_power_delivery(fx.leak_rx, 3e-9, -4.0);
    joint.add_power_delivery({79}, 2e-9, 1.0);
    joint.add_localization(1, fx.sensing_rx, 41, 2.0);
  }
};

TEST(JointObjectiveTest, BitIdenticalToWeightedSumOfStandaloneTerms) {
  const JointFixture fx;
  std::vector<double> fused_serial;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    util::reset_global_pool(threads);  // 1 = serial, 0 = the pool default
    const MixedPlan plan(fx);
    EXPECT_EQ(plan.joint.term_count(), 4u);
    for (const std::uint64_t seed : {5u, 6u, 7u}) {
      const auto x = fx.point(seed);
      std::vector<double> g_joint(x.size()), g_weighted(x.size());
      const double v_joint = plan.joint.value_and_gradient(x, g_joint);
      const double v_weighted = plan.weighted.value_and_gradient(x, g_weighted);
      EXPECT_EQ(v_joint, v_weighted);
      for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(g_joint[i], g_weighted[i]) << "coordinate " << i;
      }
      // value() runs the per-term value paths.
      EXPECT_EQ(plan.joint.value(x), plan.weighted.value(x));
      if (threads == 1) {
        fused_serial.push_back(v_joint);
      } else {
        EXPECT_EQ(v_joint, fused_serial[seed - 5]);
      }
    }
  }
  util::reset_global_pool(0);
}

TEST(JointObjectiveTest, GradientDescentTrajectoryUnchanged) {
  const JointFixture fx;
  const MixedPlan plan(fx);
  const auto x0 = fx.point(11);
  const opt::GradientDescent optimizer;
  const auto fused = optimizer.minimize(plan.joint, x0);
  const auto reference = optimizer.minimize(plan.weighted, x0);
  EXPECT_GT(fused.iterations, 1u);
  EXPECT_EQ(fused.iterations, reference.iterations);
  EXPECT_EQ(fused.evaluations, reference.evaluations);
  EXPECT_EQ(fused.value, reference.value);
  ASSERT_EQ(fused.x.size(), reference.x.size());
  for (std::size_t i = 0; i < fused.x.size(); ++i) {
    EXPECT_EQ(fused.x[i], reference.x[i]) << "coordinate " << i;
  }
}

TEST(JointObjectiveTest, ConcurrentBatchMatchesSerialValues) {
  const JointFixture fx;
  const MixedPlan plan(fx);
  std::vector<std::vector<double>> xs;
  for (std::uint64_t seed = 20; seed < 36; ++seed) xs.push_back(fx.point(seed));
  std::vector<double> batch(xs.size());
  plan.joint.value_batch(xs, batch);
  for (std::size_t k = 0; k < xs.size(); ++k) {
    EXPECT_EQ(batch[k], plan.weighted.value(xs[k])) << "point " << k;
  }
}

TEST(JointObjectiveTest, RejectsBadTermsAndGradientSize) {
  const JointFixture fx;
  JointObjective joint(fx.channel.get(), fx.vars.get());
  EXPECT_THROW(joint.add_localization(2, {0}, 41, 1.0), std::invalid_argument);
  EXPECT_THROW(joint.add_power_delivery({}, 1.0, 1.0), std::invalid_argument);
  EXPECT_EQ(joint.term_count(), 0u);
  joint.add_capacity({0}, 1e8, 1.0, 1.0);
  const auto x = fx.point(3);
  std::vector<double> short_gradient(x.size() - 1);
  EXPECT_THROW(joint.value_and_gradient(x, short_gradient),
               std::invalid_argument);
}

// --- Perf models ---------------------------------------------------------------------

TEST(Perf, MetricsAreInternallyConsistent) {
  ObjectiveFixture fx;
  const em::LinkBudget budget{10.0, 400e6, 7.0};
  const std::vector<surface::SurfaceConfig> configs{
      fx.panel.focus_config({-1.0, 0.2, 0.0}, {1.0, -1.5, 0.1}, kFreq)};
  const auto coefficients = fx.channel->coefficients_for(configs);
  const LinkMetrics link = link_metrics(*fx.channel, budget, coefficients, 0);
  EXPECT_NEAR(link.snr_db, link.rss_dbm - budget.noise_dbm(), 1e-9);
  const CoverageMetrics coverage =
      coverage_metrics(*fx.channel, budget, coefficients, {0, 1});
  ASSERT_EQ(coverage.snr_db.size(), 2u);
  EXPECT_NEAR(coverage.snr_db[0], link.snr_db, 1e-9);
  EXPECT_GE(coverage.mean_capacity_mbps, 0.0);
  const PowerMetrics power =
      power_metrics(*fx.channel, budget, coefficients, 0);
  EXPECT_NEAR(power.delivered_dbm, link.rss_dbm, 1e-9);
}

TEST(Perf, FocusedLinkBeatsUniformLink) {
  ObjectiveFixture fx;
  const em::LinkBudget budget{10.0, 400e6, 7.0};
  const std::vector<surface::SurfaceConfig> uniform{
      surface::SurfaceConfig(fx.panel.element_count())};
  const std::vector<surface::SurfaceConfig> focus{
      fx.panel.focus_config({-1.0, 0.2, 0.0}, {1.0, -1.5, 0.1}, kFreq)};
  EXPECT_GT(link_metrics(*fx.channel, budget,
                         fx.channel->coefficients_for(focus), 0)
                .snr_db,
            link_metrics(*fx.channel, budget,
                         fx.channel->coefficients_for(uniform), 0)
                    .snr_db +
                3.0);
}

// --- Scheduler --------------------------------------------------------------------------

struct SchedulerFixture {
  hal::SimClock clock;
  surface::SurfacePanel panel_a = small_panel("a");
  surface::SurfacePanel panel_b = small_panel(
      "b", surface::ControlGranularity::kElement,
      geom::Frame({3, 0, 2}, {0, 0, -1}, {1, 0, 0}));
  hal::DeviceRegistry registry;

  SchedulerFixture() {
    hal::HardwareSpec spec;
    spec.band_response[em::Band::k28GHz] = 0.9;
    spec.config_slots = 4;
    spec.control_delay_us = 100;
    registry.add_surface(std::make_unique<hal::ProgrammableSurfaceDriver>(
        "a", &panel_a, spec, &clock));
    registry.add_surface(std::make_unique<hal::ProgrammableSurfaceDriver>(
        "b", &panel_b, spec, &clock));
    registry.add_endpoint({"client-near-a", hal::EndpointKind::kClient,
                           {0.1, 0, 0}, em::Band::k28GHz, std::nullopt});
    registry.add_endpoint({"client-near-b", hal::EndpointKind::kClient,
                           {3.1, 0, 0}, em::Band::k28GHz, std::nullopt});
  }

  Task make_task(TaskId id, ServiceGoal goal, Priority priority,
                 std::optional<hal::Micros> deadline = std::nullopt) {
    Task t;
    t.id = id;
    t.goal = std::move(goal);
    t.priority = priority;
    t.band = em::Band::k28GHz;
    t.deadline = deadline;
    return t;
  }
};

TEST(SchedulerTest, PriorityJointGroupsTasksPerBand) {
  SchedulerFixture fx;
  const Task t1 = fx.make_task(1, LinkGoal{"client-near-a", 20, 50},
                               kPriorityInteractive);
  const Task t2 = fx.make_task(2, LinkGoal{"client-near-b", 20, 50},
                               kPriorityBackground);
  const Scheduler scheduler(SchedulePolicy::kPriorityJoint);
  const Schedule schedule = scheduler.build({&t1, &t2}, fx.registry);
  ASSERT_EQ(schedule.assignments.size(), 1u);
  const Assignment& a = schedule.assignments[0];
  EXPECT_EQ(a.tasks.size(), 2u);
  EXPECT_EQ(a.devices.size(), 2u);
  EXPECT_DOUBLE_EQ(a.time_share, 1.0);
  // Weights normalized and ordered by priority.
  EXPECT_NEAR(a.weights[0] + a.weights[1], 1.0, 1e-12);
  EXPECT_GT(a.weights[0], a.weights[1]);
}

TEST(SchedulerTest, RoundRobinSplitsTimeEvenly) {
  SchedulerFixture fx;
  const Task t1 = fx.make_task(1, LinkGoal{"client-near-a", 20, 50},
                               kPriorityNormal);
  const Task t2 = fx.make_task(2, LinkGoal{"client-near-b", 20, 50},
                               kPriorityNormal);
  const Scheduler scheduler(SchedulePolicy::kRoundRobinTdm);
  const Schedule schedule = scheduler.build({&t1, &t2}, fx.registry);
  ASSERT_EQ(schedule.assignments.size(), 2u);
  EXPECT_DOUBLE_EQ(schedule.assignments[0].time_share, 0.5);
  EXPECT_DOUBLE_EQ(schedule.assignments[1].time_share, 0.5);
  EXPECT_NE(schedule.assignments[0].slot, schedule.assignments[1].slot);
}

TEST(SchedulerTest, EdfFavorsEarlierDeadline) {
  SchedulerFixture fx;
  const Task late = fx.make_task(1, LinkGoal{"client-near-a", 20, 50},
                                 kPriorityNormal, hal::Micros{100000});
  const Task soon = fx.make_task(2, LinkGoal{"client-near-b", 20, 50},
                                 kPriorityNormal, hal::Micros{500});
  const Scheduler scheduler(SchedulePolicy::kEarliestDeadline);
  const Schedule schedule = scheduler.build({&late, &soon}, fx.registry);
  ASSERT_EQ(schedule.assignments.size(), 2u);
  // First assignment is the earliest deadline with the larger share.
  EXPECT_EQ(schedule.assignments[0].tasks[0], 2u);
  EXPECT_GT(schedule.assignments[0].time_share,
            schedule.assignments[1].time_share);
}

TEST(SchedulerTest, SpatialPartitionAssignsNearestSurface) {
  SchedulerFixture fx;
  const Task t1 = fx.make_task(1, LinkGoal{"client-near-a", 20, 50},
                               kPriorityNormal);
  const Task t2 = fx.make_task(2, LinkGoal{"client-near-b", 20, 50},
                               kPriorityNormal);
  const Scheduler scheduler(SchedulePolicy::kSpatialPartition);
  const Schedule schedule = scheduler.build({&t1, &t2}, fx.registry);
  ASSERT_EQ(schedule.assignments.size(), 2u);
  for (const Assignment& a : schedule.assignments) {
    ASSERT_EQ(a.devices.size(), 1u);
    ASSERT_EQ(a.tasks.size(), 1u);
    if (a.tasks[0] == 1) {
      EXPECT_EQ(a.devices[0], "a");
    } else {
      EXPECT_EQ(a.devices[0], "b");
    }
  }
}

TEST(SchedulerTest, StarvesTasksWithoutCapableHardware) {
  SchedulerFixture fx;
  Task t = fx.make_task(1, LinkGoal{"client-near-a", 20, 50}, kPriorityNormal);
  t.band = em::Band::k60GHz;  // neither surface responds at 60 GHz well
  const Scheduler scheduler(SchedulePolicy::kPriorityJoint);
  const Schedule schedule = scheduler.build({&t}, fx.registry);
  EXPECT_TRUE(schedule.assignments.empty());
  ASSERT_EQ(schedule.starved.size(), 1u);
  EXPECT_EQ(schedule.starved[0], 1u);
}

TEST(SchedulerTest, TaskFocusResolvesRegionsAndEndpoints) {
  SchedulerFixture fx;
  geom::Vec3 focus;
  const Task link = fx.make_task(1, LinkGoal{"client-near-a", 20, 50},
                                 kPriorityNormal);
  EXPECT_TRUE(task_focus(link, fx.registry, focus));
  EXPECT_EQ(focus, geom::Vec3(0.1, 0, 0));
  const Task missing = fx.make_task(2, LinkGoal{"ghost", 20, 50},
                                    kPriorityNormal);
  EXPECT_FALSE(task_focus(missing, fx.registry, focus));
  CoverageGoal coverage;
  coverage.region = geom::SampleGrid(0, 2, 0, 2, 1, 3, 3);
  const Task region = fx.make_task(3, coverage, kPriorityNormal);
  EXPECT_TRUE(task_focus(region, fx.registry, focus));
  EXPECT_EQ(focus, geom::Vec3(1.0, 1.0, 1.0));
}

// --- Orchestrator end-to-end -----------------------------------------------------------

struct OrchestratorFixture {
  sim::CoverageRoomScenario scene = sim::make_coverage_room(5);
  hal::SimClock clock;
  hal::DeviceRegistry registry;
  surface::SurfacePanel panel;
  std::unique_ptr<Orchestrator> orchestrator;

  /// `arq` puts the wall behind a ReliableSurfaceDriver with those options
  /// instead of the default programmable driver.
  explicit OrchestratorFixture(
      SchedulePolicy policy = SchedulePolicy::kPriorityJoint,
      OrchestratorOptions options = {},
      const hal::ReliableOptions* arq = nullptr)
      : panel([&] {
          surface::ElementDesign d;
          d.spacing_m = em::wavelength(em::band_center(scene.band)) / 2.0;
          d.insertion_loss_db = 1.0;
          return surface::SurfacePanel(
              "wall", scene.surface_pose, 12, 12, d,
              surface::OperationMode::kReflective,
              surface::Reconfigurability::kProgrammable,
              surface::ControlGranularity::kElement);
        }()) {
    hal::HardwareSpec spec = hal::spec_for_panel(panel, scene.band);
    if (arq != nullptr) {
      registry.add_surface(std::make_unique<hal::ReliableSurfaceDriver>(
          "wall", &panel, spec, &clock, *arq));
    } else {
      registry.add_surface(std::make_unique<hal::ProgrammableSurfaceDriver>(
          "wall", &panel, spec, &clock));
    }
    registry.add_endpoint({"laptop", hal::EndpointKind::kClient,
                           {1.2, 2.4, 1.0}, scene.band, std::nullopt});
    OrchestratorContext context;
    context.environment = scene.environment.get();
    context.ap = scene.ap();
    context.default_band = scene.band;
    context.budget = scene.budget;
    options.policy = policy;
    orchestrator = std::make_unique<Orchestrator>(&registry, &clock, context,
                                                  options);
  }
};

TEST(OrchestratorTest, EnhanceLinkImprovesSnr) {
  OrchestratorFixture fx;
  const TaskId id = fx.orchestrator->enhance_link({"laptop", 15.0, 50.0});
  const StepReport report = fx.orchestrator->step();
  EXPECT_EQ(report.assignment_count, 1u);
  EXPECT_EQ(report.optimizations_run, 1u);
  const Task* task = fx.orchestrator->find_task(id);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->state, TaskState::kRunning);
  ASSERT_TRUE(task->achieved.has_value());
  EXPECT_GT(*task->achieved, 15.0);
  EXPECT_TRUE(task->goal_met);
}

TEST(OrchestratorTest, SecondStepReusesPlan) {
  OrchestratorFixture fx;
  fx.orchestrator->enhance_link({"laptop", 15.0, 50.0});
  fx.orchestrator->step();
  const StepReport second = fx.orchestrator->step();
  EXPECT_EQ(second.optimizations_run, 0u);  // cached plan, nothing changed
}

TEST(OrchestratorTest, EnvironmentChangeTriggersReoptimization) {
  OrchestratorFixture fx;
  fx.orchestrator->enhance_link({"laptop", 15.0, 50.0});
  fx.orchestrator->step();
  fx.orchestrator->notify_environment_changed();
  const StepReport report = fx.orchestrator->step();
  EXPECT_EQ(report.optimizations_run, 1u);
}

/// Two panels with one client each and a walker whose track crosses only
/// the north client's links. Direct paths only, so which legs the walker
/// meets is plain geometry; the spatial-partition policy gives each panel
/// its own plan.
struct MotionFixture {
  sim::DynamicEnvironment world;
  surface::SurfacePanel east;
  surface::SurfacePanel north;
  hal::SimClock clock;
  hal::DeviceRegistry registry;
  hal::ProgrammableSurfaceDriver* east_driver = nullptr;

  static sim::DynamicEnvironment floor_with_walker() {
    em::MaterialDb materials = em::MaterialDb::standard();
    const int body = sim::add_body_material(materials);
    sim::DynamicEnvironment world(materials, [](sim::Environment& env) {
      env.add_horizontal_slab(0.0, 4.0, 0.0, 4.0, 0.0, em::kMatFloor);
    });
    sim::MovingBlocker walker;
    walker.id = "walker";
    walker.waypoints = {{2.2, 2.19, 0.0}, {0.2, 2.19, 0.0}};
    walker.speed_mps = 1.0;
    walker.material_id = body;
    world.add_blocker(std::move(walker));
    return world;
  }

  static surface::SurfacePanel panel(const std::string& id,
                                     const geom::Frame& pose) {
    surface::ElementDesign d;
    d.spacing_m = em::wavelength(em::band_center(em::Band::k28GHz)) / 2.0;
    d.insertion_loss_db = 1.0;
    return surface::SurfacePanel(id, pose, 8, 8, d,
                                 surface::OperationMode::kReflective,
                                 surface::Reconfigurability::kProgrammable,
                                 surface::ControlGranularity::kElement);
  }

  MotionFixture()
      : world(floor_with_walker()),
        east(panel("east", geom::Frame({3.9, 1.0, 1.5}, {-1, 0, 0}))),
        north(panel("north", geom::Frame({1.0, 3.9, 1.5}, {0, -1, 0}))) {
    for (const surface::SurfacePanel* p : {&east, &north}) {
      auto driver = std::make_unique<hal::ProgrammableSurfaceDriver>(
          p->id(), p, hal::spec_for_panel(*p, em::Band::k28GHz), &clock);
      if (p == &east) east_driver = driver.get();
      registry.add_surface(std::move(driver));
    }
    registry.add_endpoint({"east-client", hal::EndpointKind::kClient,
                           {3.0, 1.0, 1.0}, em::Band::k28GHz, std::nullopt});
    registry.add_endpoint({"north-client", hal::EndpointKind::kClient,
                           {1.0, 3.0, 1.0}, em::Band::k28GHz, std::nullopt});
  }

  std::unique_ptr<Orchestrator> make_orchestrator() {
    OrchestratorContext context;
    context.environment = &world.environment();
    context.ap = {{0.3, 0.3, 2.5}, nullptr};
    context.default_band = em::Band::k28GHz;
    context.budget = {10.0, em::band_bandwidth(em::Band::k28GHz), 7.0};
    context.channel_options.tracer.max_reflection_order = 0;
    OrchestratorOptions options;
    options.policy = SchedulePolicy::kSpatialPartition;
    auto orchestrator =
        std::make_unique<Orchestrator>(&registry, &clock, context, options);
    orchestrator->enhance_link({"east-client", 10.0, 50.0});
    orchestrator->enhance_link({"north-client", 10.0, 50.0});
    return orchestrator;
  }
};

TEST(OrchestratorTest, MotionKeepsUntouchedPlansAndReplansTouchedOnes) {
  MotionFixture moving;
  MotionFixture reference;
  auto orchestrator = moving.make_orchestrator();
  auto earlier = reference.make_orchestrator();
  for (Orchestrator* o : {orchestrator.get(), earlier.get()}) {
    EXPECT_EQ(o->step().trace.plans_fresh, 2u);
    EXPECT_EQ(o->step().trace.plans_reused, 2u);
  }

  // 1.41 s at 1 m/s puts the walker at x = 0.79, across the AP's direct
  // path to the north client (and clear of the AP -> north panel path,
  // which passes above it), far from the east plan's legs.
  const hal::Micros now = 1410 * hal::kMicrosPerMilli;
  ASSERT_TRUE(moving.world.advance_to(now));
  ASSERT_TRUE(reference.world.advance_to(now));
  ASSERT_NEAR(moving.world.blocker_position("walker").x, 0.79, 1e-9);

  const std::size_t east_frames = moving.east_driver->frames_applied();
  const StepReport report = orchestrator->step();
  EXPECT_EQ(report.trace.plans_reused, 1u);  // east: no evaluation
  EXPECT_EQ(report.trace.plans_fresh, 1u);   // north: re-planned
  EXPECT_EQ(report.optimizations_run, 1u);
  EXPECT_GT(report.trace.objective_evaluations, 1u);  // a genuine re-plan
  EXPECT_EQ(moving.east_driver->frames_applied(), east_frames);  // no HAL I/O

  // The re-planned north plan realizes what a brand-new orchestrator
  // builds at the new position from the same stored configuration.
  auto fresh = reference.make_orchestrator();
  EXPECT_EQ(fresh->step().trace.plans_fresh, 2u);
  const auto moved_north = orchestrator->last_realized("north");
  const auto fresh_north = fresh->last_realized("north");
  ASSERT_TRUE(moved_north.has_value());
  ASSERT_TRUE(fresh_north.has_value());
  EXPECT_EQ(*moved_north, *fresh_north);
}

TEST(OrchestratorTest, UnknownEndpointFailsTask) {
  OrchestratorFixture fx;
  const TaskId id = fx.orchestrator->enhance_link({"ghost", 15.0, 50.0});
  fx.orchestrator->step();
  EXPECT_EQ(fx.orchestrator->find_task(id)->state, TaskState::kFailed);
}

TEST(OrchestratorTest, SensingTaskProducesAccuracy) {
  OrchestratorFixture fx;
  SensingGoal goal;
  goal.region_id = "room";
  goal.region = geom::SampleGrid(0.8, 2.8, 0.5, 2.5, 1.0, 3, 3);
  goal.target_accuracy_m = 0.8;
  const TaskId id = fx.orchestrator->enable_sensing(goal);
  fx.orchestrator->step();
  const Task* task = fx.orchestrator->find_task(id);
  ASSERT_TRUE(task->achieved.has_value());
  EXPECT_LT(*task->achieved, 0.8);  // median error within target
  EXPECT_TRUE(task->goal_met);
}

TEST(OrchestratorTest, SensingIsMeasuredAtTheConfiguredBins) {
  OrchestratorOptions options;
  options.sensing_bins = 21;
  OrchestratorFixture fx(SchedulePolicy::kPriorityJoint, options);
  SensingGoal goal;
  goal.region_id = "room";
  goal.region = geom::SampleGrid(0.8, 2.8, 0.5, 2.5, 1.0, 3, 3);
  goal.target_accuracy_m = 0.8;
  const TaskId id = fx.orchestrator->enable_sensing(goal);
  fx.orchestrator->step();
  const Task* task = fx.orchestrator->find_task(id);
  ASSERT_TRUE(task->achieved.has_value());

  // The plan's channel, rebuilt from the same scene, probes and hardware.
  const sim::SceneChannel channel(
      fx.scene.environment.get(), em::band_center(fx.scene.band),
      fx.scene.ap(), std::vector<const surface::SurfacePanel*>{&fx.panel},
      goal.region.points());
  const std::vector<surface::SurfaceConfig> configs{
      *fx.orchestrator->last_realized("wall")};
  std::vector<std::size_t> rx(goal.region.size());
  for (std::size_t j = 0; j < rx.size(); ++j) rx[j] = j;
  const auto coefficients = channel.coefficients_for(configs);
  const double at_21 =
      sensing_metrics(channel, coefficients, 0, rx, 21).median_error_m;
  const double at_121 =
      sensing_metrics(channel, coefficients, 0, rx, 121).median_error_m;
  ASSERT_NE(at_21, at_121);  // the scan resolution shows in this scene
  EXPECT_EQ(*task->achieved, at_21);
}

TEST(OrchestratorTest, DurationTasksExpire) {
  OrchestratorFixture fx;
  PowerGoal goal;
  goal.endpoint_id = "laptop";
  goal.duration_s = 0.001;  // 1 ms
  const TaskId id = fx.orchestrator->init_powering(goal);
  fx.orchestrator->step();
  EXPECT_TRUE(fx.orchestrator->find_task(id)->active());
  fx.clock.advance(2000);
  fx.orchestrator->step();
  EXPECT_EQ(fx.orchestrator->find_task(id)->state, TaskState::kCompleted);
}

TEST(OrchestratorTest, CancelledTaskLeavesSchedule) {
  OrchestratorFixture fx;
  const TaskId id = fx.orchestrator->enhance_link({"laptop", 15.0, 50.0});
  fx.orchestrator->step();
  fx.orchestrator->cancel_task(id);
  EXPECT_EQ(fx.orchestrator->find_task(id), nullptr);  // erased, not parked
  const StepReport report = fx.orchestrator->step();
  EXPECT_EQ(report.assignment_count, 0u);
}

TEST(OrchestratorTest, JointCoverageAndSensingBothMeasured) {
  OrchestratorFixture fx;
  CoverageGoal coverage;
  coverage.region_id = "room";
  coverage.region = geom::SampleGrid(0.8, 2.8, 0.5, 2.5, 1.0, 3, 3);
  coverage.target_median_snr_db = 5.0;
  SensingGoal sensing;
  sensing.region_id = "room";
  sensing.region = coverage.region;
  sensing.target_accuracy_m = 1.0;
  const TaskId c_id = fx.orchestrator->optimize_coverage(coverage);
  const TaskId s_id = fx.orchestrator->enable_sensing(sensing);
  const StepReport report = fx.orchestrator->step();
  EXPECT_EQ(report.assignment_count, 1u);  // joint multiplexing
  EXPECT_TRUE(fx.orchestrator->find_task(c_id)->achieved.has_value());
  EXPECT_TRUE(fx.orchestrator->find_task(s_id)->achieved.has_value());
}

TEST(OrchestratorTest, TdmPolicyCreatesPerTaskAssignments) {
  OrchestratorFixture fx(SchedulePolicy::kRoundRobinTdm);
  fx.registry.add_endpoint({"phone", hal::EndpointKind::kClient,
                            {2.6, 1.5, 1.0}, fx.scene.band, std::nullopt});
  fx.orchestrator->enhance_link({"laptop", 10.0, 50.0});
  fx.orchestrator->enhance_link({"phone", 10.0, 50.0});
  const StepReport report = fx.orchestrator->step();
  EXPECT_EQ(report.assignment_count, 2u);
}

TEST(OrchestratorTest, SetOptimizerInvalidatesPlansAndStillServes) {
  OrchestratorFixture fx;
  const TaskId id = fx.orchestrator->enhance_link({"laptop", 15.0, 50.0});
  fx.orchestrator->step();
  EXPECT_THROW(fx.orchestrator->set_optimizer(nullptr), std::invalid_argument);
  // Swapping the algorithm re-optimizes the cached plan (warm-started from
  // the hardware's current configuration, so quality never regresses).
  fx.orchestrator->set_optimizer(std::make_unique<opt::Adam>());
  const StepReport report = fx.orchestrator->step();
  EXPECT_EQ(report.optimizations_run, 1u);
  EXPECT_TRUE(fx.orchestrator->find_task(id)->goal_met);
  EXPECT_EQ(fx.orchestrator->optimizer().name(), "adam");
}

TEST(OrchestratorTest, AlwaysReoptimizeOptionForcesWork) {
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
  registry.add_surface(std::make_unique<hal::ProgrammableSurfaceDriver>(
      "wall", &panel, hal::spec_for_panel(panel, scene.band), &clock));
  registry.add_endpoint({"laptop", hal::EndpointKind::kClient,
                         {1.2, 2.4, 1.0}, scene.band, std::nullopt});
  OrchestratorContext context;
  context.environment = scene.environment.get();
  context.ap = scene.ap();
  context.default_band = scene.band;
  context.budget = scene.budget;
  OrchestratorOptions options;
  options.always_reoptimize = true;
  Orchestrator orchestrator(&registry, &clock, context, options);
  orchestrator.enhance_link({"laptop", 10.0, 50.0});
  orchestrator.step();
  const StepReport second = orchestrator.step();
  EXPECT_EQ(second.optimizations_run, 1u);  // no caching in this mode
}

TEST(OrchestratorTest, PriorityWeightsShiftJointOutcome) {
  // Two contending links at opposite room corners sharing one joint config:
  // whichever holds the higher priority must get the better SNR.
  const auto run = [](Priority laptop_priority, Priority phone_priority) {
    OrchestratorFixture fx;
    fx.registry.add_endpoint({"phone", hal::EndpointKind::kClient,
                              {2.6, 0.6, 1.0}, fx.scene.band, std::nullopt});
    const TaskId laptop =
        fx.orchestrator->enhance_link({"laptop", 30.0, 50.0}, laptop_priority);
    const TaskId phone =
        fx.orchestrator->enhance_link({"phone", 30.0, 50.0}, phone_priority);
    fx.orchestrator->step();
    return std::make_pair(
        fx.orchestrator->find_task(laptop)->achieved.value_or(-300),
        fx.orchestrator->find_task(phone)->achieved.value_or(-300));
  };
  const auto [laptop_hi, phone_lo] = run(kPriorityCritical, kPriorityBackground);
  const auto [laptop_lo, phone_hi] = run(kPriorityBackground, kPriorityCritical);
  // Raising a task's priority must not worsen it, and the favored task ends
  // up at least as good as its rival in each configuration.
  EXPECT_GE(laptop_hi + 1e-6, laptop_lo);
  EXPECT_GE(phone_hi + 1e-6, phone_lo);
}

TEST(OrchestratorTest, FrequencyDivisionAcrossBands) {
  // Two surfaces tuned to different bands; two link tasks, one per band.
  // The scheduler must produce one independent slice per band, each using
  // only that band's surface (FDM).
  OrchestratorFixture fx;  // provides the 28 GHz "wall" surface
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(em::band_center(em::Band::k24GHz)) / 2.0;
  const surface::SurfacePanel panel24(
      "wall24", geom::Frame({1.5, 3.42, 1.8}, {0.0, -1.0, 0.0}), 10, 10, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
  fx.registry.add_surface(std::make_unique<hal::ProgrammableSurfaceDriver>(
      "wall24", &panel24, hal::spec_for_panel(panel24, em::Band::k24GHz),
      &fx.clock));
  fx.registry.add_endpoint({"iot-hub", hal::EndpointKind::kClient,
                            {2.0, 1.0, 1.0}, em::Band::k24GHz, std::nullopt});

  const TaskId t28 = fx.orchestrator->enhance_link({"laptop", 10.0, 50.0});
  const TaskId t24 = fx.orchestrator->enhance_link(
      {"iot-hub", 5.0, 100.0}, kPriorityNormal, em::Band::k24GHz);
  const StepReport report = fx.orchestrator->step();
  EXPECT_EQ(report.assignment_count, 2u);  // one slice per band
  EXPECT_EQ(fx.orchestrator->find_task(t28)->band, em::Band::k28GHz);
  EXPECT_EQ(fx.orchestrator->find_task(t24)->band, em::Band::k24GHz);
  // Both tasks were actually served (per-band surfaces were capable).
  EXPECT_TRUE(fx.orchestrator->find_task(t28)->achieved.has_value());
  EXPECT_TRUE(fx.orchestrator->find_task(t24)->achieved.has_value());
  EXPECT_TRUE(report.starved.empty());
}

TEST(OrchestratorTest, TaskOnUnservedBandStarves) {
  OrchestratorFixture fx;
  const TaskId id = fx.orchestrator->enhance_link(
      {"laptop", 10.0, 50.0}, kPriorityNormal, em::Band::k60GHz);
  const StepReport report = fx.orchestrator->step();
  ASSERT_EQ(report.starved.size(), 1u);
  EXPECT_EQ(report.starved[0], id);
  EXPECT_EQ(fx.orchestrator->find_task(id)->state, TaskState::kFailed);
}

TEST(OrchestratorTest, LastRealizedReflectsHardware) {
  OrchestratorFixture fx;
  fx.orchestrator->enhance_link({"laptop", 15.0, 50.0});
  fx.orchestrator->step();
  const auto config = fx.orchestrator->last_realized("wall");
  ASSERT_TRUE(config.has_value());
  // Hardware holds a non-trivial configuration now.
  const surface::SurfaceConfig zero(config->size());
  EXPECT_GT(config->max_phase_delta(zero), 0.1);
}


// --- Plan measure reuse ----------------------------------------------------------
// A kept plan re-uses the TaskReports of its last measure until its task set,
// its channel, its optimum or a stored slot of its devices changes. The
// number of real measures is the orch.step.measure span count.

class PlanMeasureTest : public ::testing::Test {
 protected:
  static std::uint64_t measures() {
    return telemetry::MetricsRegistry::instance()
        .histogram("orch.step.measure")
        .count();
  }
};

void expect_same_reports(const std::vector<TaskReport>& a,
                         const std::vector<TaskReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << i;
    EXPECT_EQ(a[i].type, b[i].type) << i;
    EXPECT_EQ(a[i].state, b[i].state) << i;
    EXPECT_EQ(a[i].achieved, b[i].achieved) << i;
    EXPECT_EQ(a[i].goal_met, b[i].goal_met) << i;
  }
}

/// A link and a coverage task sharing the wall: one joint assignment.
void add_link_and_coverage(Orchestrator& orchestrator) {
  orchestrator.enhance_link({"laptop", 15.0, 50.0});
  CoverageGoal coverage;
  coverage.region_id = "room";
  coverage.region = geom::SampleGrid(0.8, 2.8, 0.5, 2.5, 1.0, 3, 3);
  coverage.target_median_snr_db = 5.0;
  orchestrator.optimize_coverage(coverage);
}

/// Rewrites `slot` of a programmable driver outside the step and waits the
/// write out, as a direct write_config from an operator tool would.
void write_outside_step(OrchestratorFixture& fx, std::uint16_t slot,
                        const surface::SurfaceConfig& config) {
  hal::SurfaceDriver* driver = fx.registry.find_surface("wall");
  ASSERT_EQ(driver->write_config(slot, config), hal::DriverStatus::kOk);
  fx.clock.advance(driver->spec().control_delay_us + 1);
  fx.registry.poll_all();
}

TEST_F(PlanMeasureTest, KeptPlanIsMeasuredOnceAcrossQuietSteps) {
  OrchestratorFixture fx;
  add_link_and_coverage(*fx.orchestrator);
  const std::uint64_t before = measures();
  const StepReport first = fx.orchestrator->step();
  ASSERT_EQ(first.assignment_count, 1u);
  ASSERT_EQ(first.tasks.size(), 2u);
  EXPECT_EQ(measures(), before + 1);

  StepReport last;
  for (int i = 0; i < 5; ++i) {
    last = fx.orchestrator->step();
    EXPECT_EQ(last.trace.plans_reused, 1u);
    EXPECT_EQ(last.trace.measure_us, 0.0);
  }
  EXPECT_EQ(measures(), before + 1);  // the quiet steps measured nothing
  expect_same_reports(last.tasks, first.tasks);
  for (const TaskReport& report : last.tasks) {
    const Task* task = fx.orchestrator->find_task(report.id);
    ASSERT_NE(task, nullptr);
    EXPECT_EQ(task->achieved, report.achieved);
    EXPECT_EQ(task->goal_met, report.goal_met);
  }

  // A fresh orchestrator built the same way measures what the kept reports
  // say.
  OrchestratorFixture reference;
  add_link_and_coverage(*reference.orchestrator);
  expect_same_reports(reference.orchestrator->step().tasks, last.tasks);
}

TEST_F(PlanMeasureTest, DirectWriteOutsideTheStepTriggersRemeasure) {
  OrchestratorFixture fx;
  fx.orchestrator->enhance_link({"laptop", 15.0, 50.0});
  const StepReport first = fx.orchestrator->step();
  ASSERT_EQ(first.tasks.size(), 1u);
  fx.orchestrator->step();
  const hal::SurfaceDriver& driver = *fx.registry.find_surface("wall");
  const std::uint16_t slot = driver.active_slot();
  const surface::SurfaceConfig optimized = driver.stored_config(slot);

  // Zero the slot behind the orchestrator's back: the kept plan must read
  // the hardware again and see the loss.
  std::uint64_t count = measures();
  write_outside_step(fx, slot, surface::SurfaceConfig(optimized.size()));
  const StepReport zeroed = fx.orchestrator->step();
  EXPECT_EQ(measures(), count + 1);
  EXPECT_EQ(zeroed.optimizations_run, 0u);  // kept, not re-planned
  ASSERT_EQ(zeroed.tasks.size(), 1u);
  ASSERT_TRUE(zeroed.tasks[0].achieved.has_value());
  EXPECT_LT(*zeroed.tasks[0].achieved, *first.tasks[0].achieved - 1.0);

  // Writing the optimum back restores the first measurement exactly, and
  // the next quiet step measures nothing.
  count = measures();
  write_outside_step(fx, slot, optimized);
  expect_same_reports(fx.orchestrator->step().tasks, first.tasks);
  EXPECT_EQ(measures(), count + 1);
  expect_same_reports(fx.orchestrator->step().tasks, first.tasks);
  EXPECT_EQ(measures(), count + 1);
}

TEST_F(PlanMeasureTest, ArqDelayedCompletionTriggersRemeasure) {
  // The epoch's first config write is lost on the forward link, so the
  // step measures the unprogrammed wall. The ARQ retransmission lands in a
  // later poll_all, outside any step; the next step must measure it.
  hal::ReliableOptions arq;
  arq.forward.loss_probability = 0.5;
  arq.forward.seed = 9;
  OrchestratorFixture fx(SchedulePolicy::kPriorityJoint, {}, &arq);
  fx.orchestrator->enhance_link({"laptop", 15.0, 50.0});
  const auto& driver = static_cast<const hal::ReliableSurfaceDriver&>(
      *fx.registry.find_surface("wall"));
  const StepReport lost = fx.orchestrator->step();
  ASSERT_EQ(driver.link().delivered_count(), 0u) << "first write not lost";
  ASSERT_EQ(lost.tasks.size(), 1u);
  fx.orchestrator->step();  // kept: nothing moved yet

  const std::uint64_t count = measures();
  for (int i = 0; i < 50 && driver.link().unacked_count() > 0; ++i) {
    fx.clock.advance(arq.rto_us);
    fx.registry.poll_all();
  }
  ASSERT_EQ(driver.link().unacked_count(), 0u);
  ASSERT_GT(driver.link().retransmission_count(), 0u);
  const StepReport applied = fx.orchestrator->step();
  EXPECT_EQ(applied.optimizations_run, 0u);
  EXPECT_EQ(measures(), count + 1);

  // The wall now holds the optimum a clean link delivers in one step.
  OrchestratorFixture clean;
  clean.orchestrator->enhance_link({"laptop", 15.0, 50.0});
  expect_same_reports(applied.tasks, clean.orchestrator->step().tasks);
  EXPECT_NE(applied.tasks[0].achieved, lost.tasks[0].achieved);
}

TEST_F(PlanMeasureTest, LostWriteLandsThroughStepsAlone) {
  // The same lost first write, but nothing outside the step polls the
  // links: each step drains them itself, so the ARQ retransmission lands
  // and the kept plan re-measures the programmed wall.
  hal::ReliableOptions arq;
  arq.forward.loss_probability = 0.5;
  arq.forward.seed = 9;
  OrchestratorFixture fx(SchedulePolicy::kPriorityJoint, {}, &arq);
  fx.orchestrator->enhance_link({"laptop", 15.0, 50.0});
  const auto& driver = static_cast<const hal::ReliableSurfaceDriver&>(
      *fx.registry.find_surface("wall"));
  const StepReport lost = fx.orchestrator->step();
  ASSERT_EQ(driver.link().delivered_count(), 0u) << "first write not lost";
  ASSERT_EQ(lost.tasks.size(), 1u);

  const std::uint64_t count = measures();
  StepReport applied;
  for (int i = 0; i < 50 && driver.link().unacked_count() > 0; ++i) {
    fx.clock.advance(arq.rto_us);
    applied = fx.orchestrator->step();
    EXPECT_EQ(applied.optimizations_run, 0u);
  }
  ASSERT_EQ(driver.link().unacked_count(), 0u);
  ASSERT_GT(driver.link().retransmission_count(), 0u);
  EXPECT_EQ(measures(), count + 1);

  OrchestratorFixture clean;
  clean.orchestrator->enhance_link({"laptop", 15.0, 50.0});
  expect_same_reports(applied.tasks, clean.orchestrator->step().tasks);
  EXPECT_NE(applied.tasks[0].achieved, lost.tasks[0].achieved);
}

TEST_F(PlanMeasureTest, CancelOrEscalationInsideAKeptAssignmentRemeasures) {
  OrchestratorFixture fx;
  fx.registry.add_endpoint({"phone", hal::EndpointKind::kClient,
                            {2.6, 1.5, 1.0}, fx.scene.band, std::nullopt});
  const TaskId laptop = fx.orchestrator->enhance_link({"laptop", 10.0, 50.0});
  const TaskId phone = fx.orchestrator->enhance_link({"phone", 10.0, 50.0});
  fx.orchestrator->step();
  ASSERT_EQ(fx.orchestrator->step().trace.plans_reused, 1u);

  // Cancel: the task vector shrinks, the plan is rebased and re-measured.
  std::uint64_t count = measures();
  fx.orchestrator->cancel_task(phone);
  const StepReport cancelled = fx.orchestrator->step();
  EXPECT_EQ(measures(), count + 1);
  ASSERT_EQ(cancelled.tasks.size(), 1u);
  EXPECT_EQ(cancelled.tasks[0].id, laptop);

  // Escalation, as the broker does it: cancel and re-admit the same goal
  // at a higher priority under a new task id.
  fx.orchestrator->step();
  count = measures();
  fx.orchestrator->cancel_task(laptop);
  const TaskId escalated = fx.orchestrator->enhance_link(
      {"laptop", 10.0, 50.0}, kPriorityCritical);
  const StepReport after = fx.orchestrator->step();
  EXPECT_EQ(measures(), count + 1);
  ASSERT_EQ(after.tasks.size(), 1u);
  EXPECT_EQ(after.tasks[0].id, escalated);
  EXPECT_TRUE(after.tasks[0].achieved.has_value());
}

TEST_F(PlanMeasureTest, SnapshotRestoreThenEpochRemeasures) {
  using daemon::make_request;
  using daemon::temp_path;
  using daemon::test_options;
  const auto submit = [](const std::string& app, const std::string& endpoint) {
    return proto::to_wire(daemon::SubmitRequest{
        app, {},
        broker::demand_profile(broker::AppClass::kVrGaming, endpoint), {}});
  };
  const std::string snapshot_path = temp_path("measure", ".snap");
  {
    daemon::Daemon source(test_options(temp_path("src"), snapshot_path));
    (void)source.handle_request(make_request(proto::MsgType::kSubmitDemand, 1,
                                             submit("vr", "headset")));
    source.run_epoch();
    ASSERT_EQ(source.handle_request(make_request(proto::MsgType::kSnapshot, 2))
                  .type,
              proto::MsgType::kOk);
  }

  // The target already serves another app, so it holds a kept plan when
  // the snapshot's session joins it.
  daemon::Daemon target(test_options(temp_path("dst"), snapshot_path));
  (void)target.handle_request(make_request(proto::MsgType::kSubmitDemand, 1,
                                           submit("stream", "tv")));
  for (int i = 0; i < 3; ++i) target.run_epoch();
  ASSERT_TRUE(target.load_snapshot().ok());
  const std::uint64_t count = measures();
  target.run_epoch();
  FleetReport restored;
  ASSERT_TRUE(proto::from_wire(target.last_report_wire(), restored).ok());
  EXPECT_GE(measures(), count + 1);
  std::size_t reports = 0;
  for (const SiteReport& site : restored.sites) {
    for (const TaskReport& report : site.step.tasks) {
      EXPECT_TRUE(report.achieved.has_value()) << report.id;
      ++reports;
    }
  }
  EXPECT_GT(reports, 0u);

  // From here on an epoch that builds no plan and writes no config
  // measures nothing; the walker's motion may still rebase some plans.
  std::size_t quiet_epochs = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t before = measures();
    target.run_epoch();
    FleetReport report;
    ASSERT_TRUE(proto::from_wire(target.last_report_wire(), report).ok());
    if (report.trace.plans_fresh == 0 && report.trace.config_writes == 0) {
      EXPECT_EQ(measures(), before) << "epoch " << i;
      ++quiet_epochs;
    }
  }
  EXPECT_GT(quiet_epochs, 0u);
  std::remove(snapshot_path.c_str());
}

}  // namespace
}  // namespace surfos::orch
