// Digest memoization (SURFOS_EVAL_CACHE): memo hits must be byte-identical
// to recomputation, the knob must take effect on every memo built after a
// set-knob, and the optimizer and orchestrator must produce byte-identical
// results with the memo on (default) and off (SURFOS_EVAL_CACHE=0).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "em/propagation.hpp"
#include "opt/objective.hpp"
#include "opt/optimizer.hpp"
#include "orch/objectives.hpp"
#include "orch/orchestrator.hpp"
#include "orch/variables.hpp"
#include "sim/channel.hpp"
#include "sim/floorplan.hpp"
#include "sim/digest_memo.hpp"
#include "surface/panel.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"

namespace surfos {
namespace {

/// Runs a test body in daemon mode (a knob snapshot captured from the
/// environment) and restores library mode afterwards.
struct ConfigGuard {
  ConfigGuard() { core::install_config(core::Config::from_env()); }
  ~ConfigGuard() { core::clear_config(); }

  /// Memos built from here on use `entries` (0 = memoization off).
  static void set_eval_cache(std::size_t entries) {
    ASSERT_TRUE(core::set_config_knob("SURFOS_EVAL_CACHE", entries).ok());
  }
};

/// Two-panel coverage room with cascades: panel A element-controlled, panel
/// B column-controlled.
struct Scene {
  sim::CoverageRoomScenario scenario;
  std::unique_ptr<surface::SurfacePanel> panel_a;
  std::unique_ptr<surface::SurfacePanel> panel_b;
  std::vector<const surface::SurfacePanel*> panels;

  Scene() : scenario(sim::make_coverage_room(/*grid_n=*/5)) {
    surface::ElementDesign design;
    design.spacing_m = em::wavelength(em::band_center(scenario.band)) / 2.0;
    design.insertion_loss_db = 1.0;
    panel_a = std::make_unique<surface::SurfacePanel>(
        "memo-a", scenario.surface_pose, 6, 6, design,
        surface::OperationMode::kReflective,
        surface::Reconfigurability::kPassive,
        surface::ControlGranularity::kElement);
    const geom::Frame pose_b(
        scenario.surface_pose.origin() + geom::Vec3{0.9, 0.4, 0.0},
        scenario.surface_pose.normal() + geom::Vec3{0.2, 0.1, 0.0});
    panel_b = std::make_unique<surface::SurfacePanel>(
        "memo-b", pose_b, 5, 5, design, surface::OperationMode::kReflective,
        surface::Reconfigurability::kPassive,
        surface::ControlGranularity::kColumn);
    panels = {panel_a.get(), panel_b.get()};
  }

  std::unique_ptr<sim::SceneChannel> make_channel() const {
    sim::ChannelOptions options;
    options.include_surface_cascades = true;
    return std::make_unique<sim::SceneChannel>(
        scenario.environment.get(), em::band_center(scenario.band),
        scenario.ap(), panels, scenario.room_grid.points(), nullptr, options);
  }
};

// --- Digests ------------------------------------------------------------------

TEST(Digest, DistinctStableAndOrderSensitive) {
  const std::vector<double> a{0.1, 0.2, 0.3};
  const std::vector<double> b{0.1, 0.2, 0.30000000001};
  const std::vector<double> a_swapped{0.2, 0.1, 0.3};
  EXPECT_TRUE(util::digest_values(a) == util::digest_values(a));
  EXPECT_FALSE(util::digest_values(a) == util::digest_values(b));
  EXPECT_FALSE(util::digest_values(a) == util::digest_values(a_swapped));
  // +0.0 and -0.0 hash by bit pattern, so they are distinct keys.
  const std::vector<double> pz{0.0};
  const std::vector<double> nz{-0.0};
  EXPECT_FALSE(util::digest_values(pz) == util::digest_values(nz));

  const std::vector<std::size_t> i1{1, 2, 3};
  const std::vector<std::size_t> i2{1, 2, 4};
  EXPECT_FALSE(util::digest_indices(i1) == util::digest_indices(i2));
  const auto c1 = util::combine(util::digest_values(a), util::digest_indices(i1));
  const auto c2 = util::combine(util::digest_values(a), util::digest_indices(i2));
  EXPECT_FALSE(c1 == c2);
}

TEST(DigestMemoTest, StoreLookupAndFifoEviction) {
  sim::DigestMemo memo(/*capacity=*/2);
  const auto k1 = util::digest_values(std::vector<double>{1.0});
  const auto k2 = util::digest_values(std::vector<double>{2.0});
  const auto k3 = util::digest_values(std::vector<double>{3.0});
  memo.store(k1, 11.0);
  memo.store(k2, std::vector<double>{22.0, 23.0});
  double scalar = 0.0;
  std::vector<double> vec;
  EXPECT_TRUE(memo.lookup(k1, scalar));
  EXPECT_EQ(scalar, 11.0);
  EXPECT_TRUE(memo.lookup(k2, vec));
  EXPECT_EQ(vec, (std::vector<double>{22.0, 23.0}));
  memo.store(k3, 33.0);  // evicts k1 (FIFO)
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_FALSE(memo.lookup(k1, scalar));
  EXPECT_TRUE(memo.lookup(k3, scalar));
  const auto stats = memo.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_GE(stats.hits, 3u);
  EXPECT_GE(stats.misses, 1u);
}

TEST(DigestMemoTest, ZeroCapacityDisablesStorage) {
  sim::DigestMemo memo(0);
  const auto k = util::digest_values(std::vector<double>{1.0});
  memo.store(k, 1.0);
  double out = 0.0;
  EXPECT_FALSE(memo.lookup(k, out));
  EXPECT_EQ(memo.size(), 0u);
}

TEST(DigestMemoTest, SetKnobTakesEffectOnNextMemo) {
  // SURFOS_EVAL_CACHE is a construction-time knob: a set-knob must reach
  // every memo built afterwards, not only the first one ever built.
  ConfigGuard guard;
  ConfigGuard::set_eval_cache(64);
  EXPECT_EQ(sim::DigestMemo().capacity(), 64u);
  ConfigGuard::set_eval_cache(0);
  EXPECT_EQ(sim::DigestMemo().capacity(), 0u);
  ConfigGuard::set_eval_cache(5);
  EXPECT_EQ(sim::DigestMemo().capacity(), 5u);
}

// --- power_map / powers_at memoization ---------------------------------------

TEST(PowerMapMemo, RepeatedSweepIsByteIdenticalAndHits) {
  ConfigGuard guard;
  ConfigGuard::set_eval_cache(64);
  const Scene scene;
  const auto channel = scene.make_channel();
  const geom::Vec3 target =
      scene.scenario.room_grid.point(scene.scenario.room_grid.size() / 2);
  const double f = em::band_center(scene.scenario.band);
  const std::vector<surface::SurfaceConfig> configs{
      scene.panel_a->focus_config(scene.scenario.ap_position, target, f),
      scene.panel_b->focus_config(scene.scenario.ap_position, target, f)};

  const auto first = channel->power_map(configs);
  const auto hits_before = channel->power_memo().stats().hits;
  const auto second = channel->power_map(configs);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t j = 0; j < first.size(); ++j) {
    EXPECT_EQ(first[j], second[j]) << "rx " << j;
  }
  EXPECT_GT(channel->power_memo().stats().hits, hits_before);

  // A subset sweep keys on (config, indices) and must not alias the full map.
  const std::vector<std::size_t> subset{0, 2, 4};
  const auto powers = channel->powers_at(subset, configs);
  ASSERT_EQ(powers.size(), 3u);
  EXPECT_EQ(powers[0], first[0]);
  EXPECT_EQ(powers[1], first[2]);
  EXPECT_EQ(powers[2], first[4]);
}

TEST(PowerMapMemo, DisabledSwitchMatchesDense) {
  ConfigGuard guard;
  ConfigGuard::set_eval_cache(64);
  const Scene scene;
  const geom::Vec3 target = scene.scenario.room_grid.point(0);
  const double f = em::band_center(scene.scenario.band);
  const std::vector<surface::SurfaceConfig> configs{
      scene.panel_a->focus_config(scene.scenario.ap_position, target, f),
      scene.panel_b->focus_config(scene.scenario.ap_position, target, f)};

  // Memoized: the second sweep is a hit on the default channel.
  const auto memo_channel = scene.make_channel();
  (void)memo_channel->power_map(configs);
  const auto memoized = memo_channel->power_map(configs);
  EXPECT_GT(memo_channel->power_memo().stats().hits, 0u);
  ConfigGuard::set_eval_cache(0);
  const auto dense_channel = scene.make_channel();
  EXPECT_EQ(dense_channel->power_memo().capacity(), 0u);
  const auto dense = dense_channel->power_map(configs);
  ASSERT_EQ(memoized.size(), dense.size());
  for (std::size_t j = 0; j < dense.size(); ++j) {
    EXPECT_EQ(memoized[j], dense[j]) << "rx " << j;
  }
}

// --- Objective memoization ---------------------------------------------------

struct ObjectiveScene {
  Scene scene;
  std::unique_ptr<sim::SceneChannel> channel = scene.make_channel();
  orch::PanelVariables vars{scene.panels};
  std::vector<std::size_t> rx{0, 3, 6, 9, 12};

  std::vector<double> random_x(std::uint64_t seed) const {
    util::Rng rng(seed);
    std::vector<double> x(vars.dimension());
    for (auto& v : x) v = rng.uniform() * 6.28318;
    return x;
  }
};

TEST(ObjectiveDelta, MemoizedValueIsByteIdentical) {
  ConfigGuard guard;
  ConfigGuard::set_eval_cache(64);
  const ObjectiveScene fx;
  const orch::CapacityObjective capacity(fx.channel.get(), &fx.vars, fx.rx,
                                         /*rho=*/1e9);
  const auto x = fx.random_x(37);
  const double first = capacity.value(x);
  const auto hits_before = capacity.memo().stats().hits;
  const double second = capacity.value(x);
  EXPECT_EQ(first, second);
  EXPECT_GT(capacity.memo().stats().hits, hits_before);

  // And the memoized value equals a memo-less evaluation bitwise: hits
  // return stored results, which were computed by the same dense sweep.
  ConfigGuard::set_eval_cache(0);
  const orch::CapacityObjective dense(fx.channel.get(), &fx.vars, fx.rx,
                                      /*rho=*/1e9);
  EXPECT_EQ(dense.memo().capacity(), 0u);
  EXPECT_EQ(dense.value(x), first);
}

// --- WeightedSum regression ---------------------------------------------------

TEST(WeightedSum, MixedThreadSafetyAndDeltaEquivalence) {
  const std::size_t n = 6;
  const opt::FunctionObjective quad(
      n,
      [](std::span<const double> x) {
        double s = 0.0;
        for (const double v : x) s += (v - 0.3) * (v - 0.3);
        return s;
      },
      /*thread_safe=*/true);
  const opt::FunctionObjective quartic(
      n,
      [](std::span<const double> x) {
        double s = 0.0;
        for (const double v : x) s += v * v * v * v;
        return s;
      },
      /*thread_safe=*/false);
  opt::WeightedSumObjective joint;
  joint.add_term(&quad, 2.0);
  joint.add_term(&quartic, 0.5);
  // One non-thread-safe term must force the sum serial.
  EXPECT_FALSE(joint.thread_safe());

  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = 0.1 * static_cast<double>(i + 1);
  const double base = joint.value(x);
  EXPECT_EQ(base, 2.0 * quad.value(x) + 0.5 * quartic.value(x));

  // value_and_gradient sums each term's value and gradient exactly once.
  std::vector<double> g(n), g_quad(n), g_quartic(n);
  EXPECT_EQ(joint.value_and_gradient(x, g), base);
  quad.value_and_gradient(x, g_quad);
  quartic.value_and_gradient(x, g_quartic);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(g[i], 2.0 * g_quad[i] + 0.5 * g_quartic[i]) << "coord " << i;
  }
}

// --- Optimizer equivalence ----------------------------------------------------

TEST(OptimizerEquivalence, AnnealingValueConsistentWithDenseRecompute) {
  ConfigGuard guard;
  ConfigGuard::set_eval_cache(64);
  const ObjectiveScene fx;
  const orch::CapacityObjective capacity(fx.channel.get(), &fx.vars, fx.rx,
                                         /*rho=*/1e9);
  opt::AnnealingOptions options;
  options.max_evaluations = 300;
  const opt::SimulatedAnnealing annealer(options);
  const auto x0 = fx.random_x(41);
  const double initial = capacity.value(x0);
  const auto result = annealer.minimize(capacity, x0);
  EXPECT_LE(result.value, initial);
  // Every value the annealer saw was a dense evaluation or a memo hit of
  // one, so the reported best equals a memo-less re-evaluation bitwise.
  ConfigGuard::set_eval_cache(0);
  const orch::CapacityObjective dense(fx.channel.get(), &fx.vars, fx.rx,
                                      /*rho=*/1e9);
  EXPECT_EQ(result.value, dense.value(result.x));
}

TEST(OptimizerEquivalence, AnnealingBitIdenticalOnDefaultDeltaPath) {
  // An objective without a memo: the annealer's trajectory must not depend
  // on the knob at all.
  ConfigGuard guard;
  const std::size_t n = 8;
  const opt::FunctionObjective quad(
      n,
      [](std::span<const double> x) {
        double s = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
          s += (x[i] - 0.1 * static_cast<double>(i)) *
               (x[i] - 0.1 * static_cast<double>(i));
        }
        return s;
      },
      /*thread_safe=*/true);
  opt::AnnealingOptions options;
  options.max_evaluations = 500;
  const opt::SimulatedAnnealing annealer(options);
  const std::vector<double> x0(n, 1.0);

  const auto on = annealer.minimize(quad, x0);
  ConfigGuard::set_eval_cache(0);
  const auto off = annealer.minimize(quad, x0);
  EXPECT_EQ(on.value, off.value);
  EXPECT_EQ(on.evaluations, off.evaluations);
  ASSERT_EQ(on.x.size(), off.x.size());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(on.x[i], off.x[i]);
}

TEST(OptimizerEquivalence, GradientDescentTrajectoryIdenticalAcrossModes) {
  ConfigGuard guard;
  const ObjectiveScene fx;
  opt::GradientDescentOptions options;
  options.max_iterations = 10;
  const opt::GradientDescent descent(options);
  const auto x0 = fx.random_x(43);

  // The default pipeline (analytic gradients + digest memoization) must be
  // byte-identical with the memo off: memo hits return stored dense values.
  std::vector<opt::OptimizeResult> results;
  for (const std::size_t entries : {64u, 0u}) {
    ConfigGuard::set_eval_cache(entries);
    const orch::CapacityObjective capacity(fx.channel.get(), &fx.vars, fx.rx,
                                           /*rho=*/1e9);
    results.push_back(descent.minimize(capacity, x0));
  }
  const auto& on = results[0];
  const auto& off = results[1];
  EXPECT_EQ(on.value, off.value);
  EXPECT_EQ(on.evaluations, off.evaluations);
  ASSERT_EQ(on.x.size(), off.x.size());
  for (std::size_t i = 0; i < on.x.size(); ++i) EXPECT_EQ(on.x[i], off.x[i]);
}

// --- Orchestrator end-to-end equivalence -------------------------------------

struct OrchestratorFixture {
  sim::CoverageRoomScenario scene = sim::make_coverage_room(5);
  hal::SimClock clock;
  hal::DeviceRegistry registry;
  surface::SurfacePanel panel;
  std::unique_ptr<orch::Orchestrator> orchestrator;

  OrchestratorFixture()
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
    registry.add_surface(std::make_unique<hal::ProgrammableSurfaceDriver>(
        "wall", &panel, spec, &clock));
    registry.add_endpoint({"laptop", hal::EndpointKind::kClient,
                           {1.2, 2.4, 1.0}, scene.band, std::nullopt});
    orch::OrchestratorContext context;
    context.environment = scene.environment.get();
    context.ap = scene.ap();
    context.default_band = scene.band;
    context.budget = scene.budget;
    orchestrator = std::make_unique<orch::Orchestrator>(
        &registry, &clock, context, orch::OrchestratorOptions{});
  }
};

TEST(OrchestratorEquivalence, StepReportsByteIdenticalAcrossModes) {
  ConfigGuard guard;
  std::vector<orch::StepReport> reports;
  for (const std::size_t entries : {0u, 64u}) {
    ConfigGuard::set_eval_cache(entries);
    OrchestratorFixture fx;
    fx.orchestrator->enhance_link({"laptop", 15.0, 50.0});
    fx.orchestrator->step();                       // optimize + actuate
    reports.push_back(fx.orchestrator->step());    // steady-state measure
  }
  const auto& off = reports[0];
  const auto& on = reports[1];
  ASSERT_EQ(off.tasks.size(), on.tasks.size());
  for (std::size_t t = 0; t < off.tasks.size(); ++t) {
    EXPECT_EQ(off.tasks[t].state, on.tasks[t].state);
    EXPECT_EQ(off.tasks[t].goal_met, on.tasks[t].goal_met);
    ASSERT_EQ(off.tasks[t].achieved.has_value(), on.tasks[t].achieved.has_value());
    if (off.tasks[t].achieved.has_value()) {
      // Byte-identical achieved metrics: memoized values are stored dense
      // results, never approximations.
      EXPECT_EQ(*off.tasks[t].achieved, *on.tasks[t].achieved);
    }
  }
}

}  // namespace
}  // namespace surfos
