// Determinism contract of the parallel execution engine: channel
// precompute, power maps, heatmaps, analytic and finite-difference
// gradients, and population optimizers must be bit-identical under
// SURFOS_THREADS=1 (pure serial loops) and a heavily threaded pool.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "telemetry/telemetry.hpp"

#include "em/propagation.hpp"
#include "opt/objective.hpp"
#include "opt/optimizer.hpp"
#include "orch/objectives.hpp"
#include "orch/variables.hpp"
#include "sim/channel.hpp"
#include "sim/floorplan.hpp"
#include "sim/heatmap.hpp"
#include "sim/precompute_store.hpp"
#include "surface/panel.hpp"
#include "util/thread_pool.hpp"

namespace surfos {
namespace {

constexpr std::size_t kThreadedDegree = 8;

/// A small two-panel coverage room so every parallel loop (RX points, panel
/// pairs, cascades, gradients) has real work.
struct Scene {
  sim::CoverageRoomScenario scenario;
  std::unique_ptr<surface::SurfacePanel> panel_a;
  std::unique_ptr<surface::SurfacePanel> panel_b;
  std::vector<const surface::SurfacePanel*> panels;

  Scene() : scenario(sim::make_coverage_room(/*grid_n=*/6)) {
    surface::ElementDesign design;
    design.spacing_m =
        em::wavelength(em::band_center(scenario.band)) / 2.0;
    design.insertion_loss_db = 1.0;
    panel_a = std::make_unique<surface::SurfacePanel>(
        "det-a", scenario.surface_pose, 6, 6, design,
        surface::OperationMode::kReflective,
        surface::Reconfigurability::kPassive,
        surface::ControlGranularity::kElement);
    const geom::Frame pose_b(
        scenario.surface_pose.origin() + geom::Vec3{0.9, 0.4, 0.0},
        scenario.surface_pose.normal() + geom::Vec3{0.2, 0.1, 0.0});
    panel_b = std::make_unique<surface::SurfacePanel>(
        "det-b", pose_b, 5, 5, design, surface::OperationMode::kReflective,
        surface::Reconfigurability::kPassive,
        surface::ControlGranularity::kElement);
    panels = {panel_a.get(), panel_b.get()};
  }

  std::unique_ptr<sim::SceneChannel> make_channel() const {
    return std::make_unique<sim::SceneChannel>(
        scenario.environment.get(), em::band_center(scenario.band),
        scenario.ap(), panels, scenario.room_grid.points());
  }

  std::vector<surface::SurfaceConfig> focus_configs() const {
    const geom::Vec3 target =
        scenario.room_grid.point(scenario.room_grid.size() / 2);
    const double f = em::band_center(scenario.band);
    return {panel_a->focus_config(scenario.ap_position, target, f),
            panel_b->focus_config(scenario.ap_position, target, f)};
  }
};

TEST(ParallelDeterminism, PrecomputeAndPowerMapBitIdentical) {
  const Scene scene;
  const auto configs = scene.focus_configs();

  // Without the clears, the threaded channel would adopt the serial
  // channel's artifacts from the store and the comparison below would test
  // pointer equality, not recomputation. Force both to genuinely precompute.
  sim::PrecomputeStore::instance().clear();
  util::reset_global_pool(1);
  const auto serial_channel = scene.make_channel();
  const auto serial_power = serial_channel->power_map(configs);

  sim::PrecomputeStore::instance().clear();
  util::reset_global_pool(kThreadedDegree);
  const auto threaded_channel = scene.make_channel();
  ASSERT_NE(&serial_channel->tx_planes(0), &threaded_channel->tx_planes(0));
  const auto threaded_power = threaded_channel->power_map(configs);

  ASSERT_EQ(serial_power.size(), threaded_power.size());
  for (std::size_t j = 0; j < serial_power.size(); ++j) {
    EXPECT_EQ(serial_power[j], threaded_power[j]) << "rx " << j;
  }
  // Precomputed structure itself is slot-deterministic too.
  for (std::size_t p = 0; p < serial_channel->panel_count(); ++p) {
    const em::CxPlanes& fa = serial_channel->tx_planes(p);
    const em::CxPlanes& fb = threaded_channel->tx_planes(p);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t e = 0; e < fa.size(); ++e) {
      EXPECT_EQ(fa.at(e), fb.at(e)) << "panel " << p;
    }
    for (std::size_t q = 0; q < serial_channel->panel_count(); ++q) {
      const em::CxPlaneMat& a = serial_channel->cascade_planes(q, p);
      const em::CxPlaneMat& b = threaded_channel->cascade_planes(q, p);
      ASSERT_EQ(a.rows(), b.rows());
      ASSERT_EQ(a.cols(), b.cols());
      for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t c = 0; c < a.cols(); ++c) {
          EXPECT_EQ(a.at(r, c), b.at(r, c)) << q << "<-" << p;
        }
      }
    }
  }
  for (std::size_t j = 0; j < serial_channel->rx_count(); ++j) {
    EXPECT_EQ(serial_channel->direct(j), threaded_channel->direct(j));
  }
  util::reset_global_pool(1);
}

TEST(ParallelDeterminism, RssHeatmapBitIdentical) {
  const Scene scene;
  const auto configs = scene.focus_configs();

  util::reset_global_pool(1);
  auto channel = scene.make_channel();
  const auto serial = sim::rss_heatmap(*channel, scene.scenario.room_grid,
                                       scene.scenario.budget, configs);

  util::reset_global_pool(kThreadedDegree);
  const auto threaded = sim::rss_heatmap(*channel, scene.scenario.room_grid,
                                         scene.scenario.budget, configs);
  EXPECT_EQ(serial.values, threaded.values);

  // map_over_grid with a pure function of the index.
  const auto grid_serial = [&] {
    util::reset_global_pool(1);
    return sim::map_over_grid(scene.scenario.room_grid, [](std::size_t i) {
      return std::sin(static_cast<double>(i) * 0.137);
    });
  }();
  const auto grid_threaded = [&] {
    util::reset_global_pool(kThreadedDegree);
    return sim::map_over_grid(scene.scenario.room_grid, [](std::size_t i) {
      return std::sin(static_cast<double>(i) * 0.137);
    });
  }();
  EXPECT_EQ(grid_serial.values, grid_threaded.values);
  util::reset_global_pool(1);
}

TEST(ParallelDeterminism, AnalyticGradientBitIdentical) {
  const Scene scene;
  const auto channel = scene.make_channel();
  const orch::PanelVariables variables(scene.panels);
  std::vector<std::size_t> rx(channel->rx_count());
  for (std::size_t i = 0; i < rx.size(); ++i) rx[i] = i;
  const orch::CapacityObjective objective(channel.get(), &variables, rx,
                                          scene.scenario.budget.snr(1.0));
  ASSERT_TRUE(objective.thread_safe());

  std::vector<double> x(variables.dimension());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.3 * std::sin(static_cast<double>(i));
  }

  util::reset_global_pool(1);
  std::vector<double> g_serial(x.size());
  const double v_serial = objective.value_and_gradient(x, g_serial);
  const double value_serial = objective.value(x);

  util::reset_global_pool(kThreadedDegree);
  std::vector<double> g_threaded(x.size());
  const double v_threaded = objective.value_and_gradient(x, g_threaded);
  const double value_threaded = objective.value(x);

  EXPECT_EQ(v_serial, v_threaded);
  EXPECT_EQ(value_serial, value_threaded);
  EXPECT_EQ(g_serial, g_threaded);
  util::reset_global_pool(1);
}

TEST(ParallelDeterminism, FiniteDifferenceGradientBitIdentical) {
  const opt::FunctionObjective objective(
      12,
      [](std::span<const double> x) {
        double sum = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
          sum += std::cos(x[i] + 0.1 * static_cast<double>(i)) +
                 0.05 * x[i] * x[i];
        }
        return sum;
      },
      /*thread_safe=*/true);
  std::vector<double> x(12);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.2 * static_cast<double>(i);

  util::reset_global_pool(1);
  std::vector<double> g_serial(x.size());
  const double v_serial = objective.value_and_gradient(x, g_serial);

  util::reset_global_pool(kThreadedDegree);
  std::vector<double> g_threaded(x.size());
  const double v_threaded = objective.value_and_gradient(x, g_threaded);

  EXPECT_EQ(v_serial, v_threaded);
  EXPECT_EQ(g_serial, g_threaded);
  util::reset_global_pool(1);
}

TEST(ParallelDeterminism, BatchOptimizersBitIdentical) {
  const opt::FunctionObjective objective(
      6,
      [](std::span<const double> x) {
        double sum = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
          sum += (1.0 - std::cos(x[i])) + 0.01 * x[i] * x[i];
        }
        return sum;
      },
      /*thread_safe=*/true);
  const std::vector<double> x0(6, 1.2);

  auto run_all = [&] {
    struct Out {
      opt::OptimizeResult cma, rs, sa;
    } out;
    opt::CmaEsOptions cma;
    cma.max_evaluations = 2000;
    out.cma = opt::CmaEs(cma).minimize(objective, x0);
    opt::RandomSearchOptions rs;
    rs.max_evaluations = 2000;
    out.rs = opt::RandomSearch(rs).minimize(objective, x0);
    opt::AnnealingOptions sa;
    sa.max_evaluations = 2000;
    out.sa = opt::SimulatedAnnealing(sa).minimize(objective, x0);
    return out;
  };

  util::reset_global_pool(1);
  const auto serial = run_all();
  util::reset_global_pool(kThreadedDegree);
  const auto threaded = run_all();

  EXPECT_EQ(serial.cma.x, threaded.cma.x);
  EXPECT_EQ(serial.cma.value, threaded.cma.value);
  EXPECT_EQ(serial.rs.x, threaded.rs.x);
  EXPECT_EQ(serial.rs.value, threaded.rs.value);
  EXPECT_EQ(serial.sa.x, threaded.sa.x);
  EXPECT_EQ(serial.sa.value, threaded.sa.value);
  EXPECT_EQ(serial.cma.evaluations, threaded.cma.evaluations);
  EXPECT_EQ(serial.rs.evaluations, threaded.rs.evaluations);
  EXPECT_EQ(serial.sa.evaluations, threaded.sa.evaluations);
  util::reset_global_pool(1);
}

TEST(ParallelDeterminism, SpanDepthRestoredAfterParallelForException) {
  telemetry::set_trace_enabled(true);
  util::reset_global_pool(kThreadedDegree);
  const telemetry::TraceContext root = telemetry::current_trace();
  {
    const telemetry::TraceScope scope(
        {telemetry::make_trace_id(7, 1), 0});
    telemetry::TraceSpan outer("test.par.outer");
    const telemetry::TraceContext ambient = telemetry::current_trace();
    ASSERT_EQ(ambient.span_id, outer.context().span_id);
    // Worker-side traced spans unwind with the exception; the pool rethrows
    // the lowest-index chunk's error on the submitting thread, whose
    // ambient context must be the one it had before the loop.
    EXPECT_THROW(util::parallel_for(0, 64,
                                    [](std::size_t i) {
                                      telemetry::TraceSpan inner(
                                          "test.par.inner");
                                      if (i % 16 == 1) {
                                        throw std::runtime_error("boom");
                                      }
                                    }),
                 std::runtime_error);
    EXPECT_EQ(telemetry::current_trace().trace_id, ambient.trace_id);
    EXPECT_EQ(telemetry::current_trace().span_id, ambient.span_id);
  }
  EXPECT_EQ(telemetry::current_trace().trace_id, root.trace_id);
  EXPECT_EQ(telemetry::current_trace().span_id, root.span_id);
  telemetry::set_trace_enabled(false);
  util::reset_global_pool(1);
}

TEST(ParallelDeterminism, SpanHistogramCountsThreadCountInvariant) {
  auto& registry = telemetry::MetricsRegistry::instance();
  const auto span_count = [&registry](const char* name) -> std::uint64_t {
    for (const auto& hist : registry.snapshot().histograms) {
      if (hist.name == name) return hist.count;
    }
    return 0;
  };
  const auto run = [](std::size_t threads) {
    util::reset_global_pool(threads);
    util::parallel_for(0, 100, [](std::size_t) {
      telemetry::TraceSpan span("test.par.count_span");
    });
  };

  registry.reset();
  run(1);
  const std::uint64_t serial = span_count("test.par.count_span");

  registry.reset();
  run(kThreadedDegree);
  const std::uint64_t threaded = span_count("test.par.count_span");

  EXPECT_EQ(serial, 100u);   // one histogram record per logical iteration
  EXPECT_EQ(serial, threaded);
  util::reset_global_pool(1);
  registry.reset();
}

TEST(HeatmapRegression, EmptyMapStatsThrowInsteadOfUb) {
  const sim::Heatmap empty{geom::SampleGrid{0.0, 1.0, 0.0, 1.0, 0.0, 1, 1},
                           {}};
  EXPECT_THROW(empty.min_value(), std::logic_error);
  EXPECT_THROW(empty.max_value(), std::logic_error);
}

}  // namespace
}  // namespace surfos
