// Parallel execution engine scaling: serial (SURFOS_THREADS=1 semantics)
// versus thread-pool timings for the three dominant hot paths on a
// Fig-5-sized scene (3.5 m room, 20x20 element-wise surface, 14x14 RX
// grid): SceneChannel::precompute, power_map, and objective gradients.
// The precompute store is cleared before each timed construction, so the
// precompute row times a cold fill, not a store hit.
//
// Emits BENCH_parallel.json so later PRs can track the perf trajectory:
//   ./bench_parallel_scaling [threads] [output.json]
// `threads` defaults to SURFOS_THREADS / hardware concurrency.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_meta.hpp"
#include "opt/objective.hpp"
#include "orch/objectives.hpp"
#include "orch/variables.hpp"
#include "sim/channel.hpp"
#include "sim/floorplan.hpp"
#include "sim/precompute_store.hpp"
#include "surface/panel.hpp"
#include "util/thread_pool.hpp"

using namespace surfos;

namespace {

struct Fig5Scene {
  sim::CoverageRoomScenario scenario;
  std::unique_ptr<surface::SurfacePanel> panel;
  std::vector<const surface::SurfacePanel*> panels;

  Fig5Scene() : scenario(sim::make_coverage_room(/*grid_n=*/14)) {
    surface::ElementDesign design;
    design.spacing_m = em::wavelength(em::band_center(scenario.band)) / 2.0;
    design.insertion_loss_db = 1.0;
    panel = std::make_unique<surface::SurfacePanel>(
        "bench-surface", scenario.surface_pose, 20, 20, design,
        surface::OperationMode::kReflective,
        surface::Reconfigurability::kPassive,
        surface::ControlGranularity::kElement);
    panels = {panel.get()};
  }

  std::unique_ptr<sim::SceneChannel> make_channel() const {
    return std::make_unique<sim::SceneChannel>(
        scenario.environment.get(), em::band_center(scenario.band),
        scenario.ap(), panels, scenario.room_grid.points());
  }
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Section {
  std::string name;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  double speedup() const {
    return parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  }
};

/// Runs `work` under a serial pool and under an n-thread pool; returns both
/// wall times (best of `reps` runs each, to shed scheduler noise).
/// `prepare` runs untimed before each run.
template <typename Work, typename Prepare = void (*)()>
Section measure(const std::string& name, std::size_t threads, int reps,
                Work&& work, Prepare&& prepare = [] {}) {
  Section section;
  section.name = name;
  for (const bool parallel : {false, true}) {
    util::reset_global_pool(parallel ? threads : 1);
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
      prepare();
      const auto start = std::chrono::steady_clock::now();
      work();
      const double elapsed = ms_since(start);
      if (r == 0 || elapsed < best) best = elapsed;
    }
    (parallel ? section.parallel_ms : section.serial_ms) = best;
  }
  return section;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads =
      argc > 1 ? static_cast<std::size_t>(std::stoul(argv[1]))
               : util::ThreadPool().thread_count();
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_parallel.json";
  const unsigned hw = std::thread::hardware_concurrency();
  // A "speedup" measured with one worker (or on one hardware core) is just
  // pool overhead: an earlier BENCH_parallel.json recorded ~1.0x claims
  // taken on a single-core runner as if they were scaling numbers. Refuse
  // to make the claim unless both the pool and the hardware can parallelize.
  const bool speedup_meaningful = threads > 1 && hw > 1;

  std::printf("=== Parallel execution engine scaling (fig-5-sized scene) ===\n");
  std::printf("threads: %zu, hardware_concurrency: %u\n", threads, hw);
  if (!speedup_meaningful) {
    std::printf(
        "WARNING: %s -- timings are recorded but speedup claims are "
        "suppressed (null in the JSON)\n",
        hw <= 1 ? "single hardware core detected"
                : "running with a single worker thread");
  }

  const Fig5Scene scene;
  const auto configs = std::vector<surface::SurfaceConfig>{
      scene.panel->focus_config(
          scene.scenario.ap_position,
          scene.scenario.room_grid.point(scene.scenario.room_grid.size() / 2),
          em::band_center(scene.scenario.band))};

  std::vector<Section> sections;

  sections.push_back(measure(
      "precompute", threads, 3,
      [&] { const auto channel = scene.make_channel(); },
      [] { sim::PrecomputeStore::instance().clear(); }));

  const auto channel = scene.make_channel();
  sections.push_back(measure("power_map", threads, 5, [&] {
    for (int i = 0; i < 20; ++i) {
      const auto power = channel->power_map(configs);
      if (power.empty()) std::abort();
    }
  }));

  const orch::PanelVariables variables(scene.panels);
  std::vector<std::size_t> rx(channel->rx_count());
  for (std::size_t i = 0; i < rx.size(); ++i) rx[i] = i;
  const orch::CapacityObjective capacity(channel.get(), &variables, rx,
                                         scene.scenario.budget.snr(1.0));
  std::vector<double> x(variables.dimension());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.5 * std::sin(static_cast<double>(i));
  }
  std::vector<double> gradient(x.size());
  sections.push_back(measure("analytic_gradient", threads, 5, [&] {
    for (int i = 0; i < 3; ++i) capacity.value_and_gradient(x, gradient);
  }));

  // Finite-difference gradient over the capacity loss restricted to a small
  // dimension (2n probes, each a full objective evaluation).
  const opt::FunctionObjective fd(
      x.size(),
      [&](std::span<const double> probe) { return capacity.value(probe); },
      /*thread_safe=*/true);
  std::vector<double> x_small(x.begin(), x.end());
  sections.push_back(measure("fd_gradient_batch", threads, 2, [&] {
    std::vector<std::vector<double>> pop(24, x_small);
    for (std::size_t k = 0; k < pop.size(); ++k) {
      pop[k][k % pop[k].size()] += 0.01 * static_cast<double>(k);
    }
    std::vector<double> values(pop.size());
    fd.value_batch(pop, values);
  }));

  double core_serial = 0.0;
  double core_parallel = 0.0;
  std::printf("\n%-20s %12s %12s %9s\n", "section", "serial_ms", "parallel_ms",
              "speedup");
  for (const auto& s : sections) {
    if (speedup_meaningful) {
      std::printf("%-20s %12.2f %12.2f %8.2fx\n", s.name.c_str(), s.serial_ms,
                  s.parallel_ms, s.speedup());
    } else {
      std::printf("%-20s %12.2f %12.2f %9s\n", s.name.c_str(), s.serial_ms,
                  s.parallel_ms, "n/a");
    }
    if (s.name == "precompute" || s.name == "power_map") {
      core_serial += s.serial_ms;
      core_parallel += s.parallel_ms;
    }
  }
  const double core_speedup =
      core_parallel > 0.0 ? core_serial / core_parallel : 0.0;
  if (speedup_meaningful) {
    std::printf("\nprecompute+power_map speedup: %.2fx at %zu threads\n",
                core_speedup, threads);
  } else {
    std::printf("\nprecompute+power_map speedup: n/a (no parallelism)\n");
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"parallel_scaling\",\n";
  bench::write_meta(out);
  out << "  \"scene\": \"fig5_room_grid14_panel20x20\",\n";
  out << "  \"threads\": " << threads << ",\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"speedup_claims_valid\": " << (speedup_meaningful ? "true" : "false")
      << ",\n";
  out << "  \"sections\": [\n";
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const auto& s = sections[i];
    out << "    {\"name\": \"" << s.name << "\", \"serial_ms\": " << s.serial_ms
        << ", \"parallel_ms\": " << s.parallel_ms << ", \"speedup\": ";
    if (speedup_meaningful) {
      out << s.speedup();
    } else {
      out << "null";
    }
    out << "}" << (i + 1 < sections.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"core_speedup_precompute_power_map\": ";
  if (speedup_meaningful) {
    out << core_speedup;
  } else {
    out << "null";
  }
  out << "\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
