// Vectorized dense channel kernel: scalar backend versus the best SIMD
// backend available on this host, single-threaded (the SIMD win must not
// hide behind thread-pool scaling). The precompute store is cleared before
// each timed construction, so the precompute row times a cold fill, not a
// store hit.
//
// Sections on a Fig-5-sized scene (3.5 m room, 20x20 element-wise surface,
// 14x14 RX grid): SceneChannel construction (precompute), power_map, and
// evaluate_with_partials across every RX.
//
// Emits BENCH_simd.json:
//   ./bench_simd [output.json]
#include <chrono>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_meta.hpp"
#include "em/soa.hpp"
#include "sim/channel.hpp"
#include "sim/floorplan.hpp"
#include "sim/precompute_store.hpp"
#include "surface/panel.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

using namespace surfos;
namespace simd = util::simd;

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

/// Best wall time of `reps` runs of `work`; `prepare` runs untimed before
/// each one.
template <typename Work, typename Prepare = void (*)()>
double best_of(int reps, Work&& work, Prepare&& prepare = [] {}) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    prepare();
    const auto start = std::chrono::steady_clock::now();
    work();
    const double elapsed = ms_since(start);
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

struct Section {
  std::string name;
  double scalar_ms = 0.0;
  double vector_ms = 0.0;
  double speedup() const {
    return vector_ms > 0.0 ? scalar_ms / vector_ms : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_simd.json";

  // Single-threaded: the comparison is kernel vs kernel.
  util::reset_global_pool(1);

  const simd::Backend best = simd::ops().backend;
  if (best == simd::Backend::kScalar) {
    std::printf("no SIMD backend available (or SURFOS_SIMD=scalar); "
                "nothing to compare\n");
    return 0;
  }

  std::printf("=== Dense channel kernel: scalar vs %s ===\n",
              simd::backend_name(best));

  const Fig5Scene scene;
  const auto configs = std::vector<surface::SurfaceConfig>{
      scene.panel->focus_config(
          scene.scenario.ap_position,
          scene.scenario.room_grid.point(scene.scenario.room_grid.size() / 2),
          em::band_center(scene.scenario.band))};

  std::vector<Section> sections{{"precompute"}, {"power_map"},
                                {"evaluate_with_partials"}};
  for (const bool vectorized : {false, true}) {
    if (!simd::set_backend(vectorized ? best : simd::Backend::kScalar)) {
      std::fprintf(stderr, "cannot select backend\n");
      return 1;
    }
    const auto pick = [&](Section& s) -> double& {
      return vectorized ? s.vector_ms : s.scalar_ms;
    };

    pick(sections[0]) = best_of(
        3, [&] { const auto channel = scene.make_channel(); },
        [] { sim::PrecomputeStore::instance().clear(); });

    const auto channel = scene.make_channel();
    pick(sections[1]) = best_of(5, [&] {
      for (int i = 0; i < 20; ++i) {
        const auto power = channel->power_map(configs);
        if (power.empty()) std::abort();
      }
    });

    const auto coeffs = channel->coefficients_for(configs);
    pick(sections[2]) = best_of(5, [&] {
      std::vector<em::CxPlanes> dh;
      em::Cx h{};
      for (std::size_t j = 0; j < channel->rx_count(); ++j) {
        channel->evaluate_with_partials(j, coeffs, h, dh);
      }
      if (h == em::Cx{} && channel->rx_count() > 0) std::abort();
    });
  }
  simd::reset_backend();

  std::printf("\n%-24s %12s %12s %9s\n", "section", "scalar_ms", "vector_ms",
              "speedup");
  for (const auto& s : sections) {
    std::printf("%-24s %12.3f %12.3f %8.2fx\n", s.name.c_str(), s.scalar_ms,
                s.vector_ms, s.speedup());
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"simd\",\n";
  bench::write_meta(out);
  out << "  \"scene\": \"fig5_room_grid14_panel20x20\",\n";
  out << "  \"backend\": \"" << simd::backend_name(best) << "\",\n";
  out << "  \"threads\": 1,\n";
  out << "  \"sections\": [\n";
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const auto& s = sections[i];
    out << "    {\"name\": \"" << s.name << "\", \"scalar_ms\": " << s.scalar_ms
        << ", \"vector_ms\": " << s.vector_ms
        << ", \"speedup\": " << s.speedup() << "}"
        << (i + 1 < sections.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
