// Ablation B — control granularity and phase quantization (paper 2.1: high
// frequency hardware "often only support[s] column-wise reconfiguration
// (shared element states per column) rather than element-wise"; elements
// quantize phases to a few bits).
//
// Same coverage task, same 20x20 aperture; sweep granularity {element,
// column, row, global} x phase bits {continuous, 3, 2, 1}. The element-wise
// continuous cell is the upper bound; each restriction costs dB.
#include <cstdio>
#include <iostream>

#include "opt/optimizer.hpp"
#include "orch/objectives.hpp"
#include "orch/perf.hpp"
#include "orch/variables.hpp"
#include "sim/channel.hpp"
#include "sim/floorplan.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace surfos;

namespace {

double run_case(const sim::CoverageRoomScenario& scene,
                surface::ControlGranularity granularity, int phase_bits) {
  const double freq = em::band_center(scene.band);
  surface::ElementDesign design;
  design.spacing_m = em::wavelength(freq) / 2.0;
  design.insertion_loss_db = 1.0;
  design.phase_bits = phase_bits;
  const surface::SurfacePanel panel(
      "p", scene.surface_pose, 20, 20, design,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable, granularity);
  const sim::SceneChannel channel(
      scene.environment.get(), freq, scene.ap(),
      std::vector<const surface::SurfacePanel*>{&panel},
      scene.room_grid.points());
  const orch::PanelVariables vars({&panel});
  std::vector<std::size_t> all_rx(channel.rx_count());
  for (std::size_t i = 0; i < all_rx.size(); ++i) all_rx[i] = i;
  const orch::CapacityObjective coverage(&channel, &vars, all_rx,
                                         scene.budget.snr(1.0));
  const auto x0 = vars.from_configs(std::vector<surface::SurfaceConfig>{
      panel.focus_config(scene.ap_position,
                         scene.room_grid.point(all_rx.size() / 2), freq)});
  opt::GradientDescentOptions options;
  options.max_iterations = 250;
  const auto result = opt::GradientDescent(options).minimize(coverage, x0);
  // Metrics go through realize(): granularity projection + quantization.
  const auto metrics = orch::coverage_metrics(
      channel, scene.budget, channel.coefficients_for(vars.realize(result.x)),
      all_rx);
  return metrics.median_snr_db;
}

}  // namespace

int main() {
  std::printf(
      "=== Ablation: control granularity x phase quantization ===\n");
  std::printf("Coverage task, 20x20 surface, 3.5 m room, 28 GHz. Cells are\n"
              "the achieved median SNR (dB) of the hardware-realizable\n"
              "configuration.\n\n");

  const sim::CoverageRoomScenario scene = sim::make_coverage_room(10);

  const std::vector<std::pair<surface::ControlGranularity, const char*>>
      granularities{{surface::ControlGranularity::kElement, "element-wise"},
                    {surface::ControlGranularity::kColumn, "column-wise"},
                    {surface::ControlGranularity::kRow, "row-wise"},
                    {surface::ControlGranularity::kGlobal, "global"}};
  const std::vector<std::pair<int, const char*>> quantizations{
      {0, "continuous"}, {3, "3-bit"}, {2, "2-bit"}, {1, "1-bit"}};

  util::Table table({"Granularity", "continuous", "3-bit", "2-bit", "1-bit"});
  for (const auto& [granularity, g_name] : granularities) {
    std::vector<std::string> row{g_name};
    for (const auto& [bits, q_name] : quantizations) {
      row.push_back(util::format("%.1f", run_case(scene, granularity, bits)));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::printf(
      "\nExpected shape: element-wise/continuous is the ceiling; 2-bit\n"
      "quantization costs ~1 dB (classic result); column/row-wise control\n"
      "loses several dB because one dimension of focusing is surrendered —\n"
      "the trade high-frequency hardware makes to stay affordable (Table 1:\n"
      "mmWall, NR-Surface, Scrolls).\n");
  return 0;
}
