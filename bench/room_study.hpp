// Shared machinery for the Figure 2 / Figure 5 benches: the 3.5 m coverage
// room with one element-wise phase surface, plus the three optimized
// configurations the paper compares (coverage-only, localization-only, and
// joint multitasking over a single shared configuration).
#pragma once

#include <memory>
#include <vector>

#include "opt/optimizer.hpp"
#include "orch/objectives.hpp"
#include "orch/perf.hpp"
#include "orch/variables.hpp"
#include "sim/channel.hpp"
#include "sim/floorplan.hpp"

namespace surfos::bench {

struct RoomStudy {
  sim::CoverageRoomScenario scene;
  std::unique_ptr<surface::SurfacePanel> panel;
  std::unique_ptr<sim::SceneChannel> channel;
  std::unique_ptr<orch::PanelVariables> variables;
  std::vector<std::size_t> all_rx;

  RoomStudy(std::size_t grid_n, std::size_t panel_n)
      : scene(sim::make_coverage_room(grid_n)) {
    surface::ElementDesign design;
    design.spacing_m = em::wavelength(em::band_center(scene.band)) / 2.0;
    design.insertion_loss_db = 1.0;
    panel = std::make_unique<surface::SurfacePanel>(
        "room-surface", scene.surface_pose, panel_n, panel_n, design,
        surface::OperationMode::kReflective,
        surface::Reconfigurability::kPassive,  // Fig 5 uses a passive surface
        surface::ControlGranularity::kElement);
    channel = std::make_unique<sim::SceneChannel>(
        scene.environment.get(), em::band_center(scene.band), scene.ap(),
        std::vector<const surface::SurfacePanel*>{panel.get()},
        scene.room_grid.points());
    variables = std::make_unique<orch::PanelVariables>(
        std::vector<const surface::SurfacePanel*>{panel.get()});
    all_rx.resize(channel->rx_count());
    for (std::size_t i = 0; i < all_rx.size(); ++i) all_rx[i] = i;
  }

  double rho() const { return scene.budget.snr(1.0); }

  /// Focus-at-room-center initialization (shared by all three optimizations
  /// so differences come from the objective, not the starting point).
  std::vector<double> init() const {
    const auto center = scene.room_grid.point(scene.room_grid.size() / 2);
    return variables->from_configs(std::vector<surface::SurfaceConfig>{
        panel->focus_config(scene.ap_position, center,
                            em::band_center(scene.band))});
  }

  std::vector<surface::SurfaceConfig> optimize_coverage_only() const {
    const orch::CapacityObjective coverage(channel.get(), variables.get(),
                                           all_rx, rho());
    return variables->realize(run(coverage));
  }

  std::vector<surface::SurfaceConfig> optimize_localization_only() const {
    const orch::LocalizationObjective localization(channel.get(),
                                                   variables.get(), 0, all_rx);
    return variables->realize(run(localization));
  }

  std::vector<surface::SurfaceConfig> optimize_joint(
      double coverage_weight = 1.0, double localization_weight = 1.0) const {
    const orch::CapacityObjective coverage(channel.get(), variables.get(),
                                           all_rx, rho());
    const orch::LocalizationObjective localization(channel.get(),
                                                   variables.get(), 0, all_rx);
    opt::WeightedSumObjective joint;
    joint.add_term(&coverage, coverage_weight);
    joint.add_term(&localization, localization_weight);
    return variables->realize(run(joint));
  }

  orch::CoverageMetrics coverage_metrics_of(
      const std::vector<surface::SurfaceConfig>& configs) const {
    return orch::coverage_metrics(*channel, scene.budget,
                                  channel->coefficients_for(configs), all_rx);
  }

  orch::SensingMetrics sensing_metrics_of(
      const std::vector<surface::SurfaceConfig>& configs) const {
    return orch::sensing_metrics(*channel, channel->coefficients_for(configs), 0,
                                 all_rx);
  }

 private:
  std::vector<double> run(const opt::Objective& objective) const {
    opt::GradientDescentOptions options;
    options.max_iterations = 400;
    options.tolerance = 1e-7;
    return opt::GradientDescent(options).minimize(objective, init()).x;
  }
};

}  // namespace surfos::bench
