// Figure 4 — "Leveraging hardware heterogeneity": a hybrid passive +
// programmable deployment flexibly balances cost (4b) and size (4c) against
// the achieved median SNR in the target room.
//
// Strategies (all serving the bedroom of the two-room apartment at 28 GHz,
// whose only controlled mmWave ingress is a transmissive "surface window"
// embedded in the interior wall):
//   passive-only      : one NxN passive transmissive surface in the window,
//                       a single fabricated configuration optimized for
//                       whole-room coverage (AutoMS-style).
//   programmable-only : one NxN programmable surface in the same window,
//                       dynamically steering per client location (ideal
//                       per-location codebook).
//   hybrid            : an NxN passive window surface relaying the AP's beam
//                       onto an (N/2)x(N/2) programmable reflective surface
//                       inside the bedroom, which re-steers per location —
//                       the paper's Fig 4a architecture.
//
// For each strategy and size the bench reports median SNR, hardware cost,
// and total aperture area, then inverts the sweep into the paper's "cost /
// size needed to reach a target median SNR" curves.
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>

#include "opt/optimizer.hpp"
#include "orch/objectives.hpp"
#include "orch/perf.hpp"
#include "orch/variables.hpp"
#include "sim/channel.hpp"
#include "sim/floorplan.hpp"
#include "sim/heatmap.hpp"
#include "surface/cost.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace surfos;

namespace {

surface::ElementDesign design_for(double frequency_hz, bool programmable) {
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(frequency_hz) / 2.0;
  d.insertion_loss_db = programmable ? 2.0 : 1.0;
  d.phase_bits = 2;
  return d;
}

struct StrategyResult {
  double median_snr_db = -300.0;
  double cost_usd = 0.0;
  double area_m2 = 0.0;
};

struct Study {
  sim::ApartmentScenario scene = sim::make_apartment(10);
  double freq = em::band_center(scene.band);
  surface::CostModel cost_model;
  std::vector<std::size_t> all_rx;

  Study() {
    all_rx.resize(scene.bedroom_grid.size());
    for (std::size_t i = 0; i < all_rx.size(); ++i) all_rx[i] = i;
  }

  surface::SurfacePanel window_panel(std::size_t n, bool programmable) const {
    return surface::SurfacePanel(
        programmable ? "prog" : "passive", scene.window_mount, n, n,
        design_for(freq, programmable), surface::OperationMode::kTransmissive,
        programmable ? surface::Reconfigurability::kProgrammable
                     : surface::Reconfigurability::kPassive,
        surface::ControlGranularity::kElement);
  }

  surface::SurfacePanel bedroom_panel(std::size_t n) const {
    return surface::SurfacePanel(
        "steer", scene.bedroom_mount, n, n, design_for(freq, true),
        surface::OperationMode::kReflective,
        surface::Reconfigurability::kProgrammable,
        surface::ControlGranularity::kElement);
  }

  /// Median SNR with one fixed coverage-optimized config (passive-only).
  StrategyResult passive_only(std::size_t n) const {
    const surface::SurfacePanel panel = window_panel(n, false);
    const sim::SceneChannel channel(
        scene.environment.get(), freq, scene.ap(), {&panel},
        scene.bedroom_grid.points());
    const orch::PanelVariables vars({&panel});
    const orch::CapacityObjective coverage(&channel, &vars, all_rx,
                                           scene.budget.snr(1.0));
    // Initialize focused at the room center, then optimize the fabricated
    // pattern for whole-room coverage.
    const auto x0 = vars.from_configs(std::vector<surface::SurfaceConfig>{
        panel.focus_config(scene.ap_position,
                           scene.bedroom_grid.point(all_rx.size() / 2),
                           freq)});
    opt::GradientDescentOptions options;
    options.max_iterations = 250;
    const auto result = opt::GradientDescent(options).minimize(coverage, x0);
    const auto metrics = orch::coverage_metrics(
        channel, scene.budget, channel.coefficients_for(vars.realize(result.x)),
        all_rx);
    return {metrics.median_snr_db, cost_model.panel_cost_usd(panel),
            panel.area_m2()};
  }

  /// Median of per-location SNR with ideal per-location steering
  /// (programmable-only).
  StrategyResult programmable_only(std::size_t n) const {
    const surface::SurfacePanel panel = window_panel(n, true);
    const sim::SceneChannel channel(
        scene.environment.get(), freq, scene.ap(), {&panel},
        scene.bedroom_grid.points());
    std::vector<double> snr;
    snr.reserve(all_rx.size());
    for (const std::size_t j : all_rx) {
      const auto config = panel.focus_config(
          scene.ap_position, scene.bedroom_grid.point(j), freq);
      const auto coeffs =
          channel.coefficients_for(std::vector<surface::SurfaceConfig>{config});
      snr.push_back(
          scene.budget.snr_db(std::norm(channel.evaluate(j, coeffs))));
    }
    return {util::median(snr), cost_model.panel_cost_usd(panel),
            panel.area_m2()};
  }

  /// Passive backhaul (focused onto the bedroom surface) + programmable
  /// steering per location (hybrid).
  StrategyResult hybrid(std::size_t n_passive, std::size_t n_prog) const {
    const surface::SurfacePanel backhaul = window_panel(n_passive, false);
    const surface::SurfacePanel steer = bedroom_panel(n_prog);
    const sim::SceneChannel channel(
        scene.environment.get(), freq, scene.ap(), {&backhaul, &steer},
        scene.bedroom_grid.points());
    const auto backhaul_cfg =
        backhaul.focus_config(scene.ap_position, steer.center(), freq);
    std::vector<double> snr;
    snr.reserve(all_rx.size());
    for (const std::size_t j : all_rx) {
      const auto steer_cfg = steer.focus_config(
          backhaul.center(), scene.bedroom_grid.point(j), freq);
      const auto coeffs = channel.coefficients_for(
          std::vector<surface::SurfaceConfig>{backhaul_cfg, steer_cfg});
      snr.push_back(
          scene.budget.snr_db(std::norm(channel.evaluate(j, coeffs))));
    }
    return {util::median(snr),
            cost_model.panel_cost_usd(backhaul) +
                cost_model.panel_cost_usd(steer),
            backhaul.area_m2() + steer.area_m2()};
  }
};

/// Cheapest (by cost or by area) sweep point reaching a target median SNR.
std::optional<StrategyResult> cheapest_reaching(
    const std::vector<StrategyResult>& sweep, double target_snr_db,
    bool by_cost) {
  std::optional<StrategyResult> best;
  for (const auto& r : sweep) {
    if (r.median_snr_db < target_snr_db) continue;
    const double key = by_cost ? r.cost_usd : r.area_m2;
    const double best_key = best ? (by_cost ? best->cost_usd : best->area_m2)
                                 : 0.0;
    if (!best || key < best_key) best = r;
  }
  return best;
}

std::string cell(const std::optional<StrategyResult>& r, bool cost) {
  if (!r) return "unreachable";
  return cost ? util::format("$%.0f", r->cost_usd)
              : util::format("%.3f m^2", r->area_m2);
}

}  // namespace

int main() {
  std::printf(
      "=== Figure 4: hybrid passive+programmable deployment trade-offs ===\n");
  std::printf(
      "Scene: two-room apartment, AP in the living room, target bedroom\n"
      "reachable only through the doorway (28 GHz).\n\n");

  Study study;

  // Baseline: no surfaces at all.
  {
    const sim::SceneChannel direct(study.scene.environment.get(), study.freq,
                                   study.scene.ap(), {},
                                   study.scene.bedroom_grid.points());
    std::vector<double> snr;
    for (std::size_t j = 0; j < direct.rx_count(); ++j) {
      snr.push_back(study.scene.budget.snr_db(std::norm(direct.direct(j))));
    }
    std::printf("No-surface baseline: median SNR %.1f dB "
                "('basically no coverage in the target room')\n\n",
                util::median(snr));
  }

  // Passive hardware is cheap per element, so its sweep extends to large
  // apertures (the paper: passive surfaces "need a much larger hardware
  // area size"); programmable sweeps are bounded by cost; the hybrid scales
  // its steering panel with the backhaul's focused spot size (~N/2).
  const std::vector<std::size_t> passive_sizes{16, 24, 32, 48, 64, 96, 128};
  const std::vector<std::size_t> programmable_sizes{16, 24, 32, 40, 48};
  const std::vector<std::size_t> hybrid_sizes{24, 32, 40, 48, 56, 64};
  std::vector<StrategyResult> passive_sweep, programmable_sweep, hybrid_sweep;

  util::Table sweep_table({"Strategy", "Elements", "Median SNR (dB)",
                           "Cost ($)", "Area (m^2)"});
  for (const std::size_t n : passive_sizes) {
    const auto p = study.passive_only(n);
    passive_sweep.push_back(p);
    sweep_table.add_row({"passive-only", util::format("%zux%zu", n, n),
                         util::format("%.1f", p.median_snr_db),
                         util::format("%.0f", p.cost_usd),
                         util::format("%.4f", p.area_m2)});
  }
  for (const std::size_t n : programmable_sizes) {
    const auto p = study.programmable_only(n);
    programmable_sweep.push_back(p);
    sweep_table.add_row({"programmable-only", util::format("%zux%zu", n, n),
                         util::format("%.1f", p.median_snr_db),
                         util::format("%.0f", p.cost_usd),
                         util::format("%.4f", p.area_m2)});
  }
  for (const std::size_t n : hybrid_sizes) {
    const std::size_t m = n / 2;
    const auto p = study.hybrid(n, m);
    hybrid_sweep.push_back(p);
    sweep_table.add_row(
        {"hybrid", util::format("%zux%zu + %zux%zu", n, n, m, m),
         util::format("%.1f", p.median_snr_db),
         util::format("%.0f", p.cost_usd), util::format("%.4f", p.area_m2)});
  }
  sweep_table.print(std::cout);

  // Fig 4b / 4c inversion: what does each strategy need to reach a target?
  std::printf("\n(b) Hardware cost to reach a target median SNR\n");
  util::Table cost_table({"Target median SNR", "Passive-only",
                          "Programmable-only", "Hybrid"});
  std::printf("(c) Hardware size to reach a target median SNR\n\n");
  util::Table size_table({"Target median SNR", "Passive-only",
                          "Programmable-only", "Hybrid"});
  for (const double target : {10.0, 15.0, 20.0, 25.0}) {
    const std::string label = util::format("%.0f dB", target);
    cost_table.add_row({label,
                        cell(cheapest_reaching(passive_sweep, target, true), true),
                        cell(cheapest_reaching(programmable_sweep, target, true), true),
                        cell(cheapest_reaching(hybrid_sweep, target, true), true)});
    size_table.add_row({label,
                        cell(cheapest_reaching(passive_sweep, target, false), false),
                        cell(cheapest_reaching(programmable_sweep, target, false), false),
                        cell(cheapest_reaching(hybrid_sweep, target, false), false)});
  }
  std::printf("Cost (Fig 4b):\n");
  cost_table.print(std::cout);
  std::printf("\nSize (Fig 4c):\n");
  size_table.print(std::cout);

  std::printf(
      "\nExpected shape (paper): the hybrid needs only a fraction of the\n"
      "programmable-only cost and of the passive-only size for comparable\n"
      "median SNR, by using the passive panel as a narrow-beam backhaul and\n"
      "the small programmable panel for dynamic steering.\n");

  // --- Fig 4a(ii): RSS heatmaps of the bedroom -------------------------------
  std::printf("\n(a.ii) Bedroom RSS heatmaps, shade ramp ' .:-=+*#%%@' over "
              "[-100, -55] dBm\n");
  {
    const auto print_map = [&](const char* label,
                               const std::vector<double>& rss_dbm) {
      sim::Heatmap map{study.scene.bedroom_grid, rss_dbm};
      std::printf("%s (median %.1f dBm):\n%s\n", label, map.median_value(),
                  sim::render_ascii(map, -100.0, -55.0).c_str());
    };
    // No surface.
    {
      const sim::SceneChannel direct(study.scene.environment.get(), study.freq,
                                     study.scene.ap(), {},
                                     study.scene.bedroom_grid.points());
      std::vector<double> rss;
      for (std::size_t j = 0; j < direct.rx_count(); ++j) {
        rss.push_back(study.scene.budget.rss_dbm(std::norm(direct.direct(j))));
      }
      print_map("no surface", rss);
    }
    // Hybrid 48x48 + 24x24, per-location steering (the paper's Fig 4a).
    {
      const surface::SurfacePanel backhaul = study.window_panel(48, false);
      const surface::SurfacePanel steer = study.bedroom_panel(24);
      const sim::SceneChannel channel(study.scene.environment.get(),
                                      study.freq, study.scene.ap(),
                                      {&backhaul, &steer},
                                      study.scene.bedroom_grid.points());
      const auto backhaul_cfg = backhaul.focus_config(
          study.scene.ap_position, steer.center(), study.freq);
      std::vector<double> rss;
      for (const std::size_t j : study.all_rx) {
        const auto steer_cfg = steer.focus_config(
            backhaul.center(), study.scene.bedroom_grid.point(j), study.freq);
        const auto coeffs = channel.coefficients_for(
            std::vector<surface::SurfaceConfig>{backhaul_cfg, steer_cfg});
        rss.push_back(
            study.scene.budget.rss_dbm(std::norm(channel.evaluate(j, coeffs))));
      }
      print_map("hybrid 48x48 passive + 24x24 programmable (dynamic steering)",
                rss);
    }
  }
  return 0;
}
