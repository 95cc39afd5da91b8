// Ablation D — environment dynamics and runtime adaptation (paper Section 5:
// "events such as furniture movement and people walking can require dynamic
// reconfiguration of surface states", and Section 3's endpoint mobility).
//
// A client walks across the 3.5 m room while a second person wanders
// through it. Two strategies serve the client's link:
//   static   : configured once for the client's starting position — what a
//              passive surface is fabricated to, and equally what a
//              programmable surface under a compile-time library does;
//   adaptive : SurfOS re-steers on every environment change.
// The gap between the two is the runtime argument for an OS over an SDK.
#include <cstdio>
#include <iostream>

#include "sim/channel.hpp"
#include "sim/dynamics.hpp"
#include "sim/floorplan.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace surfos;

namespace {

/// Static geometry of the coverage room (mirrors sim::make_coverage_room).
void build_room(sim::Environment& env) {
  constexpr double kH = 3.0;
  env.add_vertical_wall(0.0, 3.5, 3.5, 3.5, 0.0, kH, em::kMatConcrete);
  env.add_vertical_wall(0.0, -1.5, 0.0, 3.5, 0.0, kH, em::kMatConcrete);
  env.add_vertical_wall(3.5, -1.5, 3.5, 3.5, 0.0, kH, em::kMatConcrete);
  env.add_vertical_wall(0.0, -1.5, 3.5, -1.5, 0.0, kH, em::kMatConcrete);
  env.add_vertical_wall(0.0, 0.0, 2.6, 0.0, 0.0, kH, em::kMatConcrete);
  env.add_vertical_wall(3.4, 0.0, 3.5, 0.0, 0.0, kH, em::kMatConcrete);
  env.add_vertical_wall(2.6, 0.0, 3.4, 0.0, 2.1, kH, em::kMatConcrete);
  env.add_horizontal_slab(0.0, 3.5, -1.5, 3.5, 0.0, em::kMatFloor);
  env.add_horizontal_slab(0.0, 3.5, -1.5, 3.5, kH, em::kMatConcrete);
}

}  // namespace

int main() {
  std::printf(
      "=== Ablation: runtime adaptation under environment dynamics ===\n");
  std::printf(
      "A client walks (0.5 m/s) across the room while a bystander wanders;\n"
      "28 GHz, 20x20 surface on the east wall.\n\n");

  const sim::CoverageRoomScenario base = sim::make_coverage_room(4);
  const double freq = em::band_center(base.band);

  em::MaterialDb materials = em::MaterialDb::standard();
  const int body = sim::add_body_material(materials);
  sim::DynamicEnvironment world(materials, build_room);
  sim::MovingBlocker bystander;
  bystander.id = "bystander";
  bystander.waypoints = {{2.8, 0.6, 0}, {2.6, 2.8, 0}};
  bystander.speed_mps = 0.8;
  bystander.material_id = body;
  world.add_blocker(bystander);

  surface::ElementDesign design;
  design.spacing_m = em::wavelength(freq) / 2.0;
  design.insertion_loss_db = 1.0;
  const surface::SurfacePanel panel(
      "east", base.surface_pose, 20, 20, design,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);

  // Client trajectory: along the room's west side, south to north.
  const auto client_at = [](double t_s) {
    return geom::Vec3{0.8 + 0.05 * t_s, 0.6 + 0.25 * t_s, 1.0};
  };

  // Static strategy: configured once for the client's t=0 position.
  const surface::SurfaceConfig fabricated =
      panel.focus_config(base.ap_position, client_at(0.0), freq);

  util::Table table({"t (s)", "client", "static SNR", "adaptive SNR"});
  std::vector<double> passive_series, adaptive_series;
  for (int step = 0; step <= 8; ++step) {
    const double t_s = static_cast<double>(step);
    world.advance_to(static_cast<hal::Micros>(t_s * hal::kMicrosPerSecond));
    const geom::Vec3 client = client_at(t_s);
    const sim::SceneChannel channel(&world.environment(), freq, base.ap(),
                                    {&panel}, {client});
    const auto snr_of = [&](const surface::SurfaceConfig& config) {
      const auto coeffs = channel.coefficients_for(
          std::vector<surface::SurfaceConfig>{config});
      return base.budget.snr_db(std::norm(channel.evaluate(0, coeffs)));
    };
    // Adaptive: SurfOS re-focuses on every change (the re-optimization a
    // step() cycle performs; ideal steering is the converged result here).
    const auto adaptive =
        panel.focus_config(base.ap_position, client, freq);
    const double snr_passive = snr_of(fabricated);
    const double snr_adaptive = snr_of(adaptive);
    passive_series.push_back(snr_passive);
    adaptive_series.push_back(snr_adaptive);
    table.add_row({util::format("%.0f", t_s),
                   util::format("(%.1f, %.1f)", client.x, client.y),
                   util::format("%.1f", snr_passive),
                   util::format("%.1f", snr_adaptive)});
  }
  table.print(std::cout);

  std::printf("\nMeans over the walk: static %.1f dB, adaptive %.1f dB.\n",
              util::mean(passive_series), util::mean(adaptive_series));
  std::printf(
      "Bystander moves: %zu (boxes moved in place). Adaptive tracking\n"
      "holds the link as the client leaves the fabricated beam — the\n"
      "runtime capability that separates an OS from a compile-time library\n"
      "and justifies programmable hardware despite its cost (Fig 4).\n",
      world.motion_count());
  return 0;
}
