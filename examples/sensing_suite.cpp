// Sensing suite example: the full sensing substrate on one deployment —
// angle-of-arrival, wideband time-of-flight ranging (no oracle inputs),
// position estimation, and channel-variation motion detection while a
// person walks through the room.
#include <cstdio>

#include "sense/aoa.hpp"
#include "sense/motion.hpp"
#include "sense/steering.hpp"
#include "sense/tof.hpp"
#include "sim/channel.hpp"
#include "sim/dynamics.hpp"
#include "sim/floorplan.hpp"

using namespace surfos;

int main() {
  sim::CoverageRoomScenario scene = sim::make_coverage_room(6);
  const double center_freq = em::band_center(scene.band);

  surface::ElementDesign design;
  design.spacing_m = em::wavelength(center_freq) / 2.0;
  const surface::SurfacePanel panel(
      "aperture", scene.surface_pose, 16, 16, design,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);

  // --- 1. Localization without an oracle: AoA + wideband ToF ---------------
  std::printf("=== Localization: bearing + range from channel snapshots ===\n");
  const auto subcarriers = sense::subcarrier_grid(center_freq, 400e6, 16);
  for (const geom::Vec3 client : {geom::Vec3{1.0, 1.0, 1.0},
                                  geom::Vec3{2.2, 2.6, 1.0},
                                  geom::Vec3{0.6, 2.8, 1.0}}) {
    std::vector<em::CxPlanes> taps;
    for (const double f : subcarriers) {
      const sim::SceneChannel channel(scene.environment.get(), f, scene.ap(),
                                      {&panel}, {client});
      taps.push_back(channel.rx_planes(0, 0));
    }
    const sense::RangeBearing estimate =
        sense::range_and_bearing(panel, subcarriers, taps);
    const geom::Vec3 position =
        sense::position_from_range_bearing(panel, estimate, client.z);
    std::printf(
        "  client (%.1f, %.1f): bearing %+.1f deg, range %.2f m -> estimate "
        "(%.2f, %.2f), error %.2f m (ToF residual %.3f rad)\n",
        client.x, client.y, estimate.azimuth_rad * 57.2958, estimate.range_m,
        position.x, position.y, position.distance_to(client),
        estimate.tof_residual_rad);
  }

  // --- 2. Motion detection while a person crosses the room -----------------
  std::printf("\n=== Motion detection: channel decorrelation over time ===\n");
  em::MaterialDb materials = em::MaterialDb::standard();
  const int body = sim::add_body_material(materials);
  sim::DynamicEnvironment world(materials, [](sim::Environment& env) {
    env.add_horizontal_slab(0.0, 3.5, -1.5, 3.5, 0.0, em::kMatFloor);
    env.add_vertical_wall(0.0, 3.5, 3.5, 3.5, 0.0, 3.0, em::kMatConcrete);
    env.add_vertical_wall(0.0, -1.5, 0.0, 3.5, 0.0, 3.0, em::kMatConcrete);
  });
  sim::MovingBlocker person;
  person.id = "person";
  person.waypoints = {{0.3, -1.0, 0}, {0.3, 3.0, 0}};  // enters at t ~ 2 s
  person.speed_mps = 0.6;
  person.material_id = body;
  world.add_blocker(person);

  std::vector<geom::Vec3> probes;
  for (int i = 0; i < 6; ++i) probes.push_back({0.4 + 0.5 * i, 1.4, 1.0});
  const surface::SurfaceConfig uniform(panel.element_count());

  sense::MotionDetector detector;
  for (int frame = 0; frame <= 14; ++frame) {
    world.advance_to(static_cast<hal::Micros>(frame) *
                     hal::kMicrosPerSecond / 2);
    const sim::SceneChannel channel(&world.environment(), center_freq,
                                    scene.ap(), {&panel}, probes);
    const auto coeffs = channel.coefficients_for(
        std::vector<surface::SurfaceConfig>{uniform});
    em::CxPlanes snapshot(probes.size());
    for (std::size_t j = 0; j < probes.size(); ++j) {
      snapshot.set(j, channel.evaluate(j, coeffs));
    }
    const bool motion = detector.update(snapshot);
    std::printf("  t=%4.1f s  person at y=%+.1f  decorrelation %.5f  %s\n",
                frame * 0.5, world.blocker_position("person").y,
                detector.last_score(), motion ? "<< MOTION" : "");
  }
  return 0;
}
