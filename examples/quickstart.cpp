// Quickstart: bring up SurfOS in the 3.5 m coverage room, install one
// programmable surface from the Table-1 catalog, and enhance a client's
// link.
//
//   $ ./quickstart
//
// Walks the full stack: floorplan -> catalog install -> service API ->
// scheduler -> optimizer -> driver control link -> measured SNR.
#include <cstdio>

#include "core/surfos.hpp"
#include "sim/floorplan.hpp"
#include "sim/heatmap.hpp"
#include "telemetry/telemetry.hpp"

int main() {
  using namespace surfos;

  // 1. A furnished two-room scene with a door gap as the only mmWave ingress.
  sim::CoverageRoomScenario scene = sim::make_coverage_room(12);

  // 2. Bring up the OS for the AP and band of this environment.
  SurfOS os(scene.environment.get(), scene.ap(), scene.band, scene.budget);

  // 3. Install a 20x20 NR-Surface-class programmable surface on the wall
  //    mount, and register a client device in the room.
  const surface::Catalog catalog = surface::Catalog::standard();
  const surface::CatalogEntry* design = catalog.find("NR-Surface");
  os.install_programmable(*design, scene.surface_pose, 20, 20, "wall-surface");

  const geom::Vec3 client_position{1.2, 2.4, 1.0};
  os.register_endpoint("laptop", hal::EndpointKind::kClient, client_position);

  // 4. Baseline: what does the client see before any service runs?
  {
    const auto& panel = os.panel_of("wall-surface");
    sim::SceneChannel channel(scene.environment.get(),
                              em::band_center(scene.band), scene.ap(), {&panel},
                              {client_position});
    const surface::SurfaceConfig uniform(panel.element_count());
    const auto power = channel.power_map({{uniform}});
    std::printf("Baseline (uniform surface): RSS %.1f dBm, SNR %.1f dB\n",
                scene.budget.rss_dbm(power[0]), scene.budget.snr_db(power[0]));
  }

  // 5. Ask SurfOS for connectivity: one service call, then one step().
  //    (NR-Surface hardware is column-wise reconfigurable with 2-bit phases,
  //    so the achievable gain is real but bounded — a 12 dB target is what
  //    this hardware class can deliver here; an element-wise design reaches
  //    ~23 dB in the same spot.)
  const orch::TaskHandle task =
      os.orchestrator().enhance_link({"laptop", /*snr=*/12.0, /*latency=*/50.0});
  const orch::StepReport report = os.step();

  std::printf("After enhance_link(): SNR %.1f dB (target 12 dB) -> %s\n",
              task.last_metric().value_or(-999.0),
              task.goal_met() ? "met" : "NOT met");
  std::printf("Scheduler produced %zu assignment(s); %zu optimization(s) ran\n",
              report.assignment_count, report.optimizations_run);

  // 6. What did the control plane spend its time on? Every layer reports
  //    into the process-wide metrics registry, which is always on.
  std::printf("\n%s", telemetry::snapshot_table().c_str());
  return task.goal_met() ? 0 : 1;
}
