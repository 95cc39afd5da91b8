// Micro-benchmarks (google-benchmark): the hot paths that bound how fast the
// control plane can react — channel evaluation (with and without gradients),
// configuration serialization and framing, BVH occlusion queries, AoA
// spectra, one full optimizer iteration, and one evaluation of a plan shaped
// like the daemon's, the FleetReport codec surfosd runs every epoch, and the
// direct-channel trace a row fill runs.
#include <benchmark/benchmark.h>

#include "hal/crc32.hpp"
#include "hal/protocol.hpp"
#include "opt/optimizer.hpp"
#include "orch/objectives.hpp"
#include "orch/variables.hpp"
#include "proto/serialize.hpp"
#include "sense/aoa.hpp"
#include "sim/channel.hpp"
#include "sim/dynamics.hpp"
#include "sim/floorplan.hpp"
#include "sim/trace_batch.hpp"
#include "surface/catalog.hpp"
#include "util/rng.hpp"

namespace {

using namespace surfos;

constexpr double kFreq = 28e9;

struct MicroScene {
  sim::Environment env{em::MaterialDb::standard()};
  std::unique_ptr<surface::SurfacePanel> panel;
  std::unique_ptr<sim::SceneChannel> channel;
  std::unique_ptr<orch::PanelVariables> vars;

  explicit MicroScene(std::size_t n) {
    env.add_vertical_wall(0.0, -2.0, 0.0, 2.0, 0.0, 1.0, em::kMatMetal);
    env.finalize();
    surface::ElementDesign d;
    d.spacing_m = em::wavelength(kFreq) / 2.0;
    panel = std::make_unique<surface::SurfacePanel>(
        "p", geom::Frame({0, 0, 2}, {0, 0, -1}, {1, 0, 0}), n, n, d,
        surface::OperationMode::kReflective,
        surface::Reconfigurability::kProgrammable,
        surface::ControlGranularity::kElement);
    channel = std::make_unique<sim::SceneChannel>(
        &env, kFreq, sim::TxSpec{{-1.0, 0.2, 0.0}, nullptr},
        std::vector<const surface::SurfacePanel*>{panel.get()},
        std::vector<geom::Vec3>{{1.0, -1.5, 0.1}});
    vars = std::make_unique<orch::PanelVariables>(
        std::vector<const surface::SurfacePanel*>{panel.get()});
  }
};

void BM_ChannelEvaluate(benchmark::State& state) {
  const MicroScene scene(static_cast<std::size_t>(state.range(0)));
  const surface::SurfaceConfig uniform(scene.panel->element_count());
  const auto coeffs =
      scene.channel->coefficients_for(std::vector<surface::SurfaceConfig>{uniform});
  for (auto _ : state) {
    benchmark::DoNotOptimize(scene.channel->evaluate(0, coeffs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(scene.panel->element_count()));
}
BENCHMARK(BM_ChannelEvaluate)->Arg(8)->Arg(16)->Arg(32);

void BM_ChannelEvaluateWithPartials(benchmark::State& state) {
  const MicroScene scene(static_cast<std::size_t>(state.range(0)));
  const surface::SurfaceConfig uniform(scene.panel->element_count());
  const auto coeffs =
      scene.channel->coefficients_for(std::vector<surface::SurfaceConfig>{uniform});
  em::Cx h;
  std::vector<em::CxPlanes> partials;
  for (auto _ : state) {
    scene.channel->evaluate_with_partials(0, coeffs, h, partials);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_ChannelEvaluateWithPartials)->Arg(8)->Arg(16)->Arg(32);

void BM_GradientDescentIteration(benchmark::State& state) {
  const MicroScene scene(16);
  const orch::CapacityObjective objective(scene.channel.get(),
                                          scene.vars.get(), {0}, 1e12);
  std::vector<double> x(scene.vars->dimension(), 0.1);
  std::vector<double> grad(x.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(objective.value_and_gradient(x, grad));
  }
}
BENCHMARK(BM_GradientDescentIteration);

/// The daemon's plan shape: one site's room with an 8x8 column-controlled
/// NR-Surface serving two link tasks and one 9-point security region, as
/// the joint objective the orchestrator optimizes.
struct DaemonPlan {
  sim::Environment env{em::MaterialDb::standard()};
  std::unique_ptr<surface::SurfacePanel> panel;
  std::unique_ptr<sim::SceneChannel> channel;
  std::unique_ptr<orch::PanelVariables> vars;
  std::unique_ptr<orch::JointObjective> joint;

  DaemonPlan() {
    env.add_vertical_wall(0.0, 4.0, 4.0, 4.0, 0.0, 3.0, em::kMatConcrete);
    env.add_vertical_wall(0.0, 0.0, 0.0, 4.0, 0.0, 3.0, em::kMatConcrete);
    env.add_vertical_wall(4.0, 0.0, 4.0, 4.0, 0.0, 3.0, em::kMatConcrete);
    env.add_vertical_wall(0.0, 0.0, 4.0, 0.0, 0.0, 3.0, em::kMatConcrete);
    env.add_horizontal_slab(0.0, 4.0, 0.0, 4.0, 0.0, em::kMatFloor);
    env.finalize();
    const surface::Catalog catalog = surface::Catalog::standard();
    panel = std::make_unique<surface::SurfacePanel>(surface::instantiate(
        *catalog.find("NR-Surface"),
        geom::Frame({3.92, 2.0, 1.8}, {-1.0, 0.0, 0.0}), 8, 8));
    std::vector<geom::Vec3> rx{{1.2, 2.4, 1.0}, {2.6, 1.1, 1.0}};
    const geom::SampleGrid region(0.5, 3.5, 0.5, 3.5, 1.0, 3, 3);
    for (const geom::Vec3& p : region.points()) rx.push_back(p);
    channel = std::make_unique<sim::SceneChannel>(
        &env, em::band_center(em::Band::k28GHz),
        sim::TxSpec{{0.4, 2.0, 2.2}, nullptr},
        std::vector<const surface::SurfacePanel*>{panel.get()}, rx);
    vars = std::make_unique<orch::PanelVariables>(
        std::vector<const surface::SurfacePanel*>{panel.get()});
    joint = std::make_unique<orch::JointObjective>(channel.get(), vars.get());
    joint->add_capacity({0}, 1e12, 1.0, 1.0);
    joint->add_capacity({1}, 1e12, 1.0, 1.0);
    joint->add_power_delivery({2, 3, 4, 5, 6, 7, 8, 9, 10}, 1e-9, -1.0);
  }
};

void BM_DaemonPlanValueAndGradient(benchmark::State& state) {
  const DaemonPlan plan;
  std::vector<double> x(plan.vars->dimension(), 0.1);
  std::vector<double> grad(x.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.joint->value_and_gradient(x, grad));
  }
}
BENCHMARK(BM_DaemonPlanValueAndGradient);

void BM_DaemonPlanValue(benchmark::State& state) {
  const DaemonPlan plan;
  const std::vector<double> x(plan.vars->dimension(), 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.joint->value(x));
  }
}
BENCHMARK(BM_DaemonPlanValue);

void BM_ConfigSerializeRoundTrip(benchmark::State& state) {
  surface::SurfaceConfig config(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(5);
  for (std::size_t i = 0; i < config.size(); ++i) {
    config.set_phase(i, rng.uniform(0, 6.28));
  }
  for (auto _ : state) {
    const auto bytes = config.serialize();
    benchmark::DoNotOptimize(surface::SurfaceConfig::deserialize(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(4 + config.size() * 3));
}
BENCHMARK(BM_ConfigSerializeRoundTrip)->Arg(256)->Arg(1024)->Arg(4096);

void BM_FrameEncodeDecode(benchmark::State& state) {
  hal::Frame frame;
  frame.type = hal::MessageType::kWriteConfig;
  frame.payload.assign(static_cast<std::size_t>(state.range(0)), 0xA5);
  for (auto _ : state) {
    const auto bytes = hal::encode_frame(frame);
    benchmark::DoNotOptimize(hal::decode_frame(bytes));
  }
}
BENCHMARK(BM_FrameEncodeDecode)->Arg(64)->Arg(1024)->Arg(16384);

/// A 100-site FleetReport shaped like surfosd's: per site three task
/// reports and a StepTrace naming their trace ids.
FleetReport hundred_site_report() {
  FleetReport report;
  for (std::uint64_t i = 0; i < 100; ++i) {
    SiteReport& site = report.sites.emplace_back();
    site.site_id = "site" + std::to_string(i);
    site.step.assignment_count = 3;
    site.step.optimizations_run = 1;
    for (std::uint64_t t = 0; t < 3; ++t) {
      orch::TaskReport& task = site.step.tasks.emplace_back();
      task.id = i * 3 + t;
      task.state = orch::TaskState::kRunning;
      task.achieved = 12.5 + static_cast<double>(t);
      task.goal_met = t != 2;
      site.step.trace.trace_ids.push_back(0x5eed0000 + task.id);
    }
    site.step.trace.task_trace_ids = site.step.trace.trace_ids;
    site.step.trace.total_us = 310.0 + static_cast<double>(i);
    site.step.trace.plans_reused = 3;
    report.total_assignments += 3;
  }
  return report;
}

void BM_FleetReportToWire(benchmark::State& state) {
  const FleetReport report = hundred_site_report();
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    out.clear();
    proto::to_wire(report, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_FleetReportToWire);

void BM_FleetReportFromWire(benchmark::State& state) {
  const std::vector<std::uint8_t> bytes =
      proto::to_wire(hundred_site_report());
  FleetReport out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::from_wire(bytes, out).ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_FleetReportFromWire);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hal::crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1024)->Arg(65536);

void BM_OcclusionQuery(benchmark::State& state) {
  sim::CoverageRoomScenario scene = sim::make_coverage_room(4);
  util::Rng rng(7);
  for (auto _ : state) {
    const geom::Vec3 a{rng.uniform(0.2, 3.2), rng.uniform(0.2, 3.2), 1.0};
    const geom::Vec3 b{rng.uniform(0.2, 3.2), rng.uniform(-1.2, 3.2), 1.5};
    benchmark::DoNotOptimize(scene.environment->mesh().segment_blocked(a, b));
  }
}
BENCHMARK(BM_OcclusionQuery);

void BM_BeamscanSpectrum(benchmark::State& state) {
  const MicroScene scene(static_cast<std::size_t>(state.range(0)));
  const sense::AoaSensingModel model(scene.panel.get(), kFreq, 121);
  em::CxPlanes v(scene.panel->element_count());
  for (std::size_t i = 0; i < v.size(); ++i) v.set(i, {1.0, 0.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.spectrum(v));
  }
}
BENCHMARK(BM_BeamscanSpectrum)->Arg(8)->Arg(16);

void BM_SceneChannelPrecompute(benchmark::State& state) {
  sim::CoverageRoomScenario scene = sim::make_coverage_room(6);
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(kFreq) / 2.0;
  const surface::SurfacePanel panel(
      "p", scene.surface_pose, static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(0)), d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
  const auto points = scene.room_grid.points();
  for (auto _ : state) {
    const sim::SceneChannel channel(
        scene.environment.get(), kFreq, scene.ap(),
        std::vector<const surface::SurfacePanel*>{&panel}, points);
    benchmark::DoNotOptimize(channel.rx_count());
  }
}
BENCHMARK(BM_SceneChannelPrecompute)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

/// One direct-channel trace in the daemon's room (four concrete walls, a
/// floor, the walker standing at the centre) for the first N receivers of
/// an 11 x 11 grid at endpoint height; the tracer is built once.
void BM_TraceWeighted(benchmark::State& state) {
  em::MaterialDb materials = em::MaterialDb::standard();
  const int body = sim::add_body_material(materials);
  sim::Environment env(std::move(materials));
  env.add_vertical_wall(0.0, 4.0, 4.0, 4.0, 0.0, 3.0, em::kMatConcrete);
  env.add_vertical_wall(0.0, 0.0, 0.0, 4.0, 0.0, 3.0, em::kMatConcrete);
  env.add_vertical_wall(4.0, 0.0, 4.0, 4.0, 0.0, 3.0, em::kMatConcrete);
  env.add_vertical_wall(0.0, 0.0, 4.0, 0.0, 0.0, 3.0, em::kMatConcrete);
  env.add_horizontal_slab(0.0, 4.0, 0.0, 4.0, 0.0, em::kMatFloor);
  env.add_obstacle_box({1.75, 1.75, 0.0}, {2.25, 2.25, 1.75}, body);
  env.finalize();
  const geom::Vec3 ap{0.4, 2.0, 2.2};
  const em::SectorAntenna antenna(
      (geom::Vec3{3.92, 2.0, 1.8} - ap).normalized(), 35.0);
  const em::IsotropicAntenna isotropic;
  const sim::BatchTracer tracer(&env, em::band_center(em::Band::k28GHz), ap);
  std::vector<geom::Vec3> rx =
      geom::SampleGrid(0.3, 3.7, 0.3, 3.7, 1.1, 11, 11).points();
  rx.resize(static_cast<std::size_t>(state.range(0)));
  std::vector<em::Cx> h(rx.size());
  for (auto _ : state) {
    tracer.trace_weighted(rx, antenna, isotropic, h);
    benchmark::DoNotOptimize(h.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceWeighted)->Arg(1)->Arg(2)->Arg(8)->Arg(121);

}  // namespace

BENCHMARK_MAIN();
