// SIMD backend contract: every vector backend must agree BIT-EXACTLY with
// the scalar reference backend on every kernel — including tail lanes
// (n not a multiple of kWidth), unaligned operand pointers, and the
// composed channel/orchestrator results — and the SURFOS_SIMD override
// machinery must select what it claims.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "em/propagation.hpp"
#include "hal/clock.hpp"
#include "hal/driver.hpp"
#include "hal/registry.hpp"
#include "orch/orchestrator.hpp"
#include "sim/channel.hpp"
#include "sim/floorplan.hpp"
#include "sim/raytracer.hpp"
#include "surface/panel.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace surfos {
namespace {

namespace simd = util::simd;
constexpr std::size_t W = simd::kWidth;

/// Deterministic value fill (no libc rand): x in roughly [-1.5, 1.5].
double synth(std::size_t i, double salt) {
  return 1.5 * std::sin(0.7 * static_cast<double>(i) + salt);
}

simd::AlignedVec filled(std::size_t n, double salt) {
  simd::AlignedVec v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = synth(i, salt);
  return v;
}

/// Restores the dispatcher's default backend when a test body returns.
struct BackendGuard {
  ~BackendGuard() { simd::reset_backend(); }
};

// --- kernel-level agreement --------------------------------------------------

/// Runs `body(ops)` for the scalar table and one vector table, asserting the
/// outputs the body collects are bitwise equal. `n` covers both a full
/// multiple of the lane width and a ragged tail; `offset` shifts every
/// operand pointer off 64-byte alignment.
template <class Body>
void expect_backends_agree(const Body& body) {
  const simd::Ops* scalar = simd::ops_for(simd::Backend::kScalar);
  ASSERT_NE(scalar, nullptr);
  for (const simd::Backend b : simd::available_backends()) {
    if (b == simd::Backend::kScalar) continue;
    const simd::Ops* vec = simd::ops_for(b);
    ASSERT_NE(vec, nullptr);
    for (const std::size_t n : {W, std::size_t{13}, std::size_t{1}}) {
      for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
        const std::vector<double> got_scalar = body(*scalar, n, offset);
        const std::vector<double> got_vec = body(*vec, n, offset);
        ASSERT_EQ(got_scalar.size(), got_vec.size());
        for (std::size_t i = 0; i < got_scalar.size(); ++i) {
          EXPECT_EQ(got_scalar[i], got_vec[i])
              << simd::backend_name(b) << " n=" << n << " offset=" << offset
              << " slot " << i;
        }
      }
    }
  }
}

TEST(SimdKernels, TranscendentalsBitwiseAcrossBackends) {
  expect_backends_agree([](const simd::Ops& k, std::size_t n,
                           std::size_t off) {
    // Phases at the magnitude the channel really uses: k*d ~ 1e4.
    simd::AlignedVec x(n + off);
    for (std::size_t i = 0; i < n; ++i) {
      x[off + i] = 1.0e4 * (0.5 + synth(i, 0.1));
    }
    simd::AlignedVec s(n + off), c(n + off), e(n + off), pr(n + off),
        pi(n + off), amp(n + off);
    for (std::size_t i = 0; i < n; ++i) amp[off + i] = 1.0 + synth(i, 0.4);
    k.sincos(x.data() + off, s.data() + off, c.data() + off, n);
    simd::AlignedVec xs(n + off);
    for (std::size_t i = 0; i < n; ++i) xs[off + i] = synth(i, 0.2) - 1.0;
    k.exp(xs.data() + off, e.data() + off, n);
    k.polar(amp.data() + off, 0.75, x.data() + off, pr.data() + off,
            pi.data() + off, n);
    std::vector<double> out;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(s[off + i]);
      out.push_back(c[off + i]);
      out.push_back(e[off + i]);
      out.push_back(pr[off + i]);
      out.push_back(pi[off + i]);
    }
    return out;
  });
}

TEST(SimdKernels, ComplexArithmeticBitwiseAcrossBackends) {
  expect_backends_agree([](const simd::Ops& k, std::size_t n,
                           std::size_t off) {
    auto ar = filled(n + off, 0.1), ai = filled(n + off, 0.2);
    auto br = filled(n + off, 0.3), bi = filled(n + off, 0.4);
    auto cr = filled(n + off, 0.5), ci = filled(n + off, 0.6);
    auto w = filled(n + off, 0.7);
    simd::AlignedVec o_re(n + off), o_im(n + off);
    std::vector<double> out;

    k.cmul(ar.data() + off, ai.data() + off, br.data() + off, bi.data() + off,
           o_re.data() + off, o_im.data() + off, n);
    k.cmul_accum(cr.data() + off, ci.data() + off, br.data() + off,
                 bi.data() + off, o_re.data() + off, o_im.data() + off, n);
    k.cscale(o_re.data() + off, o_im.data() + off, 0.8, -0.6, n);
    k.rscale_mul(o_re.data() + off, o_im.data() + off, w.data() + off, n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(o_re[off + i]);
      out.push_back(o_im[off + i]);
    }

    double dot[2];
    k.cdot3(ar.data() + off, ai.data() + off, br.data() + off,
            bi.data() + off, cr.data() + off, ci.data() + off, n, dot);
    out.push_back(dot[0]);
    out.push_back(dot[1]);

    simd::AlignedVec wr(n + off), wi(n + off);
    k.cdot3_partials(ar.data() + off, ai.data() + off, br.data() + off,
                     bi.data() + off, cr.data() + off, ci.data() + off,
                     wr.data() + off, wi.data() + off, /*accumulate_w=*/0, n,
                     dot);
    out.push_back(dot[0]);
    out.push_back(dot[1]);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(wr[off + i]);
      out.push_back(wi[off + i]);
    }

    out.push_back(k.norm_sum(ar.data() + off, ai.data() + off, n));
    return out;
  });
}

TEST(SimdKernels, MatvecBitwiseAcrossBackends) {
  const simd::Ops* scalar = simd::ops_for(simd::Backend::kScalar);
  ASSERT_NE(scalar, nullptr);
  const std::size_t rows = 5, cols = 16, stride = 16;
  const auto m_re = filled(rows * stride, 0.11);
  const auto m_im = filled(rows * stride, 0.22);
  const auto xr = filled(cols, 0.33), xi = filled(cols, 0.44);
  const auto vr = filled(rows, 0.55), vi = filled(rows, 0.66);

  const auto run = [&](const simd::Ops& k) {
    simd::AlignedVec yr(rows), yi(rows), tr(cols), ti(cols);
    k.cmatvec(m_re.data(), m_im.data(), rows, cols, stride, xr.data(),
              xi.data(), yr.data(), yi.data());
    k.cmatvec_t(m_re.data(), m_im.data(), rows, cols, stride, vr.data(),
                vi.data(), tr.data(), ti.data());
    std::vector<double> out(yr.begin(), yr.end());
    out.insert(out.end(), yi.begin(), yi.end());
    out.insert(out.end(), tr.begin(), tr.end());
    out.insert(out.end(), ti.begin(), ti.end());
    return out;
  };

  const auto ref = run(*scalar);
  for (const simd::Backend b : simd::available_backends()) {
    if (b == simd::Backend::kScalar) continue;
    EXPECT_EQ(ref, run(*simd::ops_for(b))) << simd::backend_name(b);
  }
}

TEST(SimdKernels, GeometryAndEmBitwiseAcrossBackends) {
  expect_backends_agree([](const simd::Ops& k, std::size_t n,
                           std::size_t off) {
    auto px = filled(n + off, 1.1), py = filled(n + off, 1.2),
         pz = filled(n + off, 1.3);
    auto qx = filled(n + off, 2.1), qy = filled(n + off, 2.2),
         qz = filled(n + off, 2.3);
    simd::AlignedVec d(n + off), ux(n + off), uy(n + off), uz(n + off);
    std::vector<double> out;

    k.dist_dirs(px.data() + off, py.data() + off, pz.data() + off,
                qx.data() + off, qy.data() + off, qz.data() + off,
                d.data() + off, ux.data() + off, uy.data() + off,
                uz.data() + off, n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(d[off + i]);
      out.push_back(ux[off + i]);
      out.push_back(uy[off + i]);
      out.push_back(uz[off + i]);
    }

    const simd::SlabConsts slab{5.24, -0.55, 2.4};
    simd::AlignedVec cosi(n + off), rr(n + off), ri(n + off), tr(n + off),
        ti(n + off);
    for (std::size_t i = 0; i < n; ++i) {
      cosi[off + i] = 0.05 + 0.9 * std::fabs(synth(i, 3.3)) / 1.5;
    }
    k.fresnel_reflect(&slab, cosi.data() + off, rr.data() + off,
                      ri.data() + off, n);
    k.fresnel_transmit(&slab, cosi.data() + off, tr.data() + off,
                       ti.data() + off, n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(rr[off + i]);
      out.push_back(ri[off + i]);
      out.push_back(tr[off + i]);
      out.push_back(ti[off + i]);
    }

    simd::AlignedVec hr(n + off), hi(n + off);
    const double wnum = em::wavenumber(28e9);
    k.hop_gain(px.data() + off, py.data() + off, pz.data() + off, 4.0, -3.0,
               2.5, 0.0, 0.0, 1.0, wnum, 2.5e-5, std::sqrt(4.0 * M_PI),
               hr.data() + off, hi.data() + off, ux.data() + off,
               uy.data() + off, uz.data() + off, n);
    k.pair_gain(px.data() + off, py.data() + off, pz.data() + off, 4.0, -3.0,
                2.5, 0.0, 0.0, 1.0, 0.6, -0.8, 0.0, wnum,
                em::wavelength(28e9), 2.5e-5, 2.5e-5, rr.data() + off,
                ri.data() + off, n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(hr[off + i]);
      out.push_back(hi[off + i]);
      out.push_back(ux[off + i]);
      out.push_back(uy[off + i]);
      out.push_back(uz[off + i]);
      out.push_back(rr[off + i]);
      out.push_back(ri[off + i]);
    }

    k.sector_gain(0.0, 0.0, 1.0, -1.0, 0.5, 4.0, 0.3, ux.data() + off,
                  uy.data() + off, uz.data() + off, hr.data() + off, n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(hr[off + i]);
    return out;
  });
}

// --- override machinery ------------------------------------------------------

TEST(SimdDispatch, OverrideSelectsAndRestores) {
  BackendGuard guard;
  const auto backends = simd::available_backends();
  ASSERT_FALSE(backends.empty());
  bool has_scalar = false;
  for (const simd::Backend b : backends) {
    has_scalar |= (b == simd::Backend::kScalar);
    ASSERT_TRUE(simd::set_backend(b)) << simd::backend_name(b);
    EXPECT_EQ(simd::active_backend(), b);
    EXPECT_STREQ(simd::ops().name, simd::backend_name(b));
  }
  EXPECT_TRUE(has_scalar);  // the reference backend is always available

  // Unavailable backends are rejected without changing the active one.
  for (const simd::Backend b :
       {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kAvx512}) {
    if (simd::ops_for(b) == nullptr) {
      const simd::Backend before = simd::active_backend();
      EXPECT_FALSE(simd::set_backend(b));
      EXPECT_EQ(simd::active_backend(), before);
    }
  }
  simd::reset_backend();  // back to SURFOS_SIMD/CPU resolution
}

// --- channel-level agreement -------------------------------------------------

struct Scene {
  sim::CoverageRoomScenario scenario;
  std::unique_ptr<surface::SurfacePanel> panel_a;
  std::unique_ptr<surface::SurfacePanel> panel_b;
  std::vector<const surface::SurfacePanel*> panels;

  Scene() : scenario(sim::make_coverage_room(/*grid_n=*/5)) {
    surface::ElementDesign design;
    design.spacing_m = em::wavelength(em::band_center(scenario.band)) / 2.0;
    design.insertion_loss_db = 1.0;
    // 6x6 + 5x5: both a lane-multiple and a ragged element count, so the
    // channel path exercises padded tails on every backend.
    panel_a = std::make_unique<surface::SurfacePanel>(
        "simd-a", scenario.surface_pose, 6, 6, design,
        surface::OperationMode::kReflective,
        surface::Reconfigurability::kPassive,
        surface::ControlGranularity::kElement);
    const geom::Frame pose_b(
        scenario.surface_pose.origin() + geom::Vec3{0.9, 0.4, 0.0},
        scenario.surface_pose.normal() + geom::Vec3{0.2, 0.1, 0.0});
    panel_b = std::make_unique<surface::SurfacePanel>(
        "simd-b", pose_b, 5, 5, design, surface::OperationMode::kReflective,
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

struct ChannelSnapshot {
  std::vector<em::Cx> h_dir;
  std::vector<em::CVec> f;
  std::vector<double> power;
  em::Cx h_eval;
  std::vector<em::CVec> dh;
};

ChannelSnapshot snapshot_under(simd::Backend b, const Scene& scene) {
  BackendGuard guard;
  EXPECT_TRUE(simd::set_backend(b));
  const auto channel = scene.make_channel();
  ChannelSnapshot snap;
  for (std::size_t j = 0; j < channel->rx_count(); ++j) {
    snap.h_dir.push_back(channel->direct(j));
  }
  for (std::size_t p = 0; p < channel->panel_count(); ++p) {
    snap.f.push_back(channel->tx_vector(p));
  }
  const auto configs = scene.focus_configs();
  snap.power = channel->power_map(configs);
  const auto coeffs = channel->coefficients_for(configs);
  snap.h_eval = channel->evaluate(0, coeffs);
  channel->evaluate_with_partials(0, coeffs, snap.h_eval, snap.dh);
  return snap;
}

TEST(SimdChannel, EndToEndBitIdenticalAcrossBackends) {
  const Scene scene;
  const auto ref = snapshot_under(simd::Backend::kScalar, scene);
  for (const simd::Backend b : simd::available_backends()) {
    if (b == simd::Backend::kScalar) continue;
    const auto got = snapshot_under(b, scene);
    EXPECT_EQ(ref.h_dir, got.h_dir) << simd::backend_name(b);
    EXPECT_EQ(ref.f, got.f) << simd::backend_name(b);
    EXPECT_EQ(ref.power, got.power) << simd::backend_name(b);
    EXPECT_EQ(ref.h_eval, got.h_eval) << simd::backend_name(b);
    EXPECT_EQ(ref.dh, got.dh) << simd::backend_name(b);
  }
}

TEST(SimdChannel, BatchDirectMatchesRayTracerToTolerance) {
  // The batched tracer reassociates and skips the acos/cos round trip, so
  // it is ULP-close — not bitwise — to the scalar RayTracer (DESIGN.md
  // tolerance policy). Relative 1e-9 is orders looser than observed and
  // orders tighter than any physical significance.
  const Scene scene;
  const auto channel = scene.make_channel();
  const sim::RayTracer tracer(scene.scenario.environment.get(),
                              em::band_center(scene.scenario.band));
  const em::AntennaPattern* tx_ant = scene.scenario.ap_antenna.get();
  for (std::size_t j = 0; j < channel->rx_count(); ++j) {
    em::Cx expected{};
    for (const auto& path :
         tracer.trace(scene.scenario.ap_position, channel->rx_point(j))) {
      // Same antenna weighting as the channel: TX gain on the departure
      // direction, (isotropic) RX gain on the reversed arrival direction.
      const double wt =
          tx_ant ? tx_ant->amplitude_gain(path.departure_direction()) : 1.0;
      expected += path.gain * wt;
    }
    const em::Cx got = channel->direct(j);
    EXPECT_NEAR(std::abs(got - expected), 0.0,
                1e-9 * std::max(1e-30, std::abs(expected)))
        << "rx " << j;
  }
}

// --- orchestrator-level agreement --------------------------------------------

orch::StepReport step_under(simd::Backend b) {
  BackendGuard guard;
  EXPECT_TRUE(simd::set_backend(b));
  sim::CoverageRoomScenario scene = sim::make_coverage_room(5);
  hal::SimClock clock;
  hal::DeviceRegistry registry;
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(em::band_center(scene.band)) / 2.0;
  d.insertion_loss_db = 1.0;
  surface::SurfacePanel panel("wall", scene.surface_pose, 8, 8, d,
                              surface::OperationMode::kReflective,
                              surface::Reconfigurability::kProgrammable,
                              surface::ControlGranularity::kElement);
  registry.add_surface(std::make_unique<hal::ProgrammableSurfaceDriver>(
      "wall", &panel, hal::spec_for_panel(panel, scene.band), &clock));
  registry.add_endpoint({"laptop", hal::EndpointKind::kClient,
                         {1.2, 2.4, 1.0}, scene.band, std::nullopt});
  orch::OrchestratorContext context;
  context.environment = scene.environment.get();
  context.ap = scene.ap();
  context.default_band = scene.band;
  context.budget = scene.budget;
  orch::Orchestrator orchestrator(&registry, &clock, context, {});
  orchestrator.enhance_link({"laptop", 15.0, 50.0});
  return orchestrator.step();
}

TEST(SimdChannel, StepReportsIdenticalWithVectorPathOnAndOff) {
  const auto backends = simd::available_backends();
  const orch::StepReport ref = step_under(simd::Backend::kScalar);
  for (const simd::Backend b : backends) {
    if (b == simd::Backend::kScalar) continue;
    const orch::StepReport got = step_under(b);
    EXPECT_EQ(ref.assignment_count, got.assignment_count);
    EXPECT_EQ(ref.optimizations_run, got.optimizations_run);
    EXPECT_EQ(ref.starved, got.starved);
    ASSERT_EQ(ref.tasks.size(), got.tasks.size());
    for (std::size_t i = 0; i < ref.tasks.size(); ++i) {
      EXPECT_EQ(ref.tasks[i].id, got.tasks[i].id);
      EXPECT_EQ(ref.tasks[i].state, got.tasks[i].state);
      EXPECT_EQ(ref.tasks[i].goal_met, got.tasks[i].goal_met);
      ASSERT_EQ(ref.tasks[i].achieved.has_value(),
                got.tasks[i].achieved.has_value());
      if (ref.tasks[i].achieved) {
        // Bitwise: the measured metric flows through the vectorized
        // channel end to end.
        EXPECT_EQ(*ref.tasks[i].achieved, *got.tasks[i].achieved)
            << simd::backend_name(b);
      }
    }
    EXPECT_EQ(ref.trace.objective_evaluations,
              got.trace.objective_evaluations)
        << simd::backend_name(b);
    EXPECT_EQ(ref.trace.config_writes, got.trace.config_writes);
  }
}

}  // namespace
}  // namespace surfos
