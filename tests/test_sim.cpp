// Channel simulator tests: environment transmission, image-method ray
// tracing against closed forms, SceneChannel linearity/superposition, the
// analytic partial derivatives against finite differences, two-surface
// cascades, heatmaps, and the canonical floorplans' geometric guarantees.
#include <gtest/gtest.h>

#include <cmath>

#include "em/material.hpp"
#include "em/propagation.hpp"
#include "sim/channel.hpp"
#include "sim/environment.hpp"
#include "sim/floorplan.hpp"
#include "sim/heatmap.hpp"
#include "sim/raytracer.hpp"
#include "sim/wideband.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace surfos::sim {
namespace {

constexpr double kFreq = 28e9;

Environment empty_env() {
  Environment env(em::MaterialDb::standard());
  env.finalize();
  return env;
}

// --- Environment -----------------------------------------------------------------

TEST(Environment, TransmissionThroughNothingIsUnity) {
  const Environment env = empty_env();
  const em::Cx t = env.segment_transmission({0, 0, 0}, {5, 0, 0}, kFreq);
  EXPECT_NEAR(std::abs(t), 1.0, 1e-12);
}

TEST(Environment, TransmissionThroughWallMatchesMaterial) {
  Environment env(em::MaterialDb::standard());
  env.add_vertical_wall(1.0, -2.0, 1.0, 2.0, 0.0, 3.0, em::kMatPlasterboard);
  env.finalize();
  const em::Cx t = env.segment_transmission({0, 0, 1.5}, {2, 0, 1.5}, kFreq);
  const auto expected = em::transmission_coefficient(
      env.materials().get(em::kMatPlasterboard), kFreq, 0.0);
  EXPECT_NEAR(std::abs(t), std::abs(expected), 1e-9);
}

TEST(Environment, TransmissionAccumulatesAcrossWalls) {
  Environment env(em::MaterialDb::standard());
  env.add_vertical_wall(1.0, -2.0, 1.0, 2.0, 0.0, 3.0, em::kMatWood);
  env.add_vertical_wall(2.0, -2.0, 2.0, 2.0, 0.0, 3.0, em::kMatWood);
  env.finalize();
  const double one_wall = std::abs(env.segment_transmission(
      {0, 0, 1.5}, {1.5, 0, 1.5}, kFreq));
  const double two_walls = std::abs(env.segment_transmission(
      {0, 0, 1.5}, {3, 0, 1.5}, kFreq));
  EXPECT_NEAR(two_walls, one_wall * one_wall, 1e-9);
}

TEST(Environment, MetalBlocksCompletely) {
  Environment env(em::MaterialDb::standard());
  env.add_vertical_wall(1.0, -2.0, 1.0, 2.0, 0.0, 3.0, em::kMatMetal);
  env.finalize();
  const em::Cx t = env.segment_transmission({0, 0, 1.5}, {2, 0, 1.5}, kFreq);
  EXPECT_LT(std::abs(t), 1e-6);
}

TEST(Environment, ExclusionSkipsBouncePointCrossing) {
  Environment env(em::MaterialDb::standard());
  env.add_vertical_wall(1.0, -2.0, 1.0, 2.0, 0.0, 3.0, em::kMatConcrete);
  env.finalize();
  const geom::Vec3 crossing{1.0, 0.0, 1.5};
  const geom::Vec3 exclude[] = {crossing};
  const em::Cx t = env.segment_transmission({0, 0, 1.5}, {2, 0, 1.5}, kFreq,
                                            exclude);
  EXPECT_NEAR(std::abs(t), 1.0, 1e-12);
}

TEST(Environment, InvalidMaterialRejectedEarly) {
  Environment env(em::MaterialDb::standard());
  EXPECT_THROW(env.add_vertical_wall(0, 0, 1, 0, 0, 3, 999),
               std::out_of_range);
}

TEST(Reflector, MirrorAndSegmentIntersection) {
  Reflector r;
  r.frame = geom::Frame({0, 0, 0}, {0, 0, 1});
  r.half_u = 1.0;
  r.half_v = 1.0;
  EXPECT_EQ(r.mirror({0.5, 0.2, 2.0}), geom::Vec3(0.5, 0.2, -2.0));
  const auto hit = r.segment_plane_point({0, 0, 1}, {0, 0, -1});
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->z, 0.0, 1e-12);
  // Outside the rectangle bounds.
  EXPECT_FALSE(r.segment_plane_point({5, 5, 1}, {5, 5, -1}).has_value());
  // Same side: no crossing.
  EXPECT_FALSE(r.segment_plane_point({0, 0, 1}, {0, 0, 2}).has_value());
}

// --- RayTracer -------------------------------------------------------------------

TEST(RayTracer, FreeSpaceMatchesFriisExactly) {
  const Environment env = empty_env();
  const RayTracer tracer(&env, kFreq);
  const auto paths = tracer.trace({0, 0, 1}, {4, 0, 1});
  ASSERT_EQ(paths.size(), 1u);
  const em::Cx expected = em::free_space_gain(kFreq, 4.0);
  EXPECT_NEAR(std::abs(paths[0].gain - expected), 0.0, 1e-15);
  EXPECT_EQ(paths[0].bounce_count, 0);
  EXPECT_NEAR(paths[0].length_m, 4.0, 1e-12);
}

TEST(RayTracer, DelayMatchesLength) {
  const Environment env = empty_env();
  const RayTracer tracer(&env, kFreq);
  const auto paths = tracer.trace({0, 0, 1}, {3, 0, 1});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_NEAR(paths[0].delay_s(), 3.0 / em::kSpeedOfLight, 1e-18);
}

TEST(RayTracer, SingleReflectionMatchesImageConstruction) {
  Environment env(em::MaterialDb::standard());
  // Metal floor at z = 0 — near-ideal mirror.
  env.add_horizontal_slab(-10, 10, -10, 10, 0.0, em::kMatMetal);
  env.finalize();
  const RayTracer tracer(&env, kFreq, {1, 1e-15});
  const geom::Vec3 a{0, 0, 1};
  const geom::Vec3 b{4, 0, 1};
  const auto paths = tracer.trace(a, b);
  // Direct + one floor bounce.
  ASSERT_EQ(paths.size(), 2u);
  const PropPath* bounce = paths[0].bounce_count == 1 ? &paths[0] : &paths[1];
  ASSERT_EQ(bounce->bounce_count, 1);
  // Image method: unfolded length is |a' - b| with a' = (0, 0, -1).
  const double expected_length = std::sqrt(16.0 + 4.0);
  EXPECT_NEAR(bounce->length_m, expected_length, 1e-9);
  // Bounce point is midway in x (symmetry), on the floor.
  EXPECT_NEAR(bounce->points[1].x, 2.0, 1e-9);
  EXPECT_NEAR(bounce->points[1].z, 0.0, 1e-9);
  // Metal reflection keeps nearly all amplitude.
  const double expected_amp = em::friis_amplitude(kFreq, expected_length);
  EXPECT_NEAR(std::abs(bounce->gain), expected_amp, expected_amp * 0.05);
}

TEST(RayTracer, ReflectionOrderZeroDisablesBounces) {
  Environment env(em::MaterialDb::standard());
  env.add_horizontal_slab(-10, 10, -10, 10, 0.0, em::kMatMetal);
  env.finalize();
  const RayTracer tracer(&env, kFreq, {0, 1e-15});
  EXPECT_EQ(tracer.trace({0, 0, 1}, {4, 0, 1}).size(), 1u);
}

TEST(RayTracer, SecondOrderBouncesAppearBetweenParallelMirrors) {
  Environment env(em::MaterialDb::standard());
  env.add_horizontal_slab(-10, 10, -10, 10, 0.0, em::kMatMetal);
  env.add_horizontal_slab(-10, 10, -10, 10, 3.0, em::kMatMetal);
  env.finalize();
  const RayTracer tracer1(&env, kFreq, {1, 1e-15});
  const RayTracer tracer2(&env, kFreq, {2, 1e-15});
  const auto paths1 = tracer1.trace({0, 0, 1}, {5, 0, 1});
  const auto paths2 = tracer2.trace({0, 0, 1}, {5, 0, 1});
  EXPECT_EQ(paths1.size(), 3u);  // direct + floor + ceiling
  EXPECT_EQ(paths2.size(), 5u);  // + floor-ceiling + ceiling-floor
  int second_order = 0;
  for (const auto& p : paths2) {
    if (p.bounce_count == 2) ++second_order;
  }
  EXPECT_EQ(second_order, 2);
}

TEST(RayTracer, BlockedDirectPathIsDropped) {
  Environment env(em::MaterialDb::standard());
  env.add_vertical_wall(2.0, -5.0, 2.0, 5.0, 0.0, 3.0, em::kMatMetal);
  env.finalize();
  const RayTracer tracer(&env, kFreq);
  const auto paths = tracer.trace({0, 0, 1.5}, {4, 0, 1.5});
  for (const auto& p : paths) EXPECT_NE(p.bounce_count, 0);
}

TEST(RayTracer, TotalGainIsCoherentSum) {
  Environment env(em::MaterialDb::standard());
  env.add_horizontal_slab(-10, 10, -10, 10, 0.0, em::kMatConcrete);
  env.finalize();
  const RayTracer tracer(&env, kFreq);
  const auto paths = tracer.trace({0, 0, 1}, {4, 0, 1});
  em::Cx sum{};
  for (const auto& p : paths) sum += p.gain;
  EXPECT_NEAR(std::abs(tracer.total_gain({0, 0, 1}, {4, 0, 1}) - sum), 0.0,
              1e-15);
}

TEST(RayTracer, RejectsBadConstruction) {
  const Environment env = empty_env();
  EXPECT_THROW(RayTracer(nullptr, kFreq), std::invalid_argument);
  EXPECT_THROW(RayTracer(&env, -1.0), std::invalid_argument);
  Environment unfinalized(em::MaterialDb::standard());
  EXPECT_THROW(RayTracer(&unfinalized, kFreq), std::logic_error);
}

TEST(RayTracer, ReciprocityOfTotalGain) {
  // Propagation is reciprocal: swapping endpoints must give the same total
  // complex gain (paths reverse, lengths and coefficients are symmetric).
  Environment env(em::MaterialDb::standard());
  env.add_horizontal_slab(-10, 10, -10, 10, 0.0, em::kMatConcrete);
  env.add_vertical_wall(3.0, -5.0, 3.0, 5.0, 0.0, 3.0, em::kMatPlasterboard);
  env.finalize();
  const RayTracer tracer(&env, kFreq);
  util::Rng rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    const geom::Vec3 a{rng.uniform(-4, 2), rng.uniform(-4, 4),
                       rng.uniform(0.5, 2.5)};
    const geom::Vec3 b{rng.uniform(3.5, 8), rng.uniform(-4, 4),
                       rng.uniform(0.5, 2.5)};
    const em::Cx forward = tracer.total_gain(a, b);
    const em::Cx backward = tracer.total_gain(b, a);
    EXPECT_NEAR(std::abs(forward - backward), 0.0,
                1e-9 * std::max(1e-12, std::abs(forward)))
        << "trial " << trial;
  }
}

TEST(RayTracer, PathCountInvariantUnderSwap) {
  Environment env(em::MaterialDb::standard());
  env.add_horizontal_slab(-10, 10, -10, 10, 0.0, em::kMatMetal);
  env.add_horizontal_slab(-10, 10, -10, 10, 3.0, em::kMatMetal);
  env.finalize();
  const RayTracer tracer(&env, kFreq);
  const geom::Vec3 a{0, 0, 1};
  const geom::Vec3 b{5, 1, 2};
  EXPECT_EQ(tracer.trace(a, b).size(), tracer.trace(b, a).size());
}

// --- SceneChannel -----------------------------------------------------------------

surface::SurfacePanel reflective_panel(std::size_t n = 8) {
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(kFreq) / 2.0;
  d.insertion_loss_db = 0.0;
  return surface::SurfacePanel(
      "panel", geom::Frame({0, 0, 2.0}, {0, 0, -1}, {1, 0, 0}), n, n, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
}

TEST(SceneChannel, SingleElementMatchesCascadeFormula) {
  const Environment env = empty_env();
  surface::ElementDesign d;
  d.spacing_m = 0.005;
  d.insertion_loss_db = 0.0;
  const surface::SurfacePanel panel(
      "one", geom::Frame({0, 0, 2.0}, {0, 0, -1}, {1, 0, 0}), 1, 1, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
  const geom::Vec3 tx{-1.0, 0.0, 0.0};
  const geom::Vec3 rx{1.5, 0.0, 0.0};
  SceneChannel channel(&env, kFreq, {tx, nullptr}, {&panel}, {rx});
  const surface::SurfaceConfig uniform(1);
  const auto power = channel.power_map({{uniform}});

  // Closed form: direct + element cascade.
  const double d1 = tx.distance_to({0, 0, 2});
  const double d2 = rx.distance_to({0, 0, 2});
  const double cos_in = 2.0 / d1;
  const double cos_out = 2.0 / d2;
  const em::Cx expected =
      em::free_space_gain(kFreq, tx.distance_to(rx)) +
      em::element_cascade_gain(kFreq, d.effective_area(), cos_in, cos_out, d1,
                               d2);
  EXPECT_NEAR(power[0], std::norm(expected), std::norm(expected) * 1e-9);
}

TEST(SceneChannel, PowersAtSubsetMatchesPowerMap) {
  const Environment env = empty_env();
  const surface::SurfacePanel panel = reflective_panel(4);
  const geom::SampleGrid grid(-0.5, 0.5, -0.5, 0.5, 0.0, 3, 2);
  SceneChannel channel(&env, kFreq, {{-1, 0, 0}, nullptr}, {&panel},
                       grid.points());
  const surface::SurfaceConfig uniform(panel.element_count());
  const auto power = channel.power_map({{uniform}});
  // Any subset, in any order, reads the same bits as the full sweep.
  const std::vector<std::size_t> subset{4, 0, 2};
  const auto powers =
      channel.powers_at(subset, channel.coefficients_for({{uniform}}));
  ASSERT_EQ(powers.size(), subset.size());
  for (std::size_t k = 0; k < subset.size(); ++k) {
    EXPECT_EQ(powers[k], power[subset[k]]) << "rx " << subset[k];
  }
}

TEST(SceneChannel, LinearInCoefficients) {
  const Environment env = empty_env();
  const surface::SurfacePanel panel = reflective_panel(4);
  const geom::Vec3 tx{-1.0, 0.3, 0.0};
  SceneChannel channel(&env, kFreq, {tx, nullptr}, {&panel},
                       {{1.2, -0.4, 0.1}});
  util::Rng rng(5);
  em::CxPlanes c1(panel.element_count());
  em::CxPlanes c2(panel.element_count());
  for (std::size_t i = 0; i < c1.size(); ++i) {
    c1.set(i, em::expj(rng.uniform(0, util::kTwoPi)));
    c2.set(i, em::expj(rng.uniform(0, util::kTwoPi)));
  }
  const em::Cx h1 = channel.evaluate(0, {{c1}});
  const em::Cx h2 = channel.evaluate(0, {{c2}});
  // Superposition: h(a*c1 + b*c2) - h(0) = a*(h(c1)-h(0)) + b*(h(c2)-h(0)).
  const em::CxPlanes zero(panel.element_count());
  const em::Cx h0 = channel.evaluate(0, {{zero}});
  em::CxPlanes mix(panel.element_count());
  const double a = 0.3, b = 0.6;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    mix.set(i, a * c1.at(i) + b * c2.at(i));
  }
  const em::Cx hm = channel.evaluate(0, {{mix}});
  const em::Cx expected = h0 + a * (h1 - h0) + b * (h2 - h0);
  EXPECT_NEAR(std::abs(hm - expected), 0.0, 1e-12);
}

TEST(SceneChannel, ZeroCoefficientsGiveDirectOnly) {
  const Environment env = empty_env();
  const surface::SurfacePanel panel = reflective_panel(4);
  const geom::Vec3 tx{-1.0, 0.0, 0.0};
  const geom::Vec3 rx{2.0, 0.0, 0.0};
  SceneChannel channel(&env, kFreq, {tx, nullptr}, {&panel}, {rx});
  const em::CxPlanes zero(panel.element_count());
  const em::Cx h = channel.evaluate(0, {{zero}});
  EXPECT_NEAR(std::abs(h - channel.direct(0)), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(channel.direct(0) -
                       em::free_space_gain(kFreq, tx.distance_to(rx))),
              0.0, 1e-15);
}

TEST(SceneChannel, FocusBeatsUniformSubstantially) {
  // Block the direct path so the surface is the dominant route (the regime
  // surfaces are deployed for); focusing must then deliver a large gain.
  // A low metal fence in the x=0 plane blocks the ground-level direct path
  // but not the elevated panel legs (panel center sits at z=2).
  Environment env(em::MaterialDb::standard());
  env.add_vertical_wall(0.0, -2.0, 0.0, 0.0, 0.0, 1.0, em::kMatMetal);
  env.finalize();
  const surface::SurfacePanel panel = reflective_panel(12);
  const geom::Vec3 tx{-1.5, -1.0, 0.0};
  const geom::Vec3 rx{1.8, -1.0, 0.0};
  SceneChannel channel(&env, kFreq, {tx, nullptr}, {&panel}, {rx});
  const surface::SurfaceConfig uniform(panel.element_count());
  const surface::SurfaceConfig focus = panel.focus_config(tx, rx, kFreq);
  const double p_uniform = channel.power_map({{uniform}})[0];
  const double p_focus = channel.power_map({{focus}})[0];
  EXPECT_GT(util::to_db(p_focus / p_uniform), 10.0);
}

TEST(SceneChannel, ReflectivePanelIgnoresRxBehindIt) {
  const Environment env = empty_env();
  const surface::SurfacePanel panel = reflective_panel(4);  // faces -z
  const geom::Vec3 tx{-1.0, 0.0, 0.0};
  const geom::Vec3 rx_behind{1.0, 0.0, 4.0};  // above the panel plane z=2
  SceneChannel channel(&env, kFreq, {tx, nullptr}, {&panel}, {rx_behind});
  const surface::SurfaceConfig focus = panel.focus_config(tx, rx_behind, kFreq);
  const auto coeffs = channel.coefficients_for({{focus}});
  // The surface term must be gated off: channel equals direct.
  EXPECT_NEAR(std::abs(channel.evaluate(0, coeffs) - channel.direct(0)), 0.0,
              1e-15);
}

TEST(SceneChannel, PartialsMatchFiniteDifference) {
  const Environment env = empty_env();
  const surface::SurfacePanel panel = reflective_panel(3);
  const geom::Vec3 tx{-1.0, 0.2, 0.0};
  SceneChannel channel(&env, kFreq, {tx, nullptr}, {&panel},
                       {{1.0, -0.3, 0.2}});
  util::Rng rng(17);
  std::vector<double> phases(panel.element_count());
  for (double& p : phases) p = rng.uniform(0, util::kTwoPi);

  auto coeffs_of = [&](const std::vector<double>& ph) {
    std::vector<em::CxPlanes> c(1, em::CxPlanes(ph.size()));
    for (std::size_t i = 0; i < ph.size(); ++i) c[0].set(i, em::expj(ph[i]));
    return c;
  };

  em::Cx h;
  std::vector<em::CxPlanes> dh_dc;
  channel.evaluate_with_partials(0, coeffs_of(phases), h, dh_dc);

  const double eps = 1e-7;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    auto plus = phases;
    auto minus = phases;
    plus[i] += eps;
    minus[i] -= eps;
    const em::Cx fd = (channel.evaluate(0, coeffs_of(plus)) -
                       channel.evaluate(0, coeffs_of(minus))) /
                      (2.0 * eps);
    // dh/dphi_i = j * c_i * dh/dc_i.
    const em::Cx analytic =
        em::Cx{0.0, 1.0} * em::expj(phases[i]) * dh_dc[0].at(i);
    EXPECT_NEAR(std::abs(fd - analytic), 0.0, 1e-9 + 1e-4 * std::abs(analytic))
        << "element " << i;
  }
}

TEST(SceneChannel, TwoPanelCascadeAddsRelayPath) {
  // TX sees only panel A; RX sees only panel B (metal wall between TX and
  // RX); the A->B cascade is the only usable route.
  Environment env(em::MaterialDb::standard());
  env.add_vertical_wall(0.0, -0.4, 0.0, 4.0, 0.0, 3.0, em::kMatMetal);
  env.finalize();

  surface::ElementDesign d;
  d.spacing_m = em::wavelength(kFreq) / 2.0;
  d.insertion_loss_db = 0.0;
  // Panel A at y=-1 faces +y-ish region x<0... place both on the open side
  // y < -0.4 extended: A reflects TX toward B, B reflects toward RX.
  const surface::SurfacePanel a(
      "A", geom::Frame({-1.0, -1.5, 1.5}, {0.3, 1.0, 0.0}), 10, 10, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
  const surface::SurfacePanel b(
      "B", geom::Frame({1.0, -1.5, 1.5}, {-0.3, 1.0, 0.0}), 10, 10, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
  const geom::Vec3 tx{-1.5, 2.0, 1.5};  // x<0 side of the metal wall
  const geom::Vec3 rx{1.5, 2.0, 1.5};   // x>0 side

  SceneChannel channel(&env, kFreq, {tx, nullptr}, {&a, &b}, {rx});

  // Chain focus: A focuses TX onto B's center, B focuses A's center onto RX.
  const auto config_a = a.focus_config(tx, b.center(), kFreq);
  const auto config_b = b.focus_config(a.center(), rx, kFreq);
  const std::vector<surface::SurfaceConfig> configs{config_a, config_b};
  const double with_cascade = channel.power_map(configs)[0];
  // Without the cascade: the single-bounce closed form
  // h_dir + sum_p g_p^T diag(c_p) f_p over the panels that serve TX -> RX.
  const auto coefficients = channel.coefficients_for(configs);
  em::Cx h = channel.direct(0);
  for (std::size_t p = 0; p < channel.panel_count(); ++p) {
    if (!channel.panel(p).serves(tx, rx)) continue;
    const em::CxPlanes& f = channel.tx_planes(p);
    const em::CxPlanes& g = channel.rx_planes(p, 0);
    for (std::size_t i = 0; i < f.size(); ++i) {
      h += g.at(i) * coefficients[p].at(i) * f.at(i);
    }
  }
  const double without_cascade = std::norm(h);
  EXPECT_GT(with_cascade, without_cascade * 10.0);
}

TEST(SceneChannel, CascadePartialsMatchFiniteDifference) {
  const Environment env = empty_env();
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(kFreq) / 2.0;
  d.insertion_loss_db = 0.0;
  const surface::SurfacePanel a(
      "A", geom::Frame({-0.5, 0.0, 1.5}, {0.3, 0.3, -1.0}), 2, 2, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
  const surface::SurfacePanel b(
      "B", geom::Frame({0.5, 0.0, 1.5}, {-0.3, 0.2, -1.0}), 2, 2, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
  SceneChannel channel(&env, kFreq, {{-1.0, 0.0, 0.0}, nullptr}, {&a, &b},
                       {{1.0, 0.1, 0.0}});
  util::Rng rng(23);
  std::vector<std::vector<double>> phases{
      std::vector<double>(4), std::vector<double>(4)};
  for (auto& panel_phases : phases) {
    for (double& p : panel_phases) p = rng.uniform(0, util::kTwoPi);
  }
  auto coeffs_of = [&](const std::vector<std::vector<double>>& ph) {
    std::vector<em::CxPlanes> out(2, em::CxPlanes(4));
    for (int p = 0; p < 2; ++p) {
      for (int i = 0; i < 4; ++i) out[p].set(i, em::expj(ph[p][i]));
    }
    return out;
  };
  em::Cx h;
  std::vector<em::CxPlanes> dh_dc;
  channel.evaluate_with_partials(0, coeffs_of(phases), h, dh_dc);
  const double eps = 1e-7;
  for (int p = 0; p < 2; ++p) {
    for (int i = 0; i < 4; ++i) {
      auto plus = phases;
      auto minus = phases;
      plus[p][i] += eps;
      minus[p][i] -= eps;
      const em::Cx fd = (channel.evaluate(0, coeffs_of(plus)) -
                         channel.evaluate(0, coeffs_of(minus))) /
                        (2.0 * eps);
      const em::Cx analytic =
          em::Cx{0.0, 1.0} * em::expj(phases[p][i]) * dh_dc[p].at(i);
      EXPECT_NEAR(std::abs(fd - analytic), 0.0,
                  1e-10 + 1e-4 * std::abs(analytic))
          << "panel " << p << " element " << i;
    }
  }
}

// --- RIS far-field scaling ----------------------------------------------------
// A co-phased single panel in free space: every element's cascade adds in
// phase, so the surface term's power is (sum_e |f_e||g_e|)^2. In the far
// field each |f_e||g_e| ~ 1/(d1 d2) at fixed angles, so the power grows as
// N^2 with the element count and falls as 1/(d1 d2)^2 with the distances.

/// Surface-term power at TX distance d1 and RX distance d2 along fixed
/// directions from the panel center, with the panel co-phased for that
/// pair (coefficients conj(f_e g_e) / |f_e g_e|).
double co_phased_power(const Environment& env,
                       const surface::SurfacePanel& panel, double d1,
                       double d2) {
  const geom::Vec3 center = panel.center();
  const geom::Vec3 to_tx = geom::Vec3(-1.0, 0.0, -1.0).normalized();
  const geom::Vec3 to_rx = geom::Vec3(1.0, 0.4, -1.0).normalized();
  SceneChannel channel(&env, kFreq, {center + to_tx * d1, nullptr}, {&panel},
                       {center + to_rx * d2});
  const em::CxPlanes& f = channel.tx_planes(0);
  const em::CxPlanes& g = channel.rx_planes(0, 0);
  em::CxPlanes c(panel.element_count());
  for (std::size_t e = 0; e < c.size(); ++e) {
    const em::Cx route = f.at(e) * g.at(e);
    c.set(e, std::conj(route) / std::abs(route));
  }
  return std::norm(channel.evaluate(0, {{c}}) - channel.direct(0));
}

surface::SurfacePanel far_field_panel(std::size_t rows, std::size_t cols) {
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(kFreq) / 2.0;
  d.insertion_loss_db = 0.0;
  return surface::SurfacePanel(
      "ris", geom::Frame({0, 0, 2.0}, {0, 0, -1}, {1, 0, 0}), rows, cols, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
}

TEST(RisFarField, CoPhasedPowerScalesAsElementCountSquared) {
  const Environment env = empty_env();
  // Apertures up to 16 x 16 half-wavelength elements (8.6 cm): the
  // Fraunhofer distance 2 D^2 / lambda is under 3 m, well inside 20 m.
  for (const auto& [d1, d2] : {std::pair{20.0, 20.0}, std::pair{30.0, 25.0}}) {
    for (std::size_t rows : {4u, 8u}) {
      const double p_n = co_phased_power(env, far_field_panel(rows, 8), d1, d2);
      const double p_2n =
          co_phased_power(env, far_field_panel(rows, 16), d1, d2);
      EXPECT_NEAR(util::to_db(p_2n / p_n), util::to_db(4.0), 0.5)
          << rows << " x 8 -> " << rows << " x 16 at " << d1 << ", " << d2;
    }
    const double p_64 = co_phased_power(env, far_field_panel(8, 8), d1, d2);
    const double p_256 = co_phased_power(env, far_field_panel(16, 16), d1, d2);
    EXPECT_NEAR(util::to_db(p_256 / p_64), util::to_db(16.0), 0.5);
  }
}

TEST(RisFarField, CoPhasedPowerFallsAsInverseSquareOfPathProduct) {
  const Environment env = empty_env();
  const surface::SurfacePanel panel = far_field_panel(8, 8);
  const double reference = co_phased_power(env, panel, 10.0, 10.0) *
                           std::pow(10.0 * 10.0, 2);
  for (const auto& [d1, d2] :
       {std::pair{20.0, 10.0}, std::pair{10.0, 40.0}, std::pair{25.0, 30.0},
        std::pair{60.0, 15.0}}) {
    const double scaled =
        co_phased_power(env, panel, d1, d2) * std::pow(d1 * d2, 2);
    EXPECT_NEAR(util::to_db(scaled / reference), 0.0, 0.5)
        << "d1 " << d1 << ", d2 " << d2;
  }
}

// --- Two-ray ground model ----------------------------------------------------
// TX and RX over one large concrete ground slab. The traced field is the
// direct path plus Gamma times the image path, Gamma being the slab's
// reflection coefficient at the image path's grazing angle. Past the
// crossover distance 4 h_t h_r / lambda the two paths nearly cancel and
// power falls 40 dB per decade.

constexpr double kTxHeight = 0.5;
constexpr double kRxHeight = 0.3;

Environment ground_env() {
  Environment env(em::MaterialDb::standard());
  env.add_horizontal_slab(-10, 6000, -100, 100, 0.0, em::kMatConcrete);
  env.finalize();
  return env;
}

double crossover_m() {
  return 4.0 * kTxHeight * kRxHeight / em::wavelength(kFreq);
}

em::Cx ground_gamma(const Environment& env, double d) {
  // The incidence angle is measured from the slab normal.
  const double incidence = std::atan2(d, kTxHeight + kRxHeight);
  return em::reflection_coefficient(env.materials().get(em::kMatConcrete),
                                    kFreq, incidence);
}

double two_ray_power(const Environment& env, double d) {
  const double direct = std::hypot(d, kTxHeight - kRxHeight);
  const double image = std::hypot(d, kTxHeight + kRxHeight);
  return std::norm(em::free_space_gain(kFreq, direct) +
                   ground_gamma(env, d) * em::free_space_gain(kFreq, image));
}

double traced_power(const RayTracer& tracer, double d) {
  return std::norm(tracer.total_gain({0, 0, kTxHeight}, {d, 0, kRxHeight}));
}

TEST(TwoRayGround, TracedPowerMatchesClosedFormAcrossCrossover) {
  const Environment env = ground_env();
  const RayTracer tracer(&env, kFreq, {1, 1e-15});
  for (const double m : {0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    const double d = m * crossover_m();
    ASSERT_EQ(tracer.trace({0, 0, kTxHeight}, {d, 0, kRxHeight}).size(), 2u)
        << d << " m";
    EXPECT_NEAR(util::to_db(traced_power(tracer, d) / two_ray_power(env, d)),
                0.0, 0.5)
        << m << " x crossover (" << d << " m)";
  }
}

TEST(TwoRayGround, PowerFallsFortyDbPerDecadePastCrossover) {
  const Environment env = ground_env();
  const RayTracer tracer(&env, kFreq, {1, 1e-15});
  const double near = 10.0 * crossover_m();
  const double far = 10.0 * near;
  ASSERT_GE(std::abs(ground_gamma(env, near)), 0.95);
  ASSERT_GE(std::abs(ground_gamma(env, far)), 0.95);
  EXPECT_NEAR(
      util::to_db(traced_power(tracer, near) / traced_power(tracer, far)),
      40.0, 2.0);
}

TEST(SceneChannel, RejectsBadInput) {
  const Environment env = empty_env();
  const surface::SurfacePanel panel = reflective_panel(2);
  EXPECT_THROW(SceneChannel(nullptr, kFreq, {{0, 0, 0}, nullptr}, {&panel},
                            {{1, 0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(
      SceneChannel(&env, kFreq, {{0, 0, 0}, nullptr}, {&panel}, {}),
      std::invalid_argument);
  SceneChannel channel(&env, kFreq, {{-1, 0, 0}, nullptr}, {&panel},
                       {{1, 0, 0}});
  const em::CxPlanes wrong_size(3);
  EXPECT_THROW(channel.evaluate(0, {{wrong_size}}), std::invalid_argument);
}

// --- WidebandChannel ---------------------------------------------------------------

TEST(Wideband, SubcarrierGridSpansBandwidth) {
  const Environment env = empty_env();
  const surface::SurfacePanel panel = reflective_panel(4);
  const WidebandChannel wideband(&env, 28e9, 400e6, 9, {{-1, 0, 0}, nullptr},
                                 {&panel}, {{1, 0, 0}});
  EXPECT_EQ(wideband.subcarrier_count(), 9u);
  EXPECT_DOUBLE_EQ(wideband.subcarrier_hz(0), 28e9 - 200e6);
  EXPECT_DOUBLE_EQ(wideband.subcarrier_hz(8), 28e9 + 200e6);
  EXPECT_DOUBLE_EQ(wideband.subcarrier_hz(4), 28e9);
  EXPECT_THROW(WidebandChannel(&env, 28e9, -1.0, 4, {{-1, 0, 0}, nullptr},
                               {&panel}, {{1, 0, 0}}),
               std::invalid_argument);
}

TEST(Wideband, CenterSubcarrierMatchesNarrowbandChannel) {
  const Environment env = empty_env();
  const surface::SurfacePanel panel = reflective_panel(6);
  const geom::Vec3 tx{-1, 0.3, 0};
  const geom::Vec3 rx{1.4, -0.5, 0.2};
  const em::LinkBudget budget{10.0, 400e6, 7.0};
  const WidebandChannel wideband(&env, kFreq, 400e6, 9, {tx, nullptr},
                                 {&panel}, {rx});
  const SceneChannel narrow(&env, kFreq, {tx, nullptr}, {&panel}, {rx});
  const std::vector<surface::SurfaceConfig> configs{
      panel.focus_config(tx, rx, kFreq)};
  const auto snr = wideband.snr_per_subcarrier(0, configs, budget);
  const auto coeffs = narrow.coefficients_for(configs);
  EXPECT_NEAR(snr[4], budget.snr_db(std::norm(narrow.evaluate(0, coeffs))),
              1e-9);
}

TEST(Wideband, SquintGrowsWithBandwidthOnLargeApertures) {
  Environment env(em::MaterialDb::standard());
  env.add_vertical_wall(0.0, -3.0, 0.0, 3.0, 0.0, 1.0, em::kMatMetal);
  env.finalize();
  const geom::Vec3 tx{-2.5, -1.0, 0.0};
  const geom::Vec3 rx{2.5, -1.2, 0.0};
  const em::LinkBudget budget{10.0, 400e6, 7.0};
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(kFreq) / 2.0;
  d.insertion_loss_db = 0.0;
  const surface::SurfacePanel panel(
      "p", geom::Frame({0, 0, 2.5}, {0, 0, -1}, {1, 0, 0}), 32, 32, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
  const std::vector<surface::SurfaceConfig> configs{
      panel.focus_config(tx, rx, kFreq)};
  const auto loss_at = [&](double bw) {
    const WidebandChannel wideband(&env, kFreq, bw, 9, {tx, nullptr}, {&panel},
                                   {rx});
    const auto snr = wideband.snr_per_subcarrier(0, configs, budget);
    return snr[4] - std::min(snr.front(), snr.back());
  };
  EXPECT_GT(loss_at(2000e6), loss_at(400e6) + 0.5);
}

// --- Heatmap ---------------------------------------------------------------------

TEST(Heatmap, StatsAndAccessors) {
  const geom::SampleGrid grid(0, 2, 0, 1, 1, 2, 1);
  Heatmap map{grid, {1.0, 3.0}};
  EXPECT_DOUBLE_EQ(map.min_value(), 1.0);
  EXPECT_DOUBLE_EQ(map.max_value(), 3.0);
  EXPECT_DOUBLE_EQ(map.median_value(), 2.0);
  EXPECT_DOUBLE_EQ(map.at(1, 0), 3.0);
}

TEST(Heatmap, AsciiRenderDimensions) {
  const geom::SampleGrid grid(0, 3, 0, 2, 1, 3, 2);
  Heatmap map{grid, {0, 1, 2, 3, 4, 5}};
  const std::string art = render_ascii(map, 0.0, 5.0);
  // 2 rows of 3 chars + newlines.
  EXPECT_EQ(art.size(), 8u);
  EXPECT_THROW(render_ascii(map, 5.0, 0.0), std::invalid_argument);
}

TEST(Heatmap, RssMapMatchesManualEvaluation) {
  const Environment env = empty_env();
  const surface::SurfacePanel panel = reflective_panel(4);
  const geom::SampleGrid grid(-0.5, 0.5, -0.5, 0.5, 0.0, 2, 2);
  const em::LinkBudget budget{10.0, 400e6, 7.0};
  SceneChannel channel(&env, kFreq, {{-1, 0, 0}, nullptr}, {&panel},
                       grid.points());
  const surface::SurfaceConfig uniform(panel.element_count());
  const Heatmap map = rss_heatmap(channel, grid, budget, {{uniform}});
  const auto power = channel.power_map({{uniform}});
  for (std::size_t i = 0; i < power.size(); ++i) {
    EXPECT_NEAR(map.values[i], budget.rss_dbm(power[i]), 1e-12);
  }
}

// --- Floorplans --------------------------------------------------------------------

TEST(Floorplan, CoverageRoomGuarantees) {
  const CoverageRoomScenario s = make_coverage_room(6);
  ASSERT_TRUE(s.environment->finalized());
  // The AP sees the surface mount through the door gap.
  const double ap_to_surface = std::abs(s.environment->segment_transmission(
      s.ap_position, s.surface_pose.origin(), em::band_center(s.band)));
  EXPECT_GT(ap_to_surface, 0.5);
  // The surface mount sees every grid point unobstructed above furniture.
  std::size_t visible = 0;
  for (const auto& p : s.room_grid.points()) {
    if (std::abs(s.environment->segment_transmission(
            s.surface_pose.origin(), p, em::band_center(s.band))) > 0.5) {
      ++visible;
    }
  }
  EXPECT_GT(visible, s.room_grid.size() * 8 / 10);
  // Direct AP -> room-center path is heavily attenuated (concrete wall).
  const geom::Vec3 room_center = s.room_grid.point(s.room_grid.size() / 2);
  const double direct = std::abs(s.environment->segment_transmission(
      s.ap_position, geom::Vec3{0.8, room_center.y, 1.0},
      em::band_center(s.band)));
  EXPECT_LT(util::amplitude_to_db(std::max(direct, 1e-12)), -20.0);
}

TEST(Floorplan, ApartmentGuarantees) {
  const ApartmentScenario s = make_apartment(6);
  const double f = em::band_center(s.band);
  // AP -> surface window: line of sight (the window sits in the wall plane,
  // so the segment ends at, not through, the wall).
  EXPECT_GT(std::abs(s.environment->segment_transmission(
                s.ap_position, s.window_mount.origin(), f)),
            0.7);
  // Surface window -> bedroom steering mount: clear within the bedroom.
  EXPECT_GT(std::abs(s.environment->segment_transmission(
                s.window_mount.origin(), s.bedroom_mount.origin(), f)),
            0.7);
  // The window's front half-space is the bedroom; the AP is behind it
  // (transmissive geometry), and the steering mount faces the whole grid.
  EXPECT_LT((s.ap_position - s.window_mount.origin()).dot(
                s.window_mount.normal()),
            0.0);
  for (const auto& p : s.bedroom_grid.points()) {
    EXPECT_GT((p - s.window_mount.origin()).dot(s.window_mount.normal()), 0.0);
    EXPECT_GT((p - s.bedroom_mount.origin()).dot(s.bedroom_mount.normal()),
              0.0);
  }
}

TEST(Floorplan, ApartmentDirectCoverageIsNegligible) {
  const ApartmentScenario s = make_apartment(6);
  // "Without surfaces, there is basically no coverage in the target room."
  SceneChannel channel(s.environment.get(), em::band_center(s.band), s.ap(),
                       {}, s.bedroom_grid.points());
  std::vector<double> snr;
  for (std::size_t j = 0; j < channel.rx_count(); ++j) {
    snr.push_back(s.budget.snr_db(std::norm(channel.direct(j))));
  }
  std::sort(snr.begin(), snr.end());
  EXPECT_LT(snr[snr.size() / 2], 5.0);  // median below usable
}

}  // namespace
}  // namespace surfos::sim
