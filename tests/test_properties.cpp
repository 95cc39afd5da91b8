// Cross-cutting property suites (parameterized): invariants that must hold
// for every frequency band, every panel geometry, and randomized
// configurations — the fuzz layer on top of the per-module unit tests.
#include <gtest/gtest.h>

#include <cmath>

#include "em/material.hpp"
#include "em/propagation.hpp"
#include "sense/aoa.hpp"
#include "sense/steering.hpp"
#include "sim/channel.hpp"
#include "surface/config.hpp"
#include "surface/panel.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace surfos {
namespace {

const em::Band kAllBands[] = {em::Band::kSub1GHz, em::Band::k2_4GHz,
                              em::Band::k5GHz, em::Band::k24GHz,
                              em::Band::k28GHz, em::Band::k60GHz};

std::string band_case_name(const ::testing::TestParamInfo<em::Band>& info) {
  std::string name{em::band_name(info.param)};
  std::string out;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) out.push_back(c);
    else out.push_back('_');
  }
  return out;
}

// --- Per-band physics invariants ----------------------------------------------

class BandProperties : public ::testing::TestWithParam<em::Band> {};

TEST_P(BandProperties, WavelengthMatchesCenterFrequency) {
  const double f = em::band_center(GetParam());
  EXPECT_NEAR(em::wavelength(f) * f, em::kSpeedOfLight, 1.0);
  EXPECT_GT(em::band_bandwidth(GetParam()), 0.0);
}

TEST_P(BandProperties, MaterialsConserveEnergyAcrossBands) {
  const em::MaterialDb db = em::MaterialDb::standard();
  const double f = em::band_center(GetParam());
  for (int id = 0; id < static_cast<int>(db.size()); ++id) {
    for (const double angle : {0.0, 0.5, 1.2}) {
      const auto r = em::slab_response(db.get(id), f, angle);
      EXPECT_LE(r.reflection + r.transmission, 1.0 + 1e-9)
          << db.get(id).name << " band " << em::band_name(GetParam());
    }
  }
}

TEST_P(BandProperties, FocusGainScalesWithAperture) {
  // At every band, a focused 8x8 surface must beat a focused 4x4 by close
  // to the 12 dB aperture-squared law (blockage-free geometry).
  const double f = em::band_center(GetParam());
  sim::Environment env{em::MaterialDb::standard()};
  env.finalize();
  const geom::Vec3 tx{-1.5, -1.0, 0.0};
  const geom::Vec3 rx{1.5, -1.0, 0.0};
  double power[2] = {0.0, 0.0};
  const std::size_t sizes[2] = {4, 8};
  for (int i = 0; i < 2; ++i) {
    surface::ElementDesign d;
    d.spacing_m = em::wavelength(f) / 2.0;
    d.insertion_loss_db = 0.0;
    const surface::SurfacePanel panel(
        "p", geom::Frame({0, 0, 2}, {0, 0, -1}, {1, 0, 0}), sizes[i],
        sizes[i], d, surface::OperationMode::kReflective,
        surface::Reconfigurability::kProgrammable,
        surface::ControlGranularity::kElement);
    const sim::SceneChannel channel(&env, f, {tx, nullptr}, {&panel}, {rx});
    const auto focus = panel.focus_config(tx, rx, f);
    const auto coeffs =
        channel.coefficients_for(std::vector<surface::SurfaceConfig>{focus});
    // Surface-only contribution (subtract the shared direct term).
    power[i] = std::norm(channel.evaluate(0, coeffs) - channel.direct(0));
  }
  EXPECT_NEAR(util::to_db(power[1] / power[0]), 12.0, 1.5)
      << em::band_name(GetParam());
}

TEST_P(BandProperties, BeamscanFindsTrueAngleOnEveryBand) {
  const double f = em::band_center(GetParam());
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(f) / 2.0;
  const surface::SurfacePanel panel(
      "p", geom::Frame({0, 0, 1.5}, {1, 0, 0}), 8, 8, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
  const sense::AoaSensingModel model(&panel, f, 181);
  for (const double truth : {-0.6, 0.0, 0.45}) {
    const em::CxPlanes v = sense::steering_vector(panel, truth, f);
    EXPECT_NEAR(model.estimate_azimuth(v), truth, 0.03)
        << em::band_name(GetParam()) << " angle " << truth;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBands, BandProperties,
                         ::testing::ValuesIn(kAllBands), band_case_name);

// --- Randomized configuration fuzz ---------------------------------------------

class ConfigFuzz : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConfigFuzz, SerializeRoundTripsRandomConfigs) {
  util::Rng rng(1000 + GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    surface::SurfaceConfig config(GetParam());
    for (std::size_t i = 0; i < config.size(); ++i) {
      config.set_phase(i, rng.uniform(0, util::kTwoPi));
      config.set_amplitude(i, rng.uniform());
    }
    const auto bytes = config.serialize();
    const auto back = surface::SurfaceConfig::deserialize(bytes);
    ASSERT_EQ(back.size(), config.size());
    for (std::size_t i = 0; i < config.size(); ++i) {
      EXPECT_NEAR(back.phase(i), config.phase(i), util::kTwoPi / 65000.0);
      EXPECT_NEAR(back.amplitude(i), config.amplitude(i), 1.0 / 250.0);
    }
  }
}

TEST_P(ConfigFuzz, QuantizationNeverMovesPhaseMoreThanHalfStep) {
  util::Rng rng(2000 + GetParam());
  for (const int bits : {1, 2, 3, 4}) {
    const double half_step = util::kPi / std::pow(2.0, bits);
    surface::SurfaceConfig config(GetParam());
    for (std::size_t i = 0; i < config.size(); ++i) {
      config.set_phase(i, rng.uniform(0, util::kTwoPi));
    }
    const auto quantized = config.quantized(bits);
    for (std::size_t i = 0; i < config.size(); ++i) {
      const double moved =
          std::fabs(util::wrap_pi(quantized.phase(i) - config.phase(i)));
      EXPECT_LE(moved, half_step + 1e-9) << "bits " << bits;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConfigFuzz,
                         ::testing::Values(1, 16, 256, 1024),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "n" + std::to_string(info.param);
                         });

// --- Channel invariants under random configurations ------------------------------

TEST(ChannelFuzz, PowerNeverExceedsFullyCoherentBound) {
  // |h_surface|^2 <= (sum |g_i f_i|)^2 for any phase configuration — the
  // triangle inequality on the single-bounce sum.
  sim::Environment env{em::MaterialDb::standard()};
  env.finalize();
  const double f = em::band_center(em::Band::k28GHz);
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(f) / 2.0;
  d.insertion_loss_db = 0.0;
  const surface::SurfacePanel panel(
      "p", geom::Frame({0, 0, 2}, {0, 0, -1}, {1, 0, 0}), 6, 6, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
  const geom::Vec3 tx{-1.0, 0.4, 0.0};
  const geom::Vec3 rx{1.3, -0.6, 0.2};
  const sim::SceneChannel channel(&env, f, {tx, nullptr}, {&panel}, {rx});
  double bound_amplitude = 0.0;
  for (std::size_t i = 0; i < panel.element_count(); ++i) {
    bound_amplitude += std::abs(channel.tx_planes(0).at(i)) *
                       std::abs(channel.rx_planes(0, 0).at(i));
  }
  util::Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    surface::SurfaceConfig config(panel.element_count());
    for (std::size_t i = 0; i < config.size(); ++i) {
      config.set_phase(i, rng.uniform(0, util::kTwoPi));
    }
    const auto coeffs =
        channel.coefficients_for(std::vector<surface::SurfaceConfig>{config});
    const double surface_amplitude =
        std::abs(channel.evaluate(0, coeffs) - channel.direct(0));
    EXPECT_LE(surface_amplitude, bound_amplitude * (1.0 + 1e-9))
        << "trial " << trial;
  }
}

TEST(ChannelFuzz, FocusConfigIsWithinEpsilonOfCoherentBound) {
  sim::Environment env{em::MaterialDb::standard()};
  env.finalize();
  const double f = em::band_center(em::Band::k28GHz);
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(f) / 2.0;
  d.insertion_loss_db = 0.0;
  const surface::SurfacePanel panel(
      "p", geom::Frame({0, 0, 2}, {0, 0, -1}, {1, 0, 0}), 6, 6, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
  const geom::Vec3 tx{-1.0, 0.4, 0.0};
  const geom::Vec3 rx{1.3, -0.6, 0.2};
  const sim::SceneChannel channel(&env, f, {tx, nullptr}, {&panel}, {rx});
  double bound = 0.0;
  for (std::size_t i = 0; i < panel.element_count(); ++i) {
    bound += std::abs(channel.tx_planes(0).at(i)) *
             std::abs(channel.rx_planes(0, 0).at(i));
  }
  const auto focus = panel.focus_config(tx, rx, f);
  const auto coeffs =
      channel.coefficients_for(std::vector<surface::SurfaceConfig>{focus});
  const double achieved =
      std::abs(channel.evaluate(0, coeffs) - channel.direct(0));
  // The focus profile co-phases every element exactly; only the (tiny)
  // numerical wrap error separates it from the coherent bound.
  EXPECT_GT(achieved, bound * 0.999);
}

}  // namespace
}  // namespace surfos
