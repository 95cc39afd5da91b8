// Time-of-flight ranging tests: exact recovery on synthetic single-path
// taps, robustness to amplitude variation and noise, residual-based
// multipath flagging, and full range+bearing localization against the
// simulated channel — no oracle ToF anywhere.
#include <gtest/gtest.h>

#include <cmath>

#include "em/propagation.hpp"
#include "em/soa.hpp"
#include "sense/steering.hpp"
#include "sense/tof.hpp"
#include "sim/channel.hpp"
#include "util/rng.hpp"

namespace surfos::sense {
namespace {

em::CxPlanes single_path_taps(std::span<const double> frequencies_hz,
                              double distance_m, double amplitude = 1.0) {
  em::CxPlanes taps(frequencies_hz.size());
  for (std::size_t k = 0; k < frequencies_hz.size(); ++k) {
    taps.set(k, std::polar(amplitude,
                           -em::wavenumber(frequencies_hz[k]) * distance_m));
  }
  return taps;
}

/// n elements, all equal to `value`.
em::CxPlanes filled(std::size_t n, em::Cx value) {
  em::CxPlanes v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, value);
  return v;
}

TEST(SubcarrierGrid, SpansBandwidthSymmetrically) {
  const auto grid = subcarrier_grid(28e9, 400e6, 11);
  ASSERT_EQ(grid.size(), 11u);
  EXPECT_DOUBLE_EQ(grid.front(), 28e9 - 200e6);
  EXPECT_DOUBLE_EQ(grid.back(), 28e9 + 200e6);
  EXPECT_DOUBLE_EQ(grid[5], 28e9);
  EXPECT_THROW(subcarrier_grid(28e9, 400e6, 1), std::invalid_argument);
  EXPECT_THROW(subcarrier_grid(28e9, -1.0, 8), std::invalid_argument);
}

TEST(Tof, ExactOnCleanSinglePath) {
  const auto grid = subcarrier_grid(28e9, 400e6, 32);
  for (const double d : {0.8, 2.4, 3.7, 6.2}) {
    const TofEstimate estimate = estimate_distance(grid, single_path_taps(grid, d));
    EXPECT_NEAR(estimate.distance_m, d, 1e-6) << "distance " << d;
    EXPECT_LT(estimate.residual_rad, 1e-9);
  }
}

TEST(Tof, AmplitudeVariationDoesNotBias) {
  const auto grid = subcarrier_grid(28e9, 400e6, 32);
  em::CxPlanes taps = single_path_taps(grid, 3.0);
  // Frequency-dependent amplitude (antenna rolloff) leaves phases intact.
  for (std::size_t k = 0; k < taps.size(); ++k) {
    taps.set(k, taps.at(k) *
                    (0.5 + 0.4 * std::cos(static_cast<double>(k) * 0.2)));
  }
  EXPECT_NEAR(estimate_distance(grid, taps).distance_m, 3.0, 1e-6);
}

TEST(Tof, ToleratesPhaseNoise) {
  util::Rng rng(19);
  const auto grid = subcarrier_grid(28e9, 400e6, 64);
  em::CxPlanes taps = single_path_taps(grid, 4.5);
  for (std::size_t k = 0; k < taps.size(); ++k) {
    taps.set(k, taps.at(k) * em::expj(0.05 * rng.normal()));
  }
  const TofEstimate estimate = estimate_distance(grid, taps);
  EXPECT_NEAR(estimate.distance_m, 4.5, 0.05);
  EXPECT_GT(estimate.residual_rad, 1e-4);  // noise shows in the residual
}

TEST(Tof, MultipathRaisesResidual) {
  const auto grid = subcarrier_grid(28e9, 400e6, 64);
  const em::CxPlanes clean = single_path_taps(grid, 3.0);
  em::CxPlanes corrupted = clean;
  const em::CxPlanes echo = single_path_taps(grid, 7.5, 0.6);
  for (std::size_t k = 0; k < corrupted.size(); ++k) {
    corrupted.set(k, corrupted.at(k) + echo.at(k));
  }
  const double clean_residual = estimate_distance(grid, clean).residual_rad;
  const double dirty_residual = estimate_distance(grid, corrupted).residual_rad;
  EXPECT_GT(dirty_residual, clean_residual * 100.0 + 1e-6);
}

TEST(Tof, RejectsBadInput) {
  const auto grid = subcarrier_grid(28e9, 400e6, 8);
  EXPECT_THROW(estimate_distance(grid, em::CxPlanes(3)),
               std::invalid_argument);
  EXPECT_THROW(estimate_distance(std::vector<double>{28e9}, filled(1, {1, 0})),
               std::invalid_argument);
  const std::vector<double> degenerate(4, 28e9);
  EXPECT_THROW(estimate_distance(degenerate, filled(4, {1, 0})),
               std::invalid_argument);
}

TEST(RangeBearingTest, LocalizesClientWithoutOracle) {
  // Full pipeline against the simulator: per-subcarrier element snapshots of
  // a panel -> bearing + range -> position, compared to ground truth.
  const double center = em::band_center(em::Band::k28GHz);
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(center) / 2.0;
  const surface::SurfacePanel panel(
      "aperture", geom::Frame({0, 0, 1.5}, {1, 0, 0}), 8, 8, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
  sim::Environment env(em::MaterialDb::standard());
  env.finalize();

  const geom::Vec3 client =
      panel.center() + azimuth_direction(panel, 0.4) * 2.8;
  const auto grid = subcarrier_grid(center, 400e6, 16);
  std::vector<em::CxPlanes> taps;
  for (const double f : grid) {
    const sim::SceneChannel channel(&env, f, {{-2.0, 1.0, 1.5}, nullptr},
                                    {&panel}, {client});
    taps.push_back(channel.rx_planes(0, 0));
  }
  const RangeBearing estimate = range_and_bearing(panel, grid, taps);
  EXPECT_NEAR(estimate.azimuth_rad, 0.4, 0.03);
  // Range is the client->center-element distance (elements sit around the
  // panel center).
  EXPECT_NEAR(estimate.range_m, 2.8, 0.1);
  const geom::Vec3 position =
      position_from_range_bearing(panel, estimate, client.z);
  EXPECT_LT(position.distance_to(client), 0.25);
}

TEST(RangeBearingTest, ValidatesInput) {
  const double center = 28e9;
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(center) / 2.0;
  const surface::SurfacePanel panel(
      "p", geom::Frame({0, 0, 0}, {0, 0, 1}), 2, 2, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
  const auto grid = subcarrier_grid(center, 100e6, 4);
  std::vector<em::CxPlanes> wrong_size(4, em::CxPlanes(3));
  EXPECT_THROW(range_and_bearing(panel, grid, wrong_size),
               std::invalid_argument);
  std::vector<em::CxPlanes> too_few(1, em::CxPlanes(4));
  EXPECT_THROW(range_and_bearing(panel, std::vector<double>{center}, too_few),
               std::invalid_argument);
}

}  // namespace
}  // namespace surfos::sense
