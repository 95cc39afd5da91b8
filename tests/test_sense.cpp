// Sensing substrate tests: Hermitian eigendecomposition, steering vectors,
// beamscan and MUSIC AoA estimation on synthetic plane waves, the
// cross-entropy localization loss (including its analytic gradient against
// finite differences), and AoA -> position error conversion.
#include <gtest/gtest.h>

#include <cmath>

#include "em/propagation.hpp"
#include "em/soa.hpp"
#include "sense/aoa.hpp"
#include "sense/eigen.hpp"
#include "sense/localize.hpp"
#include "sense/steering.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace surfos::sense {
namespace {

constexpr double kFreq = 28e9;

surface::SurfacePanel make_aperture(std::size_t rows = 8, std::size_t cols = 8) {
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(kFreq) / 2.0;
  d.insertion_loss_db = 0.0;
  return surface::SurfacePanel(
      "aperture", geom::Frame({0, 0, 1.5}, {1, 0, 0}), rows, cols, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
}

/// Ideal plane-wave excitation from azimuth theta (matches steering).
em::CxPlanes plane_wave(const surface::SurfacePanel& panel, double theta,
                        double amplitude = 1.0, double phase = 0.0) {
  em::CxPlanes v = steering_vector(panel, theta, kFreq);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v.set(i, v.at(i) * std::polar(amplitude, phase));
  }
  return v;
}

/// n elements, all equal to `value`.
em::CxPlanes filled(std::size_t n, em::Cx value) {
  em::CxPlanes v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, value);
  return v;
}

// --- eigen -----------------------------------------------------------------------

TEST(Eigen, DiagonalMatrix) {
  em::CxPlaneMat m(3, 3);
  m.set(0, 0, {3.0, 0.0});
  m.set(1, 1, {1.0, 0.0});
  m.set(2, 2, {2.0, 0.0});
  const EigenResult result = hermitian_eigen(m);
  ASSERT_EQ(result.values.size(), 3u);
  EXPECT_NEAR(result.values[0], 1.0, 1e-10);
  EXPECT_NEAR(result.values[1], 2.0, 1e-10);
  EXPECT_NEAR(result.values[2], 3.0, 1e-10);
}

TEST(Eigen, ReconstructsHermitianMatrix) {
  // Build A = V D V^H from random vectors, then verify eigen recovers it:
  // check A v_k = lambda_k v_k for every eigenpair returned.
  util::Rng rng(31);
  const std::size_t n = 6;
  em::CxPlaneMat a(n, n);
  // Random Hermitian: B + B^H with B random.
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const em::Cx brc{rng.uniform(-1, 1), rng.uniform(-1, 1)};
      a.set(r, c, a.at(r, c) + brc);
      a.set(c, r, a.at(c, r) + std::conj(brc));
    }
  }
  const EigenResult result = hermitian_eigen(a);
  for (std::size_t k = 0; k < n; ++k) {
    // ||A v - lambda v|| small, v = column k of the eigenvectors.
    double err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      em::Cx av{};
      for (std::size_t c = 0; c < n; ++c) {
        av += a.at(i, c) * result.vectors.at(c, k);
      }
      err += std::norm(av - result.values[k] * result.vectors.at(i, k));
    }
    EXPECT_LT(std::sqrt(err), 1e-8) << "eigenpair " << k;
  }
}

TEST(Eigen, EigenvectorsAreOrthonormal) {
  util::Rng rng(37);
  const std::size_t n = 5;
  em::CxPlaneMat a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r; c < n; ++c) {
      if (r == c) {
        a.set(r, c, {rng.uniform(-1, 1), 0.0});
      } else {
        a.set(r, c, {rng.uniform(-1, 1), rng.uniform(-1, 1)});
      }
    }
  }
  const EigenResult result = hermitian_eigen(a);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      em::Cx dot{};
      for (std::size_t k = 0; k < n; ++k) {
        dot += std::conj(result.vectors.at(k, i)) * result.vectors.at(k, j);
      }
      EXPECT_NEAR(std::abs(dot), i == j ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(Eigen, RejectsNonSquare) {
  EXPECT_THROW(hermitian_eigen(em::CxPlaneMat(2, 3)), std::invalid_argument);
}

// --- steering ---------------------------------------------------------------------

TEST(Steering, GridEndpointsAndSize) {
  const auto grid = angle_grid(-1.0, 1.0, 21);
  ASSERT_EQ(grid.size(), 21u);
  EXPECT_DOUBLE_EQ(grid.front(), -1.0);
  EXPECT_DOUBLE_EQ(grid.back(), 1.0);
  EXPECT_THROW(angle_grid(1.0, -1.0, 5), std::invalid_argument);
  EXPECT_THROW(angle_grid(0.0, 1.0, 1), std::invalid_argument);
}

TEST(Steering, BoresightDirectionIsNormal) {
  const auto panel = make_aperture();
  const geom::Vec3 dir = azimuth_direction(panel, 0.0);
  EXPECT_NEAR((dir - panel.normal()).norm(), 0.0, 1e-12);
  EXPECT_NEAR(azimuth_direction(panel, 0.5).norm(), 1.0, 1e-12);
}

TEST(Steering, TrueAzimuthInverts) {
  const auto panel = make_aperture();
  for (const double theta : {-0.8, -0.2, 0.0, 0.4, 1.0}) {
    const geom::Vec3 p = panel.center() + azimuth_direction(panel, theta) * 3.0;
    EXPECT_NEAR(true_azimuth(panel, p), theta, 1e-9) << theta;
  }
}

TEST(Steering, SteeringVectorUnitModulus) {
  const auto panel = make_aperture(4, 4);
  const em::CxPlanes a = steering_vector(panel, 0.3, kFreq);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::abs(a.at(i)), 1.0, 1e-12);
  }
}

TEST(Steering, MatrixRowsMatchVectors) {
  const auto panel = make_aperture(3, 3);
  const auto angles = angle_grid(-0.5, 0.5, 5);
  const em::CxPlaneMat mat = steering_matrix(panel, angles, kFreq);
  for (std::size_t b = 0; b < angles.size(); ++b) {
    const em::CxPlanes a = steering_vector(panel, angles[b], kFreq);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(std::abs(mat.at(b, i) - a.at(i)), 0.0, 1e-12);
    }
  }
}

// --- beamscan / MUSIC ---------------------------------------------------------------

TEST(Beamscan, PeaksAtTrueAngle) {
  const auto panel = make_aperture();
  const auto angles = angle_grid(-1.2, 1.2, 241);
  const em::CxPlaneMat steering = steering_matrix(panel, angles, kFreq);
  for (const double truth : {-0.7, -0.15, 0.0, 0.33, 0.9}) {
    const auto spectrum = beamscan_spectrum(steering, plane_wave(panel, truth));
    const double peak = spectrum_peak(angles, spectrum);
    EXPECT_NEAR(peak, truth, 0.02) << "true angle " << truth;
  }
}

TEST(Beamscan, PeakValueIsNSquared) {
  const auto panel = make_aperture(4, 4);
  const auto angles = angle_grid(-0.001, 0.001, 3);
  const em::CxPlaneMat steering = steering_matrix(panel, angles, kFreq);
  const auto spectrum = beamscan_spectrum(steering, plane_wave(panel, 0.0));
  // a^H a = N at the matched angle, so |.|^2 = N^2.
  EXPECT_NEAR(spectrum[1], 256.0, 1e-6);
}

TEST(SpectrumPeak, QuadraticRefinementBeatsGridResolution) {
  const auto panel = make_aperture();
  const auto coarse = angle_grid(-1.0, 1.0, 41);  // 50 mrad spacing
  const em::CxPlaneMat steering = steering_matrix(panel, coarse, kFreq);
  const double truth = 0.123;
  const auto spectrum = beamscan_spectrum(steering, plane_wave(panel, truth));
  EXPECT_NEAR(spectrum_peak(coarse, spectrum), truth, 0.015);
}

TEST(Music, ResolvesSingleSource) {
  const auto panel = make_aperture(6, 6);
  const auto angles = angle_grid(-1.0, 1.0, 201);
  const em::CxPlaneMat steering = steering_matrix(panel, angles, kFreq);
  // Snapshots: same source with varying complex amplitude + small noise.
  util::Rng rng(41);
  const double truth = -0.42;
  em::CxPlaneMat snapshots(8, panel.element_count());
  for (std::size_t s = 0; s < 8; ++s) {
    const em::CxPlanes v = plane_wave(panel, truth, 1.0, rng.uniform(0, 6.28));
    for (std::size_t i = 0; i < v.size(); ++i) {
      snapshots.set(
          s, i, v.at(i) + em::Cx{0.01 * rng.normal(), 0.01 * rng.normal()});
    }
  }
  const auto spectrum = music_spectrum(steering, snapshots, 1);
  EXPECT_NEAR(spectrum_peak(angles, spectrum), truth, 0.02);
}

TEST(Music, RejectsBadSourceCount) {
  const auto panel = make_aperture(2, 2);
  const auto angles = angle_grid(-1.0, 1.0, 11);
  const em::CxPlaneMat steering = steering_matrix(panel, angles, kFreq);
  const em::CxPlaneMat snapshots(3, 4);
  EXPECT_THROW(music_spectrum(steering, snapshots, 0), std::invalid_argument);
  EXPECT_THROW(music_spectrum(steering, snapshots, 4), std::invalid_argument);
}

// --- spectra utilities ----------------------------------------------------------------

TEST(Spectrum, NormalizeSumsToOne) {
  const auto p = normalize_spectrum({1.0, 3.0, 0.0, 1.0});
  double sum = 0.0;
  for (const double x : p) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_NEAR(p[1], 0.6, 1e-12);
}

TEST(Spectrum, NormalizeDegenerateBecomesUniform) {
  const auto p = normalize_spectrum({0.0, 0.0});
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[1], 0.5, 1e-12);
}

TEST(Spectrum, CrossEntropyMinimizedByMatchingDistribution) {
  const std::vector<double> q{0.1, 0.7, 0.2};
  const double matched = cross_entropy(q, q);
  const double mismatched = cross_entropy(q, {0.7, 0.1, 0.2});
  EXPECT_LT(matched, mismatched);
  EXPECT_THROW(cross_entropy(q, {0.5, 0.5}), std::invalid_argument);
}

// --- AoaSensingModel --------------------------------------------------------------------

TEST(AoaModel, EstimatesFromChannelVector) {
  const auto panel = make_aperture();
  const AoaSensingModel model(&panel, kFreq, 241);
  // Synthetic element channel from a true client position; uniform
  // coefficients should recover its azimuth.
  const geom::Vec3 client =
      panel.center() + azimuth_direction(panel, 0.5) * 2.5;
  em::CxPlanes g(panel.element_count());
  const double k = em::wavenumber(kFreq);
  for (std::size_t i = 0; i < g.size(); ++i) {
    const double d = panel.element_position(i).distance_to(client);
    g.set(i, std::polar(1.0 / d, -k * d));
  }
  EXPECT_NEAR(model.estimate_azimuth(g), 0.5, 0.03);
}

TEST(AoaModel, TargetDistributionPeaksAtTruth) {
  const auto panel = make_aperture(4, 4);
  const AoaSensingModel model(&panel, kFreq, 121);
  const auto target = model.target_distribution(0.3);
  std::size_t argmax = 0;
  for (std::size_t i = 1; i < target.size(); ++i) {
    if (target[i] > target[argmax]) argmax = i;
  }
  EXPECT_NEAR(model.angles()[argmax], 0.3, 0.03);
  double sum = 0.0;
  for (const double p : target) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(AoaModel, LossLowerForAlignedConfig) {
  const auto panel = make_aperture();
  const AoaSensingModel model(&panel, kFreq, 181);
  const double truth = -0.35;
  const em::CxPlanes g = plane_wave(panel, truth);
  const auto target = model.target_distribution(truth);
  // Uniform coefficients keep the angle signature; a beam-steering config
  // toward a different direction destroys it.
  const em::CxPlanes uniform = filled(panel.element_count(), {1.0, 0.0});
  em::CxPlanes steered(panel.element_count());
  const em::CxPlanes away = steering_vector(panel, 0.8, kFreq);
  const em::CxPlanes toward = steering_vector(panel, truth, kFreq);
  for (std::size_t i = 0; i < steered.size(); ++i) {
    // Coefficients that re-phase the true wavefront into the 0.8 direction.
    steered.set(i, away.at(i) * std::conj(toward.at(i)));
  }
  EXPECT_LT(model.loss(uniform, g, target), model.loss(steered, g, target));
}

TEST(AoaModel, GradientMatchesFiniteDifference) {
  const auto panel = make_aperture(3, 3);
  const AoaSensingModel model(&panel, kFreq, 61);
  util::Rng rng(51);
  const em::CxPlanes g = plane_wave(panel, 0.2);
  const auto target = model.target_distribution(0.2);
  std::vector<double> phases(panel.element_count());
  for (double& p : phases) p = rng.uniform(0, util::kTwoPi);
  auto coeffs = [&](const std::vector<double>& ph) {
    em::CxPlanes c(ph.size());
    for (std::size_t i = 0; i < ph.size(); ++i) c.set(i, em::expj(ph[i]));
    return c;
  };
  std::vector<double> grad(panel.element_count());
  model.loss(coeffs(phases), g, target, grad);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    auto plus = phases;
    auto minus = phases;
    plus[i] += eps;
    minus[i] -= eps;
    const double fd = (model.loss(coeffs(plus), g, target) -
                       model.loss(coeffs(minus), g, target)) /
                      (2.0 * eps);
    EXPECT_NEAR(grad[i], fd, 1e-5 + 1e-4 * std::fabs(fd)) << "element " << i;
  }
}

TEST(AoaModel, RejectsSizeMismatches) {
  const auto panel = make_aperture(2, 2);
  const AoaSensingModel model(&panel, kFreq, 21);
  const em::CxPlanes four = filled(4, {1.0, 0.0});
  const em::CxPlanes three = filled(3, {1.0, 0.0});
  const auto target = model.target_distribution(0.0);
  EXPECT_THROW(model.loss(three, four, target), std::invalid_argument);
  EXPECT_THROW(model.loss(four, four, {0.5, 0.5}), std::invalid_argument);
}

// --- localization ------------------------------------------------------------------------

TEST(Localize, ZeroAngleErrorGivesZeroPositionError) {
  const auto panel = make_aperture();
  const geom::Vec3 client =
      panel.center() + azimuth_direction(panel, 0.4) * 3.0;
  const double truth = true_azimuth(panel, client);
  EXPECT_NEAR(localization_error(panel, client, truth), 0.0, 1e-9);
}

TEST(Localize, ErrorGrowsWithAngleErrorAndRange) {
  const auto panel = make_aperture();
  const geom::Vec3 near_client =
      panel.center() + azimuth_direction(panel, 0.0) * 1.0;
  const geom::Vec3 far_client =
      panel.center() + azimuth_direction(panel, 0.0) * 4.0;
  const double small = localization_error(panel, near_client, 0.1);
  const double large_angle = localization_error(panel, near_client, 0.3);
  const double large_range = localization_error(panel, far_client, 0.1);
  EXPECT_GT(large_angle, small);
  EXPECT_GT(large_range, small);
  // Small-angle approximation: error ~ range * |dtheta|.
  EXPECT_NEAR(small, 1.0 * 0.1, 0.02);
  EXPECT_NEAR(large_range, 4.0 * 0.1, 0.05);
}

}  // namespace
}  // namespace surfos::sense
