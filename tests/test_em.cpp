// EM substrate tests: bands, Fresnel materials, antenna patterns, and
// propagation / link-budget math. Physical sanity properties (energy
// conservation, monotonic loss with frequency) are checked alongside exact
// closed-form values.
#include <gtest/gtest.h>

#include <cmath>

#include "em/antenna.hpp"
#include "em/band.hpp"
#include "em/cx.hpp"
#include "em/material.hpp"
#include "em/propagation.hpp"
#include "util/units.hpp"

namespace surfos::em {
namespace {

// --- cx ------------------------------------------------------------------------

TEST(Cx, ExpjAndPower) {
  const Cx e = expj(M_PI / 2.0);
  EXPECT_NEAR(e.real(), 0.0, 1e-12);
  EXPECT_NEAR(e.imag(), 1.0, 1e-12);
  EXPECT_NEAR(std::norm(expj(0.7)), 1.0, 1e-12);  // unit power at any phase
}

// --- bands ---------------------------------------------------------------------

TEST(Band, CentersAreOrdered) {
  EXPECT_LT(band_center(Band::kSub1GHz), band_center(Band::k2_4GHz));
  EXPECT_LT(band_center(Band::k2_4GHz), band_center(Band::k5GHz));
  EXPECT_LT(band_center(Band::k24GHz), band_center(Band::k60GHz));
}

TEST(Band, WavelengthAt28GHz) {
  EXPECT_NEAR(wavelength(band_center(Band::k28GHz)), 0.0107, 1e-4);
}

TEST(Band, AdjacencyIsSymmetricAndReflexive) {
  for (const Band a : {Band::kSub1GHz, Band::k2_4GHz, Band::k5GHz,
                       Band::k24GHz, Band::k28GHz, Band::k60GHz}) {
    EXPECT_TRUE(bands_adjacent(a, a));
    for (const Band b : {Band::kSub1GHz, Band::k2_4GHz, Band::k60GHz}) {
      EXPECT_EQ(bands_adjacent(a, b), bands_adjacent(b, a));
    }
  }
  // 24 and 28 GHz are adjacent; 2.4 and 60 GHz are not.
  EXPECT_TRUE(bands_adjacent(Band::k24GHz, Band::k28GHz));
  EXPECT_FALSE(bands_adjacent(Band::k2_4GHz, Band::k60GHz));
}

TEST(Band, NamesAreDistinct) {
  EXPECT_NE(band_name(Band::k24GHz), band_name(Band::k28GHz));
}

// --- materials -------------------------------------------------------------------

TEST(Material, PermittivityHasNegativeImaginaryPart) {
  const MaterialDb db = MaterialDb::standard();
  const auto eps = db.get(kMatConcrete).permittivity(28e9);
  EXPECT_GT(eps.real(), 1.0);
  EXPECT_LT(eps.imag(), 0.0);  // lossy convention
}

TEST(Material, SlabEnergyConservation) {
  const MaterialDb db = MaterialDb::standard();
  for (int id = 0; id < static_cast<int>(db.size()); ++id) {
    for (const double angle : {0.0, 0.3, 0.6, 1.0, 1.3}) {
      const auto r = slab_response(db.get(id), 28e9, angle);
      EXPECT_GE(r.reflection, 0.0);
      EXPECT_LE(r.reflection, 1.0);
      EXPECT_GE(r.transmission, 0.0);
      EXPECT_LE(r.transmission, 1.0);
      // Lossy slab: reflected + transmitted never exceeds incident.
      EXPECT_LE(r.reflection + r.transmission, 1.0 + 1e-9)
          << db.get(id).name << " at " << angle;
    }
  }
}

TEST(Material, MetalReflectsAlmostEverything) {
  const MaterialDb db = MaterialDb::standard();
  const auto r = slab_response(db.get(kMatMetal), 5e9, 0.0);
  EXPECT_GT(r.reflection, 0.95);
  EXPECT_LT(r.transmission, 1e-3);
}

TEST(Material, ConcreteTransmissionDropsWithFrequency) {
  const MaterialDb db = MaterialDb::standard();
  const auto& concrete = db.get(kMatConcrete);
  const double t_2ghz = slab_response(concrete, 2.4e9, 0.0).transmission;
  const double t_28ghz = slab_response(concrete, 28e9, 0.0).transmission;
  const double t_60ghz = slab_response(concrete, 60e9, 0.0).transmission;
  EXPECT_GT(t_2ghz, t_28ghz);
  EXPECT_GT(t_28ghz, t_60ghz);
  // mmWave through 20 cm concrete is effectively blocked (paper's premise
  // for needing surfaces at all).
  EXPECT_LT(util::to_db(t_28ghz), -30.0);
}

TEST(Material, GlassPassesMoreThanConcrete) {
  const MaterialDb db = MaterialDb::standard();
  const double glass = slab_response(db.get(kMatGlass), 28e9, 0.0).transmission;
  const double concrete =
      slab_response(db.get(kMatConcrete), 28e9, 0.0).transmission;
  EXPECT_GT(glass, concrete);
}

TEST(Material, GrazingIncidenceReflectsMore) {
  const MaterialDb db = MaterialDb::standard();
  const auto& brick = db.get(kMatBrick);
  const double normal = slab_response(brick, 5e9, 0.0).reflection;
  const double grazing = slab_response(brick, 5e9, 1.45).reflection;
  EXPECT_GT(grazing, normal);
}

TEST(Material, CoefficientMagnitudesMatchPowerResponse) {
  const MaterialDb db = MaterialDb::standard();
  const auto& wood = db.get(kMatWood);
  const auto r = slab_response(wood, 28e9, 0.4);
  const auto gamma = reflection_coefficient(wood, 28e9, 0.4);
  const auto tau = transmission_coefficient(wood, 28e9, 0.4);
  EXPECT_NEAR(std::norm(gamma), r.reflection, 1e-9);
  EXPECT_NEAR(std::norm(tau), r.transmission, 1e-9);
}

// --- slab closed forms --------------------------------------------------------
//
// slab_response is a single-pass slab: interface reflection, entry and exit
// transmission (1 - Gamma^2), and the internal decay exp(-j kz d). It has no
// multiple internal bounces, so there is no half-wave resonance to pin; the
// pins below are the closed forms it does implement, at normal incidence
// where TE and TM coincide (Gamma_TM = -Gamma_TE).

/// Normal-incidence interface reflection (1 - sqrt(eps)) / (1 + sqrt(eps)).
std::complex<double> normal_gamma(std::complex<double> eps) {
  const std::complex<double> root = std::sqrt(eps);
  return (1.0 - root) / (1.0 + root);
}

TEST(SlabClosedForm, NormalReflectionIsTheInterfaceFresnelAtEveryThickness) {
  const MaterialDb db = MaterialDb::standard();
  for (const int id : {kMatConcrete, kMatBrick, kMatGlass, kMatWood}) {
    Material material = db.get(id);
    const auto eps = material.permittivity(28e9);
    const double expected =
        std::norm(1.0 - std::sqrt(eps)) / std::norm(1.0 + std::sqrt(eps));
    for (const double d : {0.001, 0.013, 0.05, 0.2, 0.5}) {
      material.thickness_m = d;
      EXPECT_NEAR(slab_response(material, 28e9, 0.0).reflection, expected,
                  1e-12)
          << material.name << " d=" << d;
    }
  }
}

TEST(SlabClosedForm, LosslessSlabTransmitsOneMinusGammaSquaredAtEveryThickness) {
  Material glass{"lossless glass", 6.27, 0.0, 0.0, 0.0};
  const auto gamma = normal_gamma(glass.permittivity(5e9));
  ASSERT_DOUBLE_EQ(gamma.imag(), 0.0);
  const double expected = std::norm(1.0 - gamma * gamma);
  ASSERT_LT(expected, 1.0);
  for (const double d : {0.0, 0.004, 0.01, 0.03, 0.1, 1.0}) {
    glass.thickness_m = d;
    const SlabResponse r = slab_response(glass, 5e9, 0.0);
    EXPECT_NEAR(r.transmission, expected, 1e-12) << "d=" << d;
    // Nothing is absorbed: only the two interfaces' reflections are lost.
    EXPECT_LE(r.reflection + r.transmission, 1.0 + 1e-12);
  }
}

TEST(SlabClosedForm, LossySlabTransmissionFallsLinearlyInDbWithThickness) {
  Material concrete = MaterialDb::standard().get(kMatConcrete);
  const double f = 28e9;
  const auto eps = concrete.permittivity(f);
  const auto gamma = normal_gamma(eps);
  const double k0 = 2.0 * M_PI * f / kSpeedOfLight;
  const double im_kz = (k0 * std::sqrt(eps)).imag();
  ASSERT_LT(im_kz, 0.0);  // decays into the slab
  // The dB slope per metre of thickness: 10 log10(exp(2 Im(kz))).
  const double db_per_m = 10.0 * std::log10(std::exp(1.0)) * 2.0 * im_kz;
  const double t0 = std::norm(1.0 - gamma * gamma);
  for (const double d : {0.0, 0.01, 0.05, 0.1, 0.2}) {
    concrete.thickness_m = d;
    const double t = slab_response(concrete, f, 0.0).transmission;
    EXPECT_NEAR(t, t0 * std::exp(2.0 * im_kz * d), 1e-12 * t0) << "d=" << d;
    EXPECT_NEAR(util::to_db(t), util::to_db(t0) + db_per_m * d, 1e-9)
        << "d=" << d;
  }
}

TEST(MaterialDb, UnknownIdThrows) {
  const MaterialDb db = MaterialDb::standard();
  EXPECT_THROW(db.get(-1), std::out_of_range);
  EXPECT_THROW(db.get(static_cast<int>(db.size())), std::out_of_range);
}

// --- antennas --------------------------------------------------------------------

TEST(Antenna, IsotropicIsUnity) {
  const IsotropicAntenna iso;
  EXPECT_DOUBLE_EQ(iso.amplitude_gain({1, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(iso.amplitude_gain({0, -1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(iso.peak_power_gain(), 1.0);
}

TEST(Antenna, CosinePatternPeaksAtBoresight) {
  const CosinePowerAntenna ant({0, 0, 1}, 2.0);
  const double at_boresight = ant.amplitude_gain({0, 0, 1});
  const double off_axis = ant.amplitude_gain({0.5, 0, 0.8660254});
  EXPECT_GT(at_boresight, off_axis);
  EXPECT_DOUBLE_EQ(ant.amplitude_gain({0, 0, -1}), 0.0);  // back hemisphere
  EXPECT_NEAR(at_boresight * at_boresight, ant.peak_power_gain(), 1e-9);
}

TEST(Antenna, CosineExponentZeroIsHemisphericConstant) {
  const CosinePowerAntenna ant({1, 0, 0}, 0.0);
  EXPECT_NEAR(ant.amplitude_gain({1, 0, 0}), std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(ant.amplitude_gain({0.01, 1, 0}),
              ant.amplitude_gain({0.01, 0, 1}), 1e-9);
}

TEST(Antenna, SectorGainMatchesBeamwidth) {
  const SectorAntenna narrow({1, 0, 0}, 20.0);
  const SectorAntenna wide({1, 0, 0}, 90.0);
  EXPECT_GT(narrow.peak_power_gain(), wide.peak_power_gain());
  // G = 2 / (1 - cos(half)) at 90 deg full width: 2/(1-cos45).
  EXPECT_NEAR(wide.peak_power_gain(), 2.0 / (1.0 - std::cos(M_PI / 4.0)),
              1e-9);
}

TEST(Antenna, SectorSidelobeIsSuppressed) {
  const SectorAntenna ant({1, 0, 0}, 30.0, 20.0);
  const double main = ant.amplitude_gain({1, 0, 0});
  const double side = ant.amplitude_gain({0, 1, 0});
  EXPECT_NEAR(util::amplitude_to_db(main / side), 20.0, 1e-6);
}

TEST(Antenna, RejectsBadArguments) {
  EXPECT_THROW(CosinePowerAntenna({1, 0, 0}, -1.0), std::invalid_argument);
  EXPECT_THROW(SectorAntenna({1, 0, 0}, 0.0), std::invalid_argument);
  EXPECT_THROW(SectorAntenna({1, 0, 0}, 400.0), std::invalid_argument);
}

// --- propagation --------------------------------------------------------------------

TEST(Propagation, FriisFreeSpaceLoss) {
  // FSPL at 2.4 GHz over 10 m is ~60.05 dB.
  const double amplitude = friis_amplitude(2.4e9, 10.0);
  EXPECT_NEAR(util::to_db(amplitude * amplitude), -60.05, 0.1);
}

TEST(Propagation, FreeSpacePhaseAdvancesWithDistance) {
  const double f = 28e9;
  const double lambda = wavelength(f);
  const Cx g1 = free_space_gain(f, 3.0);
  const Cx g2 = free_space_gain(f, 3.0 + lambda);
  // One wavelength further: same phase, amplitude scaled by d1/d2.
  EXPECT_NEAR(std::arg(g1), std::arg(g2), 1e-6);
  EXPECT_NEAR(std::abs(g2) / std::abs(g1), 3.0 / (3.0 + lambda), 1e-9);
}

TEST(Propagation, ElementHopComposesToCascade) {
  const double f = 28e9;
  const double area = 2.9e-5;
  const Cx hop1 = element_hop_gain(f, area, 0.8, 2.0);
  const Cx hop2 = element_hop_gain(f, area, 0.6, 3.0);
  const Cx cascade = element_cascade_gain(f, area, 0.8, 0.6, 2.0, 3.0);
  EXPECT_NEAR(std::abs(hop1 * hop2 - cascade), 0.0, 1e-15);
}

TEST(Propagation, ElementGainsVanishBehindPanel) {
  EXPECT_EQ(element_hop_gain(28e9, 1e-5, -0.1, 1.0), Cx{});
  EXPECT_EQ(element_cascade_gain(28e9, 1e-5, 0.5, 0.0, 1.0, 1.0), Cx{});
  EXPECT_EQ(element_to_element_gain(28e9, 1e-5, -0.2, 1e-5, 0.5, 1.0), Cx{});
}

TEST(Propagation, NoiseFloor) {
  // -174 dBm/Hz + 10log10(400 MHz) + 7 dB NF = -81.0 dBm.
  EXPECT_NEAR(noise_floor_dbm(400e6, 7.0), -81.0, 0.05);
}

TEST(Propagation, ShannonCapacity) {
  EXPECT_NEAR(shannon_capacity(1e6, 1.0), 1e6, 1e-6);
  EXPECT_NEAR(shannon_capacity(1e6, 3.0), 2e6, 1e-6);
  EXPECT_DOUBLE_EQ(shannon_capacity(1e6, 0.0), 0.0);
}

TEST(LinkBudget, RssSnrCapacityConsistency) {
  const LinkBudget budget{20.0, 400e6, 7.0};
  const double gain = 1e-8;  // -80 dB channel
  EXPECT_NEAR(budget.rss_dbm(gain), -60.0, 1e-9);
  EXPECT_NEAR(budget.snr_db(gain), budget.rss_dbm(gain) - budget.noise_dbm(),
              1e-9);
  EXPECT_NEAR(budget.capacity(gain),
              shannon_capacity(400e6, budget.snr(gain)), 1e-3);
}

TEST(LinkBudget, ZeroGainFloors) {
  const LinkBudget budget;
  EXPECT_LE(budget.rss_dbm(0.0), -250.0);
  EXPECT_NEAR(budget.capacity(0.0), 0.0, 1e-3);
}

}  // namespace
}  // namespace surfos::em
