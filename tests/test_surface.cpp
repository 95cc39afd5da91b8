// Metasurface model tests: configurations (wire round-trips, quantization),
// panel geometry and control parameterization (parameterized over every
// granularity), operation-mode service geometry, the Table-1 catalog, and
// the cost model.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "em/propagation.hpp"
#include "surface/catalog.hpp"
#include "surface/config.hpp"
#include "surface/cost.hpp"
#include "surface/panel.hpp"
#include "util/units.hpp"

namespace surfos::surface {
namespace {

// --- SurfaceConfig -------------------------------------------------------------

TEST(Config, DefaultsToZeroPhaseUnitAmplitude) {
  const SurfaceConfig config(4);
  EXPECT_EQ(config.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(config.phase(i), 0.0);
    EXPECT_DOUBLE_EQ(config.amplitude(i), 1.0);
  }
}

TEST(Config, PhasesWrapIntoTwoPi) {
  SurfaceConfig config(2);
  config.set_phase(0, 3.0 * util::kTwoPi + 1.0);
  config.set_phase(1, -0.5);
  EXPECT_NEAR(config.phase(0), 1.0, 1e-12);
  EXPECT_NEAR(config.phase(1), util::kTwoPi - 0.5, 1e-12);
}

TEST(Config, AmplitudesClampToUnitInterval) {
  SurfaceConfig config(2);
  config.set_amplitude(0, 1.7);
  config.set_amplitude(1, -0.2);
  EXPECT_DOUBLE_EQ(config.amplitude(0), 1.0);
  EXPECT_DOUBLE_EQ(config.amplitude(1), 0.0);
}

TEST(Config, ConstructorValidatesAndNormalizes) {
  EXPECT_THROW(SurfaceConfig({0.0}, {1.0, 1.0}), std::invalid_argument);
  const SurfaceConfig config({-1.0, 7.0}, {2.0, -1.0});
  EXPECT_NEAR(config.phase(0), util::kTwoPi - 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(config.amplitude(0), 1.0);
  EXPECT_DOUBLE_EQ(config.amplitude(1), 0.0);
}

TEST(Config, ShiftAllPhases) {
  SurfaceConfig config(3);
  config.set_phase(1, 1.0);
  config.shift_all_phases(0.5);
  EXPECT_NEAR(config.phase(0), 0.5, 1e-12);
  EXPECT_NEAR(config.phase(1), 1.5, 1e-12);
}

TEST(Config, QuantizationSnapsToLevels) {
  SurfaceConfig config(1);
  config.set_phase(0, 0.8);  // closest 2-bit level (step pi/2) is pi/2
  const SurfaceConfig q = config.quantized(2);
  EXPECT_NEAR(q.phase(0), util::kPi / 2.0, 1e-12);
  // 0 bits = continuous (unchanged).
  EXPECT_NEAR(config.quantized(0).phase(0), 0.8, 1e-12);
}

TEST(Config, QuantizationIsIdempotent) {
  SurfaceConfig config(8);
  for (std::size_t i = 0; i < 8; ++i) {
    config.set_phase(i, 0.77 * static_cast<double>(i));
  }
  const SurfaceConfig once = config.quantized(3);
  const SurfaceConfig twice = once.quantized(3);
  EXPECT_EQ(once, twice);
}

TEST(Config, SerializeRoundTrip) {
  SurfaceConfig config(5);
  for (std::size_t i = 0; i < 5; ++i) {
    config.set_phase(i, 1.1 * static_cast<double>(i));
    config.set_amplitude(i, 0.2 * static_cast<double>(i));
  }
  const auto bytes = config.serialize();
  const SurfaceConfig back = SurfaceConfig::deserialize(bytes);
  ASSERT_EQ(back.size(), config.size());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(back.phase(i), config.phase(i), util::kTwoPi / 65535.0);
    EXPECT_NEAR(back.amplitude(i), config.amplitude(i), 1.0 / 255.0);
  }
}

TEST(Config, DeserializeRejectsCorruptSizes) {
  EXPECT_THROW(SurfaceConfig::deserialize(std::vector<std::uint8_t>{1, 2}),
               std::invalid_argument);
  auto bytes = SurfaceConfig(3).serialize();
  bytes.pop_back();
  EXPECT_THROW(SurfaceConfig::deserialize(bytes), std::invalid_argument);
}

TEST(Config, MaxPhaseDeltaUsesWrappedDistance) {
  SurfaceConfig a(2), b(2);
  a.set_phase(0, 0.1);
  b.set_phase(0, util::kTwoPi - 0.1);  // 0.2 apart across the wrap
  EXPECT_NEAR(a.max_phase_delta(b), 0.2, 1e-12);
  EXPECT_THROW(a.max_phase_delta(SurfaceConfig(3)), std::invalid_argument);
}

// --- SurfacePanel geometry -------------------------------------------------------

ElementDesign test_design(int phase_bits = 0) {
  ElementDesign d;
  d.spacing_m = 0.005;
  d.phase_bits = phase_bits;
  d.insertion_loss_db = 0.0;
  return d;
}

SurfacePanel make_panel(std::size_t rows, std::size_t cols,
                        ControlGranularity granularity,
                        OperationMode mode = OperationMode::kReflective,
                        int phase_bits = 0) {
  return SurfacePanel("p", geom::Frame({0, 0, 0}, {0, 0, 1}), rows, cols,
                      test_design(phase_bits), mode,
                      Reconfigurability::kProgrammable, granularity);
}

TEST(Panel, GeometryAndDimensions) {
  const SurfacePanel panel = make_panel(4, 8, ControlGranularity::kElement);
  EXPECT_EQ(panel.element_count(), 32u);
  EXPECT_NEAR(panel.width_m(), 0.04, 1e-12);
  EXPECT_NEAR(panel.height_m(), 0.02, 1e-12);
  EXPECT_NEAR(panel.area_m2(), 0.0008, 1e-12);
  // Elements are centered on the panel origin.
  geom::Vec3 centroid{};
  for (const auto& p : panel.element_positions()) centroid += p;
  centroid = centroid / static_cast<double>(panel.element_count());
  EXPECT_NEAR(centroid.distance_to(panel.center()), 0.0, 1e-12);
}

TEST(Panel, ElementPositionsLieInPlane) {
  const SurfacePanel panel = make_panel(3, 3, ControlGranularity::kElement);
  for (const auto& p : panel.element_positions()) {
    EXPECT_NEAR((p - panel.center()).dot(panel.normal()), 0.0, 1e-12);
  }
  EXPECT_THROW(panel.element_position(3, 0), std::out_of_range);
  EXPECT_THROW(panel.element_position(9), std::out_of_range);
}

TEST(Panel, NeighboringElementsAreSpacedByPitch) {
  const SurfacePanel panel = make_panel(2, 2, ControlGranularity::kElement);
  const double d01 =
      panel.element_position(0, 0).distance_to(panel.element_position(0, 1));
  const double d10 =
      panel.element_position(0, 0).distance_to(panel.element_position(1, 0));
  EXPECT_NEAR(d01, 0.005, 1e-12);
  EXPECT_NEAR(d10, 0.005, 1e-12);
}

TEST(Panel, RejectsDegenerateConstruction) {
  EXPECT_THROW(make_panel(0, 4, ControlGranularity::kElement),
               std::invalid_argument);
  ElementDesign bad = test_design();
  bad.spacing_m = 0.0;
  EXPECT_THROW(SurfacePanel("p", geom::Frame({0, 0, 0}, {0, 0, 1}), 2, 2, bad,
                            OperationMode::kReflective,
                            Reconfigurability::kProgrammable,
                            ControlGranularity::kElement),
               std::invalid_argument);
}

// --- Operation-mode service geometry ----------------------------------------------

TEST(Panel, ReflectiveServesFrontSideOnly) {
  const SurfacePanel panel = make_panel(2, 2, ControlGranularity::kElement,
                                        OperationMode::kReflective);
  const geom::Vec3 front_a{0.5, 0.0, 1.0};
  const geom::Vec3 front_b{-0.5, 0.2, 2.0};
  const geom::Vec3 back{0.0, 0.0, -1.0};
  EXPECT_TRUE(panel.serves(front_a, front_b));
  EXPECT_FALSE(panel.serves(front_a, back));
  EXPECT_FALSE(panel.serves(back, back));
}

TEST(Panel, TransmissiveServesOppositeSides) {
  const SurfacePanel panel = make_panel(2, 2, ControlGranularity::kElement,
                                        OperationMode::kTransmissive);
  const geom::Vec3 front{0.0, 0.0, 1.0};
  const geom::Vec3 back{0.0, 0.0, -1.0};
  EXPECT_TRUE(panel.serves(front, back));
  EXPECT_TRUE(panel.serves(back, front));
  EXPECT_FALSE(panel.serves(front, front));
}

TEST(Panel, TransflectiveServesBoth) {
  const SurfacePanel panel = make_panel(2, 2, ControlGranularity::kElement,
                                        OperationMode::kTransflective);
  const geom::Vec3 front{0.0, 0.0, 1.0};
  const geom::Vec3 back{0.0, 0.0, -1.0};
  EXPECT_TRUE(panel.serves(front, back));
  EXPECT_TRUE(panel.serves(front, front));
  EXPECT_TRUE(panel.serves(back, back));
}

TEST(Panel, IncidenceCosine) {
  const SurfacePanel panel = make_panel(2, 2, ControlGranularity::kElement);
  EXPECT_NEAR(panel.incidence_cos({0, 0, 5}), 1.0, 1e-12);
  EXPECT_NEAR(panel.incidence_cos({5, 0, 5}), std::sqrt(0.5), 1e-12);
  EXPECT_NEAR(panel.incidence_cos({5, 0, 0}), 0.0, 1e-12);
}

// --- Control parameterization (parameterized over granularity) ---------------------

// gtest prints this parameter as raw bytes and CTest names each case after that
// print, so the padding after `granularity` is an explicit zero member: implicit
// padding would carry stack garbage into the test names and change them per build.
struct GranularityCase {
  ControlGranularity granularity;
  std::uint32_t zero_padding = 0;
  std::size_t expected_controls = 0;  // for a 4x6 panel
};
static_assert(sizeof(GranularityCase) == 16, "GranularityCase must have no implicit padding");

class GranularityTest : public ::testing::TestWithParam<GranularityCase> {};

TEST_P(GranularityTest, ControlCountMatches) {
  const SurfacePanel panel = make_panel(4, 6, GetParam().granularity);
  EXPECT_EQ(panel.control_count(), GetParam().expected_controls);
}

TEST_P(GranularityTest, ExpandExtractRoundTrip) {
  const SurfacePanel panel = make_panel(4, 6, GetParam().granularity);
  std::vector<double> controls(panel.control_count());
  for (std::size_t i = 0; i < controls.size(); ++i) {
    controls[i] = 0.37 * static_cast<double>(i + 1);
  }
  const SurfaceConfig config = panel.expand_controls(controls);
  const auto back = panel.extract_controls(config);
  ASSERT_EQ(back.size(), controls.size());
  for (std::size_t i = 0; i < controls.size(); ++i) {
    EXPECT_NEAR(back[i], util::wrap_two_pi(controls[i]), 1e-9) << "control " << i;
  }
}

TEST_P(GranularityTest, RealizableIsIdempotent) {
  const SurfacePanel panel = make_panel(4, 6, GetParam().granularity);
  SurfaceConfig config(panel.element_count());
  for (std::size_t i = 0; i < config.size(); ++i) {
    config.set_phase(i, 0.21 * static_cast<double>(i));
  }
  const SurfaceConfig once = panel.realizable(config);
  const SurfaceConfig twice = panel.realizable(once);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(once.phase(i), twice.phase(i), 1e-9);
  }
}

TEST_P(GranularityTest, ExpandedConfigIsConstantWithinGroups) {
  const SurfacePanel panel = make_panel(4, 6, GetParam().granularity);
  std::vector<double> controls(panel.control_count());
  for (std::size_t i = 0; i < controls.size(); ++i) {
    controls[i] = 0.5 * static_cast<double>(i);
  }
  const SurfaceConfig config = panel.expand_controls(controls);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      const double phase = config.phase(r * 6 + c);
      switch (GetParam().granularity) {
        case ControlGranularity::kColumn:
          EXPECT_NEAR(phase, config.phase(c), 1e-12);
          break;
        case ControlGranularity::kRow:
          EXPECT_NEAR(phase, config.phase(r * 6), 1e-12);
          break;
        case ControlGranularity::kGlobal:
          EXPECT_NEAR(phase, config.phase(0), 1e-12);
          break;
        case ControlGranularity::kElement:
          break;  // nothing shared
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGranularities, GranularityTest,
    ::testing::Values(GranularityCase{ControlGranularity::kElement, 0, 24},
                      GranularityCase{ControlGranularity::kColumn, 0, 6},
                      GranularityCase{ControlGranularity::kRow, 0, 4},
                      GranularityCase{ControlGranularity::kGlobal, 0, 1}));

TEST(Panel, ExpandRejectsWrongControlCount) {
  const SurfacePanel panel = make_panel(4, 6, ControlGranularity::kColumn);
  EXPECT_THROW(panel.expand_controls(std::vector<double>(5)),
               std::invalid_argument);
}

TEST(Panel, CoefficientsApplyInsertionLoss) {
  ElementDesign d = test_design();
  d.insertion_loss_db = 2.0;
  const SurfacePanel panel("p", geom::Frame({0, 0, 0}, {0, 0, 1}), 2, 2, d,
                           OperationMode::kReflective,
                           Reconfigurability::kProgrammable,
                           ControlGranularity::kElement);
  em::CxPlanes coeffs;
  panel.coefficients_into(SurfaceConfig(4), coeffs);
  ASSERT_EQ(coeffs.size(), 4u);
  const double expected = std::pow(10.0, -2.0 / 20.0);
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    EXPECT_NEAR(std::abs(coeffs.at(i)), expected, 1e-12);
  }
}

TEST(Panel, CoefficientsIntoPlanesMatchPolarBitwise) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const ControlGranularity granularity :
       {ControlGranularity::kElement, ControlGranularity::kColumn,
        ControlGranularity::kRow, ControlGranularity::kGlobal}) {
    for (const int phase_bits : {0, 1, 2, 3}) {
      for (const bool amplitude_control : {false, true}) {
        ElementDesign d = test_design(phase_bits);
        d.insertion_loss_db = 1.3;
        d.amplitude_control = amplitude_control;
        // A 3x5 panel fills 15 of its 16 lanes; the buffer first holds a
        // 4x5 panel's 20 live lanes, so lane 15 was live before reuse.
        const SurfacePanel larger("big", geom::Frame({0, 0, 0}, {0, 0, 1}),
                                  4, 5, d, OperationMode::kReflective,
                                  Reconfigurability::kProgrammable,
                                  granularity);
        const SurfacePanel panel("p", geom::Frame({0, 0, 0}, {0, 0, 1}), 3,
                                 5, d, OperationMode::kReflective,
                                 Reconfigurability::kProgrammable,
                                 granularity);
        SurfaceConfig big_config(larger.element_count());
        for (std::size_t i = 0; i < big_config.size(); ++i) {
          big_config.set_phase(i, 0.9 + 0.31 * static_cast<double>(i));
        }
        SurfaceConfig config(panel.element_count());
        for (std::size_t i = 0; i < config.size(); ++i) {
          config.set_phase(i, 0.17 + 0.73 * static_cast<double>(i));
          config.set_amplitude(i, 0.4 + 0.04 * static_cast<double>(i));
        }
        em::CxPlanes out;
        larger.coefficients_into(big_config, out);
        panel.coefficients_into(config, out);

        const std::string where =
            "granularity " + std::to_string(static_cast<int>(granularity)) +
            " bits " + std::to_string(phase_bits) + " amplitude " +
            std::to_string(amplitude_control);
        ASSERT_EQ(out.size(), panel.element_count()) << where;
        const SurfaceConfig real = panel.realizable(config);
        const double loss = std::pow(10.0, -1.3 / 20.0);
        for (std::size_t i = 0; i < out.size(); ++i) {
          const em::Cx expected =
              std::polar(real.amplitude(i) * loss, real.phase(i));
          EXPECT_EQ(bits(out.re()[i]), bits(expected.real())) << where;
          EXPECT_EQ(bits(out.im()[i]), bits(expected.imag())) << where;
        }
        for (std::size_t i = out.size(); i < out.padded_size(); ++i) {
          EXPECT_EQ(bits(out.re()[i]), bits(+0.0)) << where << " lane " << i;
          EXPECT_EQ(bits(out.im()[i]), bits(+0.0)) << where << " lane " << i;
        }
      }
    }
  }
}

TEST(Panel, AmplitudeControlRequiresHardwareSupport) {
  // Without amplitude control, realizable() resets amplitudes to 1.
  const SurfacePanel panel = make_panel(2, 2, ControlGranularity::kElement);
  SurfaceConfig config(4);
  config.set_amplitude(0, 0.5);
  const SurfaceConfig real = panel.realizable(config);
  EXPECT_DOUBLE_EQ(real.amplitude(0), 1.0);
}

TEST(Panel, FocusConfigCophasesPaths) {
  const double f = em::band_center(em::Band::k28GHz);
  ElementDesign d = test_design();
  d.spacing_m = em::wavelength(f) / 2.0;
  const SurfacePanel panel("p", geom::Frame({0, 0, 0}, {0, 0, 1}), 8, 8, d,
                           OperationMode::kReflective,
                           Reconfigurability::kProgrammable,
                           ControlGranularity::kElement);
  const geom::Vec3 source{0.5, 0.2, 2.0};
  const geom::Vec3 target{-0.8, 0.1, 3.0};
  const SurfaceConfig config = panel.focus_config(source, target, f);
  // Every element's total phase (config + propagation) must be equal mod 2pi.
  const double k = em::wavenumber(f);
  double reference = 0.0;
  for (std::size_t i = 0; i < panel.element_count(); ++i) {
    const auto& p = panel.element_position(i);
    const double total = util::wrap_two_pi(
        config.phase(i) - k * (p.distance_to(source) + p.distance_to(target)));
    if (i == 0) {
      reference = total;
    } else {
      EXPECT_NEAR(std::fabs(util::wrap_pi(total - reference)), 0.0, 1e-6);
    }
  }
}

// --- Catalog (Table 1) --------------------------------------------------------------

TEST(Catalog, HasThirteenSystems) {
  const Catalog catalog = Catalog::standard();
  EXPECT_EQ(catalog.entries().size(), 13u);
}

TEST(Catalog, Table1Attributes) {
  const Catalog catalog = Catalog::standard();
  // Spot-check rows of the paper's Table 1.
  const CatalogEntry* laia = catalog.find("LAIA");
  ASSERT_NE(laia, nullptr);
  EXPECT_EQ(laia->band, em::Band::k2_4GHz);
  EXPECT_EQ(laia->control_mode, ControlMode::kPhase);
  EXPECT_EQ(laia->op_mode, OperationMode::kTransmissive);
  EXPECT_FALSE(laia->cost_usd.has_value());  // "/" in the table

  const CatalogEntry* mmwall = catalog.find("mmWall");
  ASSERT_NE(mmwall, nullptr);
  EXPECT_EQ(mmwall->band, em::Band::k24GHz);
  EXPECT_EQ(mmwall->op_mode, OperationMode::kTransflective);
  EXPECT_EQ(mmwall->granularity, ControlGranularity::kColumn);
  EXPECT_NEAR(mmwall->cost_usd.value(), 10000.0, 1e-9);

  const CatalogEntry* autos = catalog.find("AutoMS");
  ASSERT_NE(autos, nullptr);
  EXPECT_EQ(autos->band, em::Band::k60GHz);
  EXPECT_EQ(autos->reconfigurability, Reconfigurability::kPassive);
  EXPECT_LE(autos->cost_usd.value(), 2.0);

  const CatalogEntry* scrolls = catalog.find("Scrolls");
  ASSERT_NE(scrolls, nullptr);
  EXPECT_EQ(scrolls->control_mode, ControlMode::kFrequency);
  EXPECT_EQ(scrolls->granularity, ControlGranularity::kRow);
  EXPECT_TRUE(scrolls->band_high.has_value());
  EXPECT_EQ(scrolls->band_label(), "0.9-5 GHz");
}

TEST(Catalog, FindUnknownReturnsNull) {
  const Catalog catalog = Catalog::standard();
  EXPECT_EQ(catalog.find("NotASurface"), nullptr);
}

TEST(Catalog, DesignsForBandFiltersCorrectly) {
  const Catalog catalog = Catalog::standard();
  const auto at_24 = catalog.designs_for_band(em::Band::k24GHz);
  // mmWall, NR-Surface, PMSat cover 24 GHz.
  EXPECT_EQ(at_24.size(), 3u);
  const auto at_60 = catalog.designs_for_band(em::Band::k60GHz);
  EXPECT_EQ(at_60.size(), 2u);  // MilliMirror, AutoMS
}

TEST(Catalog, CheapestForQueries) {
  const Catalog catalog = Catalog::standard();
  const auto* cheapest_60 = catalog.cheapest_for(em::Band::k60GHz, false);
  ASSERT_NE(cheapest_60, nullptr);
  EXPECT_EQ(cheapest_60->name, "AutoMS");
  const auto* programmable_24 = catalog.cheapest_for(em::Band::k24GHz, true);
  ASSERT_NE(programmable_24, nullptr);
  EXPECT_EQ(programmable_24->name, "NR-Surface");
  // No programmable design exists at 60 GHz in the catalog.
  EXPECT_EQ(catalog.cheapest_for(em::Band::k60GHz, true), nullptr);
}

TEST(Catalog, InstantiateBuildsMatchingPanel) {
  const Catalog catalog = Catalog::standard();
  const CatalogEntry* entry = catalog.find("NR-Surface");
  const SurfacePanel panel = instantiate(
      *entry, geom::Frame({1, 2, 3}, {0, -1, 0}), 10, 12);
  EXPECT_EQ(panel.rows(), 10u);
  EXPECT_EQ(panel.cols(), 12u);
  EXPECT_EQ(panel.granularity(), ControlGranularity::kColumn);
  EXPECT_EQ(panel.op_mode(), OperationMode::kReflective);
  // Element pitch is half-wavelength at 24 GHz.
  EXPECT_NEAR(panel.design().spacing_m,
              em::wavelength(em::band_center(em::Band::k24GHz)) / 2.0, 1e-9);
}

TEST(Catalog, PassiveInstantiationGetsElementWisePattern) {
  // Passive surfaces choose their pattern freely at fabrication, so the
  // behavioural panel is element-wise even though it is not reconfigurable.
  const Catalog catalog = Catalog::standard();
  const SurfacePanel panel = instantiate(
      *catalog.find("AutoMS"), geom::Frame({0, 0, 0}, {0, 0, 1}), 8, 8);
  EXPECT_EQ(panel.granularity(), ControlGranularity::kElement);
  EXPECT_EQ(panel.reconfigurability(), Reconfigurability::kPassive);
}

// --- Cost model ---------------------------------------------------------------------

TEST(Cost, PassiveIsOrdersOfMagnitudeCheaper) {
  const CostModel model;
  const Catalog catalog = Catalog::standard();
  const SurfacePanel passive = instantiate(
      *catalog.find("AutoMS"), geom::Frame({0, 0, 0}, {0, 0, 1}), 32, 32);
  const SurfacePanel programmable = instantiate(
      *catalog.find("NR-Surface"), geom::Frame({0, 0, 0}, {0, 0, 1}), 32, 32);
  const double cost_passive = model.panel_cost_usd(passive);
  const double cost_programmable = model.panel_cost_usd(programmable);
  EXPECT_GT(cost_programmable / cost_passive, 50.0);
}

TEST(Cost, SharedLineControlIsDiscounted) {
  const CostModel model;
  const auto pose = geom::Frame({0, 0, 0}, {0, 0, 1});
  const SurfacePanel element("e", pose, 16, 16, ElementDesign{},
                             OperationMode::kReflective,
                             Reconfigurability::kProgrammable,
                             ControlGranularity::kElement);
  const SurfacePanel column("c", pose, 16, 16, ElementDesign{},
                            OperationMode::kReflective,
                            Reconfigurability::kProgrammable,
                            ControlGranularity::kColumn);
  EXPECT_LT(model.panel_cost_usd(column), model.panel_cost_usd(element));
}

TEST(Cost, CostScalesWithElementCount) {
  const CostModel model;
  const Catalog catalog = Catalog::standard();
  const auto pose = geom::Frame({0, 0, 0}, {0, 0, 1});
  const SurfacePanel small =
      instantiate(*catalog.find("NR-Surface"), pose, 8, 8);
  const SurfacePanel large =
      instantiate(*catalog.find("NR-Surface"), pose, 16, 16);
  EXPECT_GT(model.panel_cost_usd(large), model.panel_cost_usd(small));
  EXPECT_GT(CostModel::panel_area_m2(large), CostModel::panel_area_m2(small));
}

}  // namespace
}  // namespace surfos::surface
