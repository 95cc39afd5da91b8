// Motion-detection tests: decorrelation math, calibration/debounce
// behaviour, and an end-to-end detection of a person walking through the
// dynamic environment's channel.
#include <gtest/gtest.h>

#include "em/propagation.hpp"
#include "em/soa.hpp"
#include "sense/motion.hpp"
#include "sim/channel.hpp"
#include "sim/dynamics.hpp"
#include "util/rng.hpp"

namespace surfos::sense {
namespace {

em::CxPlanes planes(std::initializer_list<em::Cx> values) {
  em::CxPlanes v(values.size());
  std::size_t i = 0;
  for (const em::Cx& c : values) v.set(i++, c);
  return v;
}

/// n elements, all equal to `value`.
em::CxPlanes filled(std::size_t n, em::Cx value) {
  em::CxPlanes v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, value);
  return v;
}

em::CxPlanes noisy(const em::CxPlanes& base, double sigma, util::Rng& rng) {
  em::CxPlanes out = base;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double re = sigma * rng.normal();
    out.set(i, out.at(i) + em::Cx{re, sigma * rng.normal()});
  }
  return out;
}

TEST(Decorrelation, ZeroForIdenticalAndScaled) {
  const em::CxPlanes a = planes({{1, 0}, {0, 1}, {0.5, -0.5}});
  EXPECT_NEAR(channel_decorrelation(a, a), 0.0, 1e-12);
  // A global complex scale (AGC / phase drift) is not motion.
  em::CxPlanes scaled = a;
  for (std::size_t i = 0; i < scaled.size(); ++i) {
    scaled.set(i, scaled.at(i) * em::Cx{0.3, 0.4});
  }
  EXPECT_NEAR(channel_decorrelation(a, scaled), 0.0, 1e-12);
}

TEST(Decorrelation, LargeForOrthogonalSnapshots) {
  const em::CxPlanes a = planes({{1, 0}, {0, 0}});
  const em::CxPlanes b = planes({{0, 0}, {1, 0}});
  EXPECT_NEAR(channel_decorrelation(a, b), 1.0, 1e-12);
  EXPECT_THROW(channel_decorrelation(a, em::CxPlanes(3)),
               std::invalid_argument);
}

TEST(Decorrelation, DegenerateSnapshotsScoreZero) {
  const em::CxPlanes zero(4);
  const em::CxPlanes a = filled(4, {1.0, 0.0});
  EXPECT_DOUBLE_EQ(channel_decorrelation(zero, a), 0.0);
}

TEST(MotionDetector, QuietChannelNeverTriggers) {
  util::Rng rng(3);
  MotionDetector detector;
  const em::CxPlanes base = filled(16, {1.0, 0.5});
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(detector.update(noisy(base, 1e-4, rng))) << "frame " << i;
  }
  EXPECT_TRUE(detector.calibrated());
}

TEST(MotionDetector, PerturbationTriggersAfterCalibration) {
  util::Rng rng(5);
  MotionDetector detector;
  const em::CxPlanes base = filled(16, {1.0, 0.5});
  for (int i = 0; i < 10; ++i) detector.update(noisy(base, 1e-4, rng));
  ASSERT_TRUE(detector.calibrated());
  // A strong perturbation (body crossing paths) decorrelates the channel.
  EXPECT_TRUE(detector.update(noisy(base, 0.4, rng)));
  EXPECT_GT(detector.last_score(), detector.baseline() * 5.0);
}

TEST(MotionDetector, CalibrationFramesNeverTrigger) {
  util::Rng rng(7);
  MotionDetectorOptions options;
  options.calibration_frames = 8;
  MotionDetector detector(options);
  const em::CxPlanes base = filled(8, {1.0, 0.0});
  // Even violent changes during calibration must not trigger.
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(detector.update(noisy(base, 0.5, rng)));
  }
}

TEST(MotionDetector, DebounceRequiresConsecutiveFrames) {
  util::Rng rng(9);
  MotionDetectorOptions options;
  options.debounce_frames = 3;
  MotionDetector detector(options);
  const em::CxPlanes base = filled(8, {1.0, 0.0});
  for (int i = 0; i < 10; ++i) detector.update(noisy(base, 1e-5, rng));
  EXPECT_FALSE(detector.update(noisy(base, 0.5, rng)));  // hit 1
  EXPECT_FALSE(detector.update(noisy(base, 0.5, rng)));  // hit 2
  EXPECT_TRUE(detector.update(noisy(base, 0.5, rng)));   // hit 3: declared
  // Settling back to the quiet channel: the first quiet frame still differs
  // from the last perturbed one, but the second quiet frame clears it.
  detector.update(base);
  EXPECT_FALSE(detector.update(base));
}

TEST(MotionDetector, ResetClearsState) {
  util::Rng rng(11);
  MotionDetector detector;
  const em::CxPlanes base = filled(8, {1.0, 0.0});
  for (int i = 0; i < 10; ++i) detector.update(noisy(base, 1e-4, rng));
  EXPECT_TRUE(detector.calibrated());
  detector.reset();
  EXPECT_FALSE(detector.calibrated());
  EXPECT_FALSE(detector.update(noisy(base, 0.5, rng)));  // first frame again
}

TEST(MotionDetector, DetectsWalkerInSimulatedChannel) {
  // End to end: the channel snapshot across a line of probe points (the
  // spatial diversity a sensing deployment observes) stays static until a
  // person crosses the room, then decorrelates as their shadow sweeps
  // across the probes.
  em::MaterialDb materials = em::MaterialDb::standard();
  const int body = sim::add_body_material(materials);
  sim::DynamicEnvironment world(materials, [](sim::Environment& env) {
    env.add_horizontal_slab(-5, 5, -5, 5, 0.0, em::kMatFloor);
  });
  sim::MovingBlocker walker;
  walker.id = "walker";
  // Starts far away (no channel impact), then crosses between panel and
  // probe around t ~ 8 s.
  walker.waypoints = {{0.0, -4.5, 0}, {0.0, 0.8, 0}};
  walker.speed_mps = 0.5;
  walker.material_id = body;
  world.add_blocker(walker);

  const double freq = em::band_center(em::Band::k28GHz);
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(freq) / 2.0;
  const surface::SurfacePanel panel(
      "aperture", geom::Frame({0, 2.0, 1.6}, {0, -1, 0}), 8, 8, d,
      surface::OperationMode::kReflective,
      surface::Reconfigurability::kProgrammable,
      surface::ControlGranularity::kElement);
  const sim::TxSpec ap{{-2.0, -1.0, 1.6}, nullptr};
  // A line of probe points across the walker's path: their channels are
  // shadowed at different times, changing the snapshot's *pattern*.
  std::vector<geom::Vec3> probes;
  for (int i = 0; i < 8; ++i) {
    probes.push_back({-1.4 + 0.4 * i, 0.2, 1.0});
  }
  const surface::SurfaceConfig uniform(panel.element_count());

  MotionDetector detector;
  bool detected = false;
  int detect_frame = -1;
  for (int frame = 0; frame <= 24; ++frame) {
    world.advance_to(static_cast<hal::Micros>(frame) *
                     hal::kMicrosPerSecond / 2);  // 0.5 s frames
    const sim::SceneChannel channel(&world.environment(), freq, ap, {&panel},
                                    probes);
    const auto coeffs = channel.coefficients_for(
        std::vector<surface::SurfaceConfig>{uniform});
    em::CxPlanes snapshot(probes.size());
    for (std::size_t j = 0; j < probes.size(); ++j) {
      snapshot.set(j, channel.evaluate(j, coeffs));
    }
    if (detector.update(snapshot) && !detected) {
      detected = true;
      detect_frame = frame;
    }
  }
  EXPECT_TRUE(detected);
  // Detection happens once the walker nears the panel-probe sight lines,
  // not during the calibration frames.
  EXPECT_GT(detect_frame, 5);
}

}  // namespace
}  // namespace surfos::sense
