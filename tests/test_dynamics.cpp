// Environment-dynamics tests: moving-blocker kinematics, environment
// rebuilds, channel impact of a body crossing a link, and the
// orchestrator-facing invalidation contract.
#include <gtest/gtest.h>

#include "em/propagation.hpp"
#include "sim/dynamics.hpp"
#include "util/units.hpp"

namespace surfos::sim {
namespace {

MovingBlocker walker(std::vector<geom::Vec3> track, double speed = 1.0) {
  MovingBlocker blocker;
  blocker.id = "walker";
  blocker.waypoints = std::move(track);
  blocker.speed_mps = speed;
  return blocker;
}

TEST(MovingBlocker, StaysAtSingleWaypoint) {
  const MovingBlocker b = walker({{1, 2, 0}});
  EXPECT_EQ(b.position_at(0.0), geom::Vec3(1, 2, 0));
  EXPECT_EQ(b.position_at(100.0), geom::Vec3(1, 2, 0));
}

TEST(MovingBlocker, WalksAtConstantSpeed) {
  const MovingBlocker b = walker({{0, 0, 0}, {10, 0, 0}}, 2.0);
  EXPECT_NEAR(b.position_at(1.0).x, 2.0, 1e-9);
  EXPECT_NEAR(b.position_at(4.0).x, 8.0, 1e-9);
}

TEST(MovingBlocker, LoopsOverTrack) {
  // Track 0 -> 10 -> 0 (loop length 20 m) at 1 m/s.
  const MovingBlocker b = walker({{0, 0, 0}, {10, 0, 0}}, 1.0);
  EXPECT_NEAR(b.position_at(15.0).x, 5.0, 1e-9);  // on the way back
  EXPECT_NEAR(b.position_at(20.0).x, 0.0, 1e-9);  // full loop
  EXPECT_NEAR(b.position_at(22.0).x, 2.0, 1e-9);  // wrapped
}

TEST(MovingBlocker, MultiLegTrack) {
  const MovingBlocker b = walker({{0, 0, 0}, {4, 0, 0}, {4, 3, 0}}, 1.0);
  // Legs: 4 + 3 + 5 (closing hypotenuse) = 12 m loop.
  EXPECT_NEAR(b.position_at(5.0).y, 1.0, 1e-9);  // 1 m up the second leg
  const geom::Vec3 closing = b.position_at(8.0);  // 1 m along the hypotenuse
  EXPECT_NEAR(closing.distance_to({4, 3, 0}), 1.0, 1e-9);
}

DynamicEnvironment corridor_world() {
  em::MaterialDb materials = em::MaterialDb::standard();
  const int body = add_body_material(materials);
  DynamicEnvironment world(materials, [](Environment& env) {
    env.add_horizontal_slab(-10, 10, -10, 10, 0.0, em::kMatFloor);
  });
  MovingBlocker person = walker({{-3, 0, 0}, {3, 0, 0}}, 1.0);
  person.material_id = body;
  world.add_blocker(person);
  return world;
}

TEST(DynamicEnvironment, RebuildsOnlyWhenSomethingMoved) {
  DynamicEnvironment world = corridor_world();
  const std::size_t initial = world.motion_count();
  // 10 ms at 1 m/s = 1 cm < threshold: no rebuild.
  EXPECT_FALSE(world.advance_to(10 * hal::kMicrosPerMilli));
  EXPECT_EQ(world.motion_count(), initial);
  // 1 s = 1 m: rebuild.
  EXPECT_TRUE(world.advance_to(1 * hal::kMicrosPerSecond));
  EXPECT_EQ(world.motion_count(), initial + 1);
}

TEST(DynamicEnvironment, BlockerPositionTracksClock) {
  DynamicEnvironment world = corridor_world();
  world.advance_to(2 * hal::kMicrosPerSecond);
  EXPECT_NEAR(world.blocker_position("walker").x, -1.0, 1e-6);
  EXPECT_THROW(world.blocker_position("ghost"), std::invalid_argument);
}

TEST(DynamicEnvironment, BodyAttenuatesTheLinkItCrosses) {
  DynamicEnvironment world = corridor_world();
  const geom::Vec3 tx{0.0, -2.0, 1.2};
  const geom::Vec3 rx{0.0, 2.0, 1.2};
  const double f = em::band_center(em::Band::k28GHz);

  // t = 3 s: the walker is at x = 0 — standing exactly on the link.
  world.advance_to(3 * hal::kMicrosPerSecond);
  const double blocked =
      std::norm(world.environment().segment_transmission(tx, rx, f));

  // t = 5 s: the walker is at x = 2 — off the link.
  world.advance_to(5 * hal::kMicrosPerSecond);
  const double clear =
      std::norm(world.environment().segment_transmission(tx, rx, f));

  EXPECT_NEAR(util::to_db(clear), 0.0, 0.5);
  EXPECT_LT(util::to_db(blocked), -15.0);  // a body is a strong mmWave shadow
}

TEST(DynamicEnvironment, RejectsBadConstruction) {
  em::MaterialDb materials = em::MaterialDb::standard();
  EXPECT_THROW(DynamicEnvironment(materials, nullptr), std::invalid_argument);
  DynamicEnvironment world(materials, [](Environment&) {});
  EXPECT_THROW(world.add_blocker(MovingBlocker{}), std::invalid_argument);
}

TEST(DynamicEnvironment, StaticGeometrySurvivesRebuilds) {
  DynamicEnvironment world = corridor_world();
  const std::size_t before = world.environment().mesh().triangle_count();
  world.advance_to(2 * hal::kMicrosPerSecond);
  EXPECT_EQ(world.environment().mesh().triangle_count(), before);
}

}  // namespace
}  // namespace surfos::sim
