// Environment dynamics: the "unknown and dynamic external events such as
// human movement" (paper 3) that make surfaces an OS problem rather than a
// compile-time library (paper 5: "events such as furniture movement and
// people walking can require dynamic reconfiguration of surface states").
//
// A DynamicEnvironment wraps a static floorplan plus a set of moving
// occluders (people modeled as absorbing boxes on waypoint tracks). It
// builds its Environment once; each advance_to() that finds a blocker moved
// past the threshold moves the blockers' boxes in place
// (Environment::move_obstacle_box) and reports the motion. Channels over
// the environment catch up by delta on their next SceneChannel::sync(),
// re-keying every artifact the boxes' old and new positions leave
// untouched, so a walker step costs only the rows it crossed.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "geom/vec3.hpp"
#include "hal/clock.hpp"
#include "sim/environment.hpp"

namespace surfos::sim {

/// A mobile absorbing body (person, cart) following waypoints at a constant
/// speed, looping over its track.
struct MovingBlocker {
  std::string id;
  std::vector<geom::Vec3> waypoints;  ///< Ground-level track (z ignored).
  double speed_mps = 1.0;
  double width_m = 0.5;   ///< Footprint side length.
  double height_m = 1.75;
  int material_id = 0;    ///< Typically an absorbing "body" material.

  /// Position along the looped track after `elapsed` seconds.
  geom::Vec3 position_at(double elapsed_s) const;
};

/// A scene's Environment whose blocker boxes follow their tracks.
class DynamicEnvironment {
 public:
  /// `build_static` adds the immutable geometry (walls, furniture) into
  /// the Environment; it runs once, at construction.
  using StaticBuilder = std::function<void(Environment&)>;

  DynamicEnvironment(em::MaterialDb materials, StaticBuilder build_static);

  /// Adds the blocker's box at its current position (re-finalizes the
  /// environment: a structural change channels see as a full rebuild).
  void add_blocker(MovingBlocker blocker);
  std::size_t blocker_count() const noexcept { return blockers_.size(); }

  /// Advances simulated time. When any blocker moved more than
  /// `motion_threshold_m` since its box was last placed, moves every
  /// blocker whose position changed and returns true.
  bool advance_to(hal::Micros now, double motion_threshold_m = 0.05);

  /// The environment (finalized). The reference is stable for this
  /// object's lifetime; motion updates it in place.
  const Environment& environment() const noexcept { return *environment_; }

  /// Current position of a blocker by id (throws for unknown ids).
  geom::Vec3 blocker_position(const std::string& id) const;

  /// How many advance_to() calls moved the blockers.
  std::size_t motion_count() const noexcept { return motions_; }

 private:
  std::unique_ptr<Environment> environment_;
  std::vector<MovingBlocker> blockers_;
  std::vector<std::size_t> box_index_;         ///< [blocker] obstacle box
  std::vector<geom::Vec3> placed_positions_;   ///< [blocker] box position
  double elapsed_s_ = 0.0;
  std::size_t motions_ = 0;
};

/// Registers the standard absorbing "human body" material in a database and
/// returns its id (mostly water: high permittivity, very lossy).
int add_body_material(em::MaterialDb& materials);

}  // namespace surfos::sim
