#include "sim/dynamics.hpp"

#include <cmath>
#include <stdexcept>

namespace surfos::sim {

geom::Vec3 MovingBlocker::position_at(double elapsed_s) const {
  if (waypoints.empty()) {
    throw std::logic_error("MovingBlocker: no waypoints");
  }
  if (waypoints.size() == 1 || speed_mps <= 0.0) return waypoints.front();

  // Total loop length (closing the loop back to the first waypoint).
  double total = 0.0;
  std::vector<double> leg_lengths;
  leg_lengths.reserve(waypoints.size());
  for (std::size_t i = 0; i < waypoints.size(); ++i) {
    const geom::Vec3& a = waypoints[i];
    const geom::Vec3& b = waypoints[(i + 1) % waypoints.size()];
    leg_lengths.push_back(a.distance_to(b));
    total += leg_lengths.back();
  }
  if (total < 1e-9) return waypoints.front();

  double walked = std::fmod(elapsed_s * speed_mps, total);
  for (std::size_t i = 0; i < waypoints.size(); ++i) {
    if (walked <= leg_lengths[i]) {
      const geom::Vec3& a = waypoints[i];
      const geom::Vec3& b = waypoints[(i + 1) % waypoints.size()];
      const double t = leg_lengths[i] < 1e-12 ? 0.0 : walked / leg_lengths[i];
      return a + (b - a) * t;
    }
    walked -= leg_lengths[i];
  }
  return waypoints.front();
}

namespace {

/// The box a blocker occupies standing at `p`.
geom::Aabb footprint(const MovingBlocker& blocker, const geom::Vec3& p) {
  const double half = blocker.width_m / 2.0;
  return {{p.x - half, p.y - half, 0.0},
          {p.x + half, p.y + half, blocker.height_m}};
}

}  // namespace

DynamicEnvironment::DynamicEnvironment(em::MaterialDb materials,
                                       StaticBuilder build_static) {
  if (!build_static) {
    throw std::invalid_argument("DynamicEnvironment: null static builder");
  }
  environment_ = std::make_unique<Environment>(std::move(materials));
  build_static(*environment_);
  environment_->finalize();
}

void DynamicEnvironment::add_blocker(MovingBlocker blocker) {
  if (blocker.waypoints.empty()) {
    throw std::invalid_argument("DynamicEnvironment: blocker without track");
  }
  environment_->materials().get(blocker.material_id);  // validate early
  const geom::Vec3 p = blocker.position_at(elapsed_s_);
  const geom::Aabb box = footprint(blocker, p);
  box_index_.push_back(
      environment_->add_obstacle_box(box.lo, box.hi, blocker.material_id));
  placed_positions_.push_back(p);
  blockers_.push_back(std::move(blocker));
  environment_->finalize();
}

bool DynamicEnvironment::advance_to(hal::Micros now,
                                    double motion_threshold_m) {
  elapsed_s_ = static_cast<double>(now) / 1e6;
  bool moved = false;
  for (std::size_t i = 0; i < blockers_.size() && !moved; ++i) {
    moved = blockers_[i].position_at(elapsed_s_).distance_to(
                placed_positions_[i]) > motion_threshold_m;
  }
  if (!moved) return false;
  // Re-place every blocker; one that stood still keeps its box bits, which
  // is what SceneChannel::sync compares.
  for (std::size_t i = 0; i < blockers_.size(); ++i) {
    const geom::Vec3 p = blockers_[i].position_at(elapsed_s_);
    const geom::Aabb box = footprint(blockers_[i], p);
    environment_->move_obstacle_box(box_index_[i], box.lo, box.hi);
    placed_positions_[i] = p;
  }
  ++motions_;
  return true;
}

geom::Vec3 DynamicEnvironment::blocker_position(const std::string& id) const {
  for (const auto& blocker : blockers_) {
    if (blocker.id == id) return blocker.position_at(elapsed_s_);
  }
  throw std::invalid_argument("DynamicEnvironment: unknown blocker " + id);
}

int add_body_material(em::MaterialDb& materials) {
  // Human tissue at mmWave: effectively an absorber (ITU-R P.1238 treats
  // bodies as ~15-20 dB obstructions; we model a thick very lossy slab).
  return materials.add({"body", 50.0, 1.5, 0.4, 0.25});
}

}  // namespace surfos::sim
