// Deployment environment: the 3-D scene the channel simulator traces
// against. Walls are thin planar quads that both occlude/attenuate rays
// (via the triangle mesh) and act as specular reflectors (via the planar
// reflector list the image method consumes). Furniture boxes occlude and
// attenuate but are not specular reflectors — their faces are small and
// cluttered, so their specular contribution is treated as diffuse loss.
// Obstacle boxes can move in place (people walking, sim/dynamics.hpp): the
// environment object, its triangle order and its index stay; channels
// built over it catch up with SceneChannel::sync().
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "em/cx.hpp"
#include "em/material.hpp"
#include "geom/aabb.hpp"
#include "geom/frame.hpp"
#include "geom/mesh.hpp"
#include "geom/vec3.hpp"

namespace surfos::sim {

/// Finite planar rectangle reflector for the image method.
struct Reflector {
  geom::Frame frame;   ///< Origin at rectangle center, normal out of plane.
  double half_u = 0.0; ///< Half extent along frame.u().
  double half_v = 0.0; ///< Half extent along frame.v().
  int material_id = 0;

  /// Mirror a point across the (infinite) plane of this reflector.
  geom::Vec3 mirror(const geom::Vec3& p) const noexcept;

  /// Intersection of the segment a->b with the plane, if it lies within the
  /// rectangle bounds; nullopt otherwise.
  std::optional<geom::Vec3> segment_plane_point(const geom::Vec3& a,
                                                const geom::Vec3& b) const;
};

/// An occluding box (furniture, a person): its extent, its material, and
/// the first of the 12 mesh triangles it owns.
struct ObstacleBox {
  geom::Aabb extent;
  int material_id = 0;
  std::size_t first_triangle = 0;
};

class Environment {
 public:
  explicit Environment(em::MaterialDb materials);

  /// Adds a wall quad (corners in perimeter order) as both occluder and
  /// specular reflector.
  void add_wall(const geom::Vec3& a, const geom::Vec3& b, const geom::Vec3& c,
                const geom::Vec3& d, int material_id);

  /// Adds a vertical wall from a 2-D segment (x0,y0)-(x1,y1) spanning
  /// [z0, z1], the common case when building floor plans.
  void add_vertical_wall(double x0, double y0, double x1, double y1, double z0,
                         double z1, int material_id);

  /// Adds a horizontal slab (floor/ceiling) over [x0,x1] x [y0,y1] at height z.
  void add_horizontal_slab(double x0, double x1, double y0, double y1, double z,
                           int material_id);

  /// Adds an occluding box (furniture, a person). Not a specular reflector.
  /// Returns its index in obstacle_boxes().
  std::size_t add_obstacle_box(const geom::Vec3& lo, const geom::Vec3& hi,
                               int material_id);

  /// Moves obstacle box `i` to [lo, hi] in place (its triangles are
  /// rewritten and the index refit, no rebuild). Every query, and every
  /// artifact a SceneChannel derives, then matches a fresh build with the
  /// box placed at [lo, hi]. Channels over this environment catch up on
  /// their next SceneChannel::sync().
  void move_obstacle_box(std::size_t i, const geom::Vec3& lo,
                         const geom::Vec3& hi);

  /// The obstacle boxes as they stand now, in insertion order.
  std::span<const ObstacleBox> obstacle_boxes() const noexcept {
    return obstacle_boxes_;
  }

  /// Builds acceleration structures; must be called before queries.
  void finalize();
  bool finalized() const noexcept { return mesh_.index_built(); }

  const geom::TriangleMesh& mesh() const noexcept { return mesh_; }
  const em::MaterialDb& materials() const noexcept { return materials_; }
  std::span<const Reflector> reflectors() const noexcept { return reflectors_; }

  /// Complex amplitude transmission factor along the open segment from->to:
  /// the product of slab transmission coefficients of every wall/obstacle
  /// face crossed. Crossings closer than `exclude_radius` to a point in
  /// `exclude_near` are skipped (used to ignore the reflecting wall at its
  /// own bounce point). Returns 0 when a metal face blocks the segment.
  em::Cx segment_transmission(const geom::Vec3& from, const geom::Vec3& to,
                              double frequency_hz,
                              std::span<const geom::Vec3> exclude_near = {},
                              double exclude_radius = 1e-3) const;

 private:
  em::MaterialDb materials_;
  geom::TriangleMesh mesh_;
  std::vector<Reflector> reflectors_;
  std::vector<ObstacleBox> obstacle_boxes_;
};

}  // namespace surfos::sim
