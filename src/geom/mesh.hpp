// Triangle mesh with a BVH-accelerated closest-hit / occlusion interface.
// The channel simulator's environment geometry (walls, floors, furniture)
// lives in one TriangleMesh.
#pragma once

#include <memory>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/ray.hpp"
#include "geom/triangle.hpp"
#include "geom/vec3.hpp"

namespace surfos::geom {

class Bvh;  // defined in bvh.hpp

class TriangleMesh {
 public:
  TriangleMesh();
  ~TriangleMesh();
  TriangleMesh(TriangleMesh&&) noexcept;
  TriangleMesh& operator=(TriangleMesh&&) noexcept;
  TriangleMesh(const TriangleMesh&) = delete;
  TriangleMesh& operator=(const TriangleMesh&) = delete;

  void add_triangle(Triangle tri);

  /// Axis-aligned rectangle helper: adds two triangles spanning the quad
  /// (a, b, c, d) given in order around the perimeter.
  void add_quad(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d,
                int material_id);

  /// Adds the 12 triangles of a box (furniture, interior obstacles) and
  /// returns the index of the first.
  std::size_t add_box(const Vec3& lo, const Vec3& hi, int material_id);

  /// Moves the box whose first triangle is `first_triangle` to [lo, hi]:
  /// rewrites its 12 triangles in place, in add_box's order and with its
  /// material, and marks a built index stale; the first query after the
  /// move refits it (no rebuild), so moves without a query between them pay
  /// one refit. The triangle array is then the one a fresh build with the
  /// box at [lo, hi] would hold. Not concurrent with queries.
  void move_box(std::size_t first_triangle, const Vec3& lo, const Vec3& hi);

  std::size_t triangle_count() const noexcept { return triangles_.size(); }
  const Triangle& triangle(std::size_t i) const { return triangles_[i]; }
  const std::vector<Triangle>& triangles() const noexcept { return triangles_; }

  Aabb bounds() const;

  /// (Re)build the BVH; must be called after the last add_* and before any
  /// query. Queries on a stale index throw std::logic_error.
  void build_index();
  bool index_built() const noexcept;

  /// Closest hit along the ray within (t_min, t_max).
  Hit closest_hit(const Ray& ray, double t_min = kRayEpsilon,
                  double t_max = std::numeric_limits<double>::infinity()) const;

  /// True if any triangle blocks the ray within (t_min, t_max).
  bool occluded(const Ray& ray, double t_min, double t_max) const;

  /// Convenience: is the open segment between two points blocked?
  bool segment_blocked(const Vec3& from, const Vec3& to) const;

  /// All hits along a segment, sorted by t (used to accumulate through-wall
  /// penetration loss across multiple walls).
  std::vector<Hit> all_hits_on_segment(const Vec3& from, const Vec3& to) const;

 private:
  /// The built index, refitted first if a move left it stale; throws
  /// std::logic_error when build_index() was not called.
  const Bvh& index() const;

  std::vector<Triangle> triangles_;
  std::unique_ptr<Bvh> bvh_;
};

}  // namespace surfos::geom
