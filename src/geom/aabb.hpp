// Axis-aligned bounding boxes (BVH nodes, environment extents).
#pragma once

#include <limits>

#include "geom/ray.hpp"
#include "geom/vec3.hpp"

namespace surfos::geom {

struct Aabb {
  Vec3 lo{std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::infinity()};
  Vec3 hi{-std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()};

  bool empty() const noexcept { return lo.x > hi.x; }

  void expand(const Vec3& p) noexcept {
    lo = min(lo, p);
    hi = max(hi, p);
  }
  void expand(const Aabb& b) noexcept {
    lo = min(lo, b.lo);
    hi = max(hi, b.hi);
  }

  Vec3 center() const noexcept { return (lo + hi) * 0.5; }
  Vec3 extent() const noexcept { return hi - lo; }

  double surface_area() const noexcept {
    if (empty()) return 0.0;
    const Vec3 e = extent();
    return 2.0 * (e.x * e.y + e.y * e.z + e.z * e.x);
  }

  bool contains(const Vec3& p) const noexcept {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y &&
           p.z >= lo.z && p.z <= hi.z;
  }

  /// This box grown by `margin` on every side.
  Aabb inflated(double margin) const noexcept {
    const Vec3 m{margin, margin, margin};
    return {lo - m, hi + m};
  }

  /// Does the closed segment a->b meet this (closed) box? Slab test over
  /// the segment parameter in [0, 1]; an axis the segment does not move
  /// along only checks that the segment lies within the slab.
  bool meets_segment(const Vec3& a, const Vec3& b) const noexcept {
    const double* lo_c = &lo.x;
    const double* hi_c = &hi.x;
    const double* a_c = &a.x;
    const double* b_c = &b.x;
    double t_min = 0.0;
    double t_max = 1.0;
    for (int axis = 0; axis < 3; ++axis) {
      const double d = b_c[axis] - a_c[axis];
      if (d == 0.0) {
        if (a_c[axis] < lo_c[axis] || a_c[axis] > hi_c[axis]) return false;
        continue;
      }
      double t0 = (lo_c[axis] - a_c[axis]) / d;
      double t1 = (hi_c[axis] - a_c[axis]) / d;
      if (t0 > t1) {
        const double tmp = t0;
        t0 = t1;
        t1 = tmp;
      }
      if (t0 > t_min) t_min = t0;
      if (t1 < t_max) t_max = t1;
      if (t_max < t_min) return false;
    }
    return true;
  }

  /// Slab test: does the ray intersect this box within [t_min, t_max]?
  bool hit_by(const Ray& ray, double t_min, double t_max) const noexcept {
    const double* lo_c = &lo.x;
    const double* hi_c = &hi.x;
    const double* o = &ray.origin.x;
    const double* d = &ray.direction.x;
    for (int axis = 0; axis < 3; ++axis) {
      const double inv = 1.0 / d[axis];
      double t0 = (lo_c[axis] - o[axis]) * inv;
      double t1 = (hi_c[axis] - o[axis]) * inv;
      if (inv < 0.0) {
        const double tmp = t0;
        t0 = t1;
        t1 = tmp;
      }
      if (t0 > t_min) t_min = t0;
      if (t1 < t_max) t_max = t1;
      if (t_max < t_min) return false;
    }
    return true;
  }
};

}  // namespace surfos::geom
