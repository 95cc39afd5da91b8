// Median-split bounding volume hierarchy over a triangle array.
//
// The channel simulator casts on the order of 10^6 occlusion rays per
// heatmap; a flat scan over a few hundred triangles would work but the BVH
// keeps large furnished scenes fast and is exercised by property tests
// against the brute-force path.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/ray.hpp"
#include "geom/triangle.hpp"

namespace surfos::geom {

class Bvh {
 public:
  /// Builds over the given triangles; the pointer must outlive the Bvh.
  explicit Bvh(const std::vector<Triangle>* triangles);

  /// Recomputes every node's bounds from the triangles' current positions,
  /// keeping the tree's shape: for triangles moved in place. Queries stay
  /// exact (the tree only prunes), though a tree built around the old
  /// positions may prune less.
  void refit();

  /// Closest hit within (t_min, t_max); returns invalid Hit when none.
  Hit closest_hit(const Ray& ray, double t_min, double t_max) const;

  /// Any-hit query (early exit), for shadow/occlusion rays.
  bool occluded(const Ray& ray, double t_min, double t_max) const;

  /// Every hit within the interval, unsorted; caller sorts if needed.
  void collect_hits(const Ray& ray, double t_min, double t_max,
                    std::vector<Hit>& out) const;

  std::size_t node_count() const noexcept { return nodes_.size(); }

 private:
  struct Node {
    Aabb box;
    // Leaf: first_prim/prim_count; interior: left child is index+1, right
    // child is right_child.
    std::uint32_t first_prim = 0;
    std::uint32_t prim_count = 0;
    std::uint32_t right_child = 0;
    bool is_leaf() const noexcept { return prim_count > 0; }
  };

  std::uint32_t build_node(std::uint32_t begin, std::uint32_t end);
  Hit triangle_hit(std::uint32_t prim_index, const Ray& ray, double t_min,
                   double t_max) const;

  const std::vector<Triangle>* triangles_;
  std::vector<std::uint32_t> order_;  ///< Triangle indices, partitioned by node.
  std::vector<Node> nodes_;
};

}  // namespace surfos::geom
