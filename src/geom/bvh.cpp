#include "geom/bvh.hpp"

#include <algorithm>
#include <numeric>

namespace surfos::geom {

namespace {
constexpr std::uint32_t kLeafSize = 4;
}

Bvh::Bvh(const std::vector<Triangle>* triangles) : triangles_(triangles) {
  order_.resize(triangles_->size());
  std::iota(order_.begin(), order_.end(), 0u);
  nodes_.reserve(triangles_->size() * 2 + 1);
  if (!order_.empty()) {
    build_node(0, static_cast<std::uint32_t>(order_.size()));
  }
}

std::uint32_t Bvh::build_node(std::uint32_t begin, std::uint32_t end) {
  const auto node_index = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();

  Aabb box;
  Aabb centroid_box;
  for (std::uint32_t i = begin; i < end; ++i) {
    const Triangle& tri = (*triangles_)[order_[i]];
    box.expand(tri.bounds());
    centroid_box.expand(tri.centroid());
  }
  nodes_[node_index].box = box;

  const std::uint32_t count = end - begin;
  if (count <= kLeafSize) {
    nodes_[node_index].first_prim = begin;
    nodes_[node_index].prim_count = count;
    return node_index;
  }

  // Split along the widest centroid axis at the median.
  const Vec3 extent = centroid_box.extent();
  int axis = 0;
  if (extent.y > extent.x) axis = 1;
  if (extent.z > (axis == 0 ? extent.x : extent.y)) axis = 2;

  const std::uint32_t mid = begin + count / 2;
  std::nth_element(order_.begin() + begin, order_.begin() + mid,
                   order_.begin() + end,
                   [this, axis](std::uint32_t a, std::uint32_t b) {
                     const Vec3 ca = (*triangles_)[a].centroid();
                     const Vec3 cb = (*triangles_)[b].centroid();
                     return (&ca.x)[axis] < (&cb.x)[axis];
                   });

  build_node(begin, mid);  // left child == node_index + 1
  nodes_[node_index].right_child = build_node(mid, end);
  return node_index;
}

void Bvh::refit() {
  // build_node emits every parent before its children, so a reverse sweep
  // sees both children of a node before the node itself.
  for (std::size_t n = nodes_.size(); n-- > 0;) {
    Node& node = nodes_[n];
    Aabb box;
    if (node.is_leaf()) {
      for (std::uint32_t i = 0; i < node.prim_count; ++i) {
        box.expand((*triangles_)[order_[node.first_prim + i]].bounds());
      }
    } else {
      box = nodes_[n + 1].box;
      box.expand(nodes_[node.right_child].box);
    }
    node.box = box;
  }
}

Hit Bvh::triangle_hit(std::uint32_t prim_index, const Ray& ray, double t_min,
                      double t_max) const {
  Hit hit;
  const std::uint32_t tri_index = order_[prim_index];
  const Triangle& tri = (*triangles_)[tri_index];
  if (const auto t = tri.intersect(ray, t_min, t_max)) {
    hit.t = *t;
    hit.point = ray.at(*t);
    Vec3 n = tri.geometric_normal();
    if (n.dot(ray.direction) > 0.0) n = -n;  // front-facing convention
    hit.normal = n;
    hit.triangle_index = static_cast<int>(tri_index);
    hit.material_id = tri.material_id;
  }
  return hit;
}

Hit Bvh::closest_hit(const Ray& ray, double t_min, double t_max) const {
  Hit best;
  if (nodes_.empty()) return best;
  std::uint32_t stack[64];
  int top = 0;
  stack[top++] = 0;
  double closest = t_max;
  while (top > 0) {
    const Node& node = nodes_[stack[--top]];
    if (!node.box.hit_by(ray, t_min, closest)) continue;
    if (node.is_leaf()) {
      for (std::uint32_t i = 0; i < node.prim_count; ++i) {
        const Hit hit = triangle_hit(node.first_prim + i, ray, t_min, closest);
        if (hit.valid()) {
          best = hit;
          closest = hit.t;
        }
      }
    } else {
      const std::uint32_t self =
          static_cast<std::uint32_t>(&node - nodes_.data());
      stack[top++] = node.right_child;
      stack[top++] = self + 1;
    }
  }
  return best;
}

bool Bvh::occluded(const Ray& ray, double t_min, double t_max) const {
  if (nodes_.empty()) return false;
  std::uint32_t stack[64];
  int top = 0;
  stack[top++] = 0;
  while (top > 0) {
    const Node& node = nodes_[stack[--top]];
    if (!node.box.hit_by(ray, t_min, t_max)) continue;
    if (node.is_leaf()) {
      for (std::uint32_t i = 0; i < node.prim_count; ++i) {
        const Triangle& tri = (*triangles_)[order_[node.first_prim + i]];
        if (tri.intersect(ray, t_min, t_max)) return true;
      }
    } else {
      const std::uint32_t self =
          static_cast<std::uint32_t>(&node - nodes_.data());
      stack[top++] = node.right_child;
      stack[top++] = self + 1;
    }
  }
  return false;
}

void Bvh::collect_hits(const Ray& ray, double t_min, double t_max,
                       std::vector<Hit>& out) const {
  if (nodes_.empty()) return;
  std::uint32_t stack[64];
  int top = 0;
  stack[top++] = 0;
  while (top > 0) {
    const Node& node = nodes_[stack[--top]];
    if (!node.box.hit_by(ray, t_min, t_max)) continue;
    if (node.is_leaf()) {
      for (std::uint32_t i = 0; i < node.prim_count; ++i) {
        const Hit hit = triangle_hit(node.first_prim + i, ray, t_min, t_max);
        if (hit.valid()) out.push_back(hit);
      }
    } else {
      const std::uint32_t self =
          static_cast<std::uint32_t>(&node - nodes_.data());
      stack[top++] = node.right_child;
      stack[top++] = self + 1;
    }
  }
}

}  // namespace surfos::geom
