#include "geom/mesh.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "geom/bvh.hpp"

namespace surfos::geom {

TriangleMesh::TriangleMesh() = default;
TriangleMesh::~TriangleMesh() = default;
TriangleMesh::TriangleMesh(TriangleMesh&&) noexcept = default;
TriangleMesh& TriangleMesh::operator=(TriangleMesh&&) noexcept = default;

void TriangleMesh::add_triangle(Triangle tri) {
  triangles_.push_back(tri);
  bvh_.reset();  // geometry changed; index is stale
}

void TriangleMesh::add_quad(const Vec3& a, const Vec3& b, const Vec3& c,
                            const Vec3& d, int material_id) {
  add_triangle({a, b, c, material_id});
  add_triangle({a, c, d, material_id});
}

namespace {

/// The six faces of the box [lo, hi] as quads in perimeter order.
std::array<std::array<Vec3, 4>, 6> box_faces(const Vec3& lo, const Vec3& hi) {
  const Vec3 p000{lo.x, lo.y, lo.z}, p100{hi.x, lo.y, lo.z};
  const Vec3 p010{lo.x, hi.y, lo.z}, p110{hi.x, hi.y, lo.z};
  const Vec3 p001{lo.x, lo.y, hi.z}, p101{hi.x, lo.y, hi.z};
  const Vec3 p011{lo.x, hi.y, hi.z}, p111{hi.x, hi.y, hi.z};
  return {{{p000, p100, p110, p010},    // bottom
           {p001, p101, p111, p011},    // top
           {p000, p100, p101, p001},    // y = lo
           {p010, p110, p111, p011},    // y = hi
           {p000, p010, p011, p001},    // x = lo
           {p100, p110, p111, p101}}};  // x = hi
}

}  // namespace

std::size_t TriangleMesh::add_box(const Vec3& lo, const Vec3& hi,
                                  int material_id) {
  const std::size_t first = triangles_.size();
  for (const auto& f : box_faces(lo, hi)) {
    add_quad(f[0], f[1], f[2], f[3], material_id);
  }
  return first;
}

void TriangleMesh::move_box(std::size_t first_triangle, const Vec3& lo,
                            const Vec3& hi) {
  if (first_triangle + 12 > triangles_.size()) {
    throw std::out_of_range("TriangleMesh: no box at that triangle index");
  }
  const int material_id = triangles_[first_triangle].material_id;
  std::size_t t = first_triangle;
  for (const auto& f : box_faces(lo, hi)) {
    triangles_[t++] = {f[0], f[1], f[2], material_id};
    triangles_[t++] = {f[0], f[2], f[3], material_id};
  }
  if (bvh_) bvh_->refit();
}

Aabb TriangleMesh::bounds() const {
  Aabb box;
  for (const Triangle& tri : triangles_) box.expand(tri.bounds());
  return box;
}

void TriangleMesh::build_index() { bvh_ = std::make_unique<Bvh>(&triangles_); }

bool TriangleMesh::index_built() const noexcept { return bvh_ != nullptr; }

Hit TriangleMesh::closest_hit(const Ray& ray, double t_min, double t_max) const {
  if (!bvh_) throw std::logic_error("TriangleMesh: build_index() not called");
  return bvh_->closest_hit(ray, t_min, t_max);
}

bool TriangleMesh::occluded(const Ray& ray, double t_min, double t_max) const {
  if (!bvh_) throw std::logic_error("TriangleMesh: build_index() not called");
  return bvh_->occluded(ray, t_min, t_max);
}

bool TriangleMesh::segment_blocked(const Vec3& from, const Vec3& to) const {
  const Vec3 delta = to - from;
  const double length = delta.norm();
  if (length < kRayEpsilon) return false;
  const Ray ray{from, delta / length};
  return occluded(ray, kRayEpsilon, length - kRayEpsilon);
}

std::vector<Hit> TriangleMesh::all_hits_on_segment(const Vec3& from,
                                                   const Vec3& to) const {
  if (!bvh_) throw std::logic_error("TriangleMesh: build_index() not called");
  const Vec3 delta = to - from;
  const double length = delta.norm();
  std::vector<Hit> hits;
  if (length < kRayEpsilon) return hits;
  const Ray ray{from, delta / length};
  bvh_->collect_hits(ray, kRayEpsilon, length - kRayEpsilon, hits);
  // Tie-break exactly-coincident hits (a segment through a shared edge of
  // two quads) on triangle order so the survivor of the dedup below — and
  // therefore the incidence normal used for its slab response — is
  // deterministic, not an artifact of std::sort's handling of equal keys.
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.triangle_index < b.triangle_index;
  });
  // A segment crossing a quad's shared diagonal (or any coplanar triangle
  // pair) reports one hit per triangle; keep a single crossing per surface
  // point so wall attenuation is not double-counted. Within a coincident
  // same-material cluster the surviving hit is the lowest-triangle-index
  // member: when the cluster spans quads with different normals (a segment
  // through the shared edge of two box faces), the incidence angle depends
  // on which hit survives, and "lowest index" is the one rule both this
  // path and the vectorized seg_transmission kernel can apply cheaply.
  // Cluster membership is anchored on the first (smallest-t) member, like
  // std::unique's compare-against-last-kept.
  std::vector<Hit> unique_hits;
  unique_hits.reserve(hits.size());
  double anchor_t = 0.0;
  for (const Hit& hit : hits) {
    if (!unique_hits.empty() && std::abs(hit.t - anchor_t) < 1e-9 &&
        hit.material_id == unique_hits.back().material_id) {
      if (hit.triangle_index < unique_hits.back().triangle_index) {
        unique_hits.back() = hit;
      }
      continue;
    }
    unique_hits.push_back(hit);
    anchor_t = hit.t;
  }
  return unique_hits;
}

}  // namespace surfos::geom
