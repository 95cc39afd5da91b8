#include "sim/environment.hpp"

#include <cmath>
#include <optional>

namespace surfos::sim {

geom::Vec3 Reflector::mirror(const geom::Vec3& p) const noexcept {
  const double side = (p - frame.origin()).dot(frame.normal());
  return p - 2.0 * side * frame.normal();
}

std::optional<geom::Vec3> Reflector::segment_plane_point(
    const geom::Vec3& a, const geom::Vec3& b) const {
  const double da = (a - frame.origin()).dot(frame.normal());
  const double db = (b - frame.origin()).dot(frame.normal());
  if (da * db >= 0.0) return std::nullopt;  // same side or touching
  const double t = da / (da - db);
  const geom::Vec3 p = a + (b - a) * t;
  const geom::Vec3 local = frame.to_local(p);
  if (std::fabs(local.x) > half_u || std::fabs(local.y) > half_v) {
    return std::nullopt;
  }
  return p;
}

Environment::Environment(em::MaterialDb materials)
    : materials_(std::move(materials)) {}

void Environment::add_wall(const geom::Vec3& a, const geom::Vec3& b,
                           const geom::Vec3& c, const geom::Vec3& d,
                           int material_id) {
  materials_.get(material_id);  // validate id early
  mesh_.add_quad(a, b, c, d, material_id);
  const geom::Vec3 center = (a + b + c + d) * 0.25;
  const geom::Vec3 edge_u = (b - a) * 0.5;
  const geom::Vec3 edge_v = (d - a) * 0.5;
  const geom::Vec3 normal = (b - a).cross(d - a).normalized();
  Reflector reflector;
  reflector.frame = geom::Frame(center, normal, edge_u);
  reflector.half_u = edge_u.norm();
  reflector.half_v = edge_v.norm();
  reflector.material_id = material_id;
  reflectors_.push_back(reflector);
}

void Environment::add_vertical_wall(double x0, double y0, double x1, double y1,
                                    double z0, double z1, int material_id) {
  add_wall({x0, y0, z0}, {x1, y1, z0}, {x1, y1, z1}, {x0, y0, z1}, material_id);
}

void Environment::add_horizontal_slab(double x0, double x1, double y0,
                                      double y1, double z, int material_id) {
  add_wall({x0, y0, z}, {x1, y0, z}, {x1, y1, z}, {x0, y1, z}, material_id);
}

std::size_t Environment::add_obstacle_box(const geom::Vec3& lo,
                                          const geom::Vec3& hi,
                                          int material_id) {
  materials_.get(material_id);
  obstacle_boxes_.push_back(
      {{lo, hi}, material_id, mesh_.add_box(lo, hi, material_id)});
  return obstacle_boxes_.size() - 1;
}

void Environment::move_obstacle_box(std::size_t i, const geom::Vec3& lo,
                                    const geom::Vec3& hi) {
  ObstacleBox& box = obstacle_boxes_.at(i);
  mesh_.move_box(box.first_triangle, lo, hi);
  box.extent = {lo, hi};
}

void Environment::finalize() { mesh_.build_index(); }

em::Cx Environment::segment_transmission(
    const geom::Vec3& from, const geom::Vec3& to, double frequency_hz,
    std::span<const geom::Vec3> exclude_near, double exclude_radius) const {
  const auto hits = mesh_.all_hits_on_segment(from, to);
  em::Cx product{1.0, 0.0};
  const geom::Vec3 dir = (to - from).normalized();
  for (const auto& hit : hits) {
    bool excluded = false;
    for (const geom::Vec3& p : exclude_near) {
      if (hit.point.distance_to(p) < exclude_radius) {
        excluded = true;
        break;
      }
    }
    if (excluded) continue;
    const em::Material& mat = materials_.get(hit.material_id);
    const double cos_i = std::fabs(dir.dot(hit.normal));
    const double incidence = std::acos(std::fmin(1.0, cos_i));
    product *= em::transmission_coefficient(mat, frequency_hz, incidence);
    if (std::norm(product) < 1e-30) return {};  // fully blocked
  }
  return product;
}

}  // namespace surfos::sim
