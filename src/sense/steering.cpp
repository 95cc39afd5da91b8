#include "sense/steering.hpp"

#include <cmath>
#include <stdexcept>

#include "em/propagation.hpp"

namespace surfos::sense {

std::vector<double> angle_grid(double lo_rad, double hi_rad, std::size_t bins) {
  if (bins < 2 || hi_rad <= lo_rad) {
    throw std::invalid_argument("angle_grid: bad arguments");
  }
  std::vector<double> out(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    out[i] = lo_rad + (hi_rad - lo_rad) * static_cast<double>(i) /
                          static_cast<double>(bins - 1);
  }
  return out;
}

geom::Vec3 azimuth_direction(const surface::SurfacePanel& panel, double theta) {
  const geom::Frame& f = panel.frame();
  return f.normal() * std::cos(theta) + f.u() * std::sin(theta);
}

double true_azimuth(const surface::SurfacePanel& panel,
                    const geom::Vec3& point) {
  const geom::Vec3 local = panel.frame().to_local(point);
  // local = (u, v, n); azimuth in the u-n plane.
  return std::atan2(local.x, local.z);
}

em::CxPlanes steering_vector(const surface::SurfacePanel& panel, double theta,
                             double frequency_hz) {
  const double k = em::wavenumber(frequency_hz);
  const geom::Vec3 s = azimuth_direction(panel, theta);
  const geom::Vec3 center = panel.center();
  const auto& positions = panel.element_positions();
  em::CxPlanes a(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    a.set(i, em::expj(k * (positions[i] - center).dot(s)));
  }
  return a;
}

em::CxPlaneMat steering_matrix(const surface::SurfacePanel& panel,
                               const std::vector<double>& angles,
                               double frequency_hz) {
  em::CxPlaneMat mat(angles.size(), panel.element_count());
  for (std::size_t b = 0; b < angles.size(); ++b) {
    const em::CxPlanes a = steering_vector(panel, angles[b], frequency_hz);
    for (std::size_t i = 0; i < a.size(); ++i) mat.set(b, i, a.at(i));
  }
  return mat;
}

}  // namespace surfos::sense
