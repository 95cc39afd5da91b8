// Array steering vectors for a surface aperture.
//
// The sensing services treat a metasurface as a receive array: an incoming
// plane wave from azimuth theta (measured in the panel's horizontal u-n
// plane, 0 = boresight/normal) excites element i with phase
// k * (r_i - center) . s(theta). Angle grids and steering vectors here feed
// the beamscan/MUSIC estimators in aoa.hpp.
#pragma once

#include <vector>

#include "em/soa.hpp"
#include "geom/vec3.hpp"
#include "surface/panel.hpp"

namespace surfos::sense {

/// Uniform azimuth grid in radians over [lo, hi], `bins` points inclusive.
std::vector<double> angle_grid(double lo_rad, double hi_rad, std::size_t bins);

/// Unit world direction at azimuth theta in the panel's u-n plane.
geom::Vec3 azimuth_direction(const surface::SurfacePanel& panel, double theta);

/// True azimuth of a world point as seen from the panel center, in the u-n
/// plane (elevation is projected out).
double true_azimuth(const surface::SurfacePanel& panel, const geom::Vec3& point);

/// Steering vector a(theta): a_i = exp(+j k (r_i - center) . s(theta)).
em::CxPlanes steering_vector(const surface::SurfacePanel& panel, double theta,
                             double frequency_hz);

/// All steering vectors of a grid, as a (bins x elements) matrix.
em::CxPlaneMat steering_matrix(const surface::SurfacePanel& panel,
                               const std::vector<double>& angles,
                               double frequency_hz);

}  // namespace surfos::sense
