// Wideband time-of-flight ranging and full (range + bearing) localization.
//
// The paper's exploratory study assumes accurate ToF and only estimates the
// angle. This module closes that gap: the propagation distance of a
// dominant path is recovered from the channel's phase slope across
// frequency, h(f) ~ a * exp(-j 2*pi*f*d/c)  =>  d = -(c / 2*pi) * dphi/df,
// using unwrapped phases and a least-squares line fit. Combining the range
// with the beamscan bearing yields a position estimate with no oracle
// inputs — md-Track's multi-dimensional estimation in miniature.
#pragma once

#include <span>
#include <vector>

#include "em/soa.hpp"
#include "geom/vec3.hpp"
#include "sense/aoa.hpp"
#include "surface/panel.hpp"

namespace surfos::sense {

struct TofEstimate {
  double distance_m = 0.0;
  /// RMS phase-fit residual [rad]; large values flag multipath-corrupted
  /// taps whose range estimate should not be trusted.
  double residual_rad = 0.0;
};

/// Distance of the dominant path from per-frequency channel taps. Requires
/// at least two frequencies; subcarrier spacing must satisfy the
/// unambiguous-range condition d < c / (2 * delta_f) — with 10 MHz spacing
/// that is 15 m, plenty for rooms.
TofEstimate estimate_distance(std::span<const double> frequencies_hz,
                              const em::CxPlanes& taps);

/// Uniform subcarrier grid across a bandwidth, centered on `center_hz`.
std::vector<double> subcarrier_grid(double center_hz, double bandwidth_hz,
                                    std::size_t count);

struct RangeBearing {
  double azimuth_rad = 0.0;
  double range_m = 0.0;
  double tof_residual_rad = 0.0;
};

/// Full estimate from per-subcarrier element-domain snapshots of a sensing
/// panel (`taps_per_frequency[k]` is the panel's element vector at
/// `frequencies_hz[k]`): bearing via beamscan at the middle subcarrier,
/// range via the phase slope of the panel's center element.
RangeBearing range_and_bearing(const surface::SurfacePanel& panel,
                               std::span<const double> frequencies_hz,
                               std::span<const em::CxPlanes> taps_per_frequency,
                               std::size_t spectrum_bins = 121);

/// Position implied by a RangeBearing at a client height (range is measured
/// from the panel center along the azimuth direction).
geom::Vec3 position_from_range_bearing(const surface::SurfacePanel& panel,
                                       const RangeBearing& estimate,
                                       double height_m);

}  // namespace surfos::sense
