#include "sense/tof.hpp"

#include <cmath>
#include <stdexcept>

#include "em/band.hpp"
#include "sense/localize.hpp"
#include "util/units.hpp"

namespace surfos::sense {

TofEstimate estimate_distance(std::span<const double> frequencies_hz,
                              const em::CxPlanes& taps) {
  const std::size_t n = frequencies_hz.size();
  if (n < 2 || taps.size() != n) {
    throw std::invalid_argument("estimate_distance: need >= 2 matching taps");
  }
  // Unwrap phases across frequency.
  std::vector<double> phases(n);
  phases[0] = std::arg(taps.at(0));
  for (std::size_t k = 1; k < n; ++k) {
    const double raw = std::arg(taps.at(k));
    const double prev = phases[k - 1];
    double delta = raw - std::fmod(prev, util::kTwoPi);
    delta = util::wrap_pi(delta);
    phases[k] = prev + delta;
  }
  // Least-squares line fit phi = a + b * f.
  double mean_f = 0.0, mean_p = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    mean_f += frequencies_hz[k];
    mean_p += phases[k];
  }
  mean_f /= static_cast<double>(n);
  mean_p /= static_cast<double>(n);
  double num = 0.0, den = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double df = frequencies_hz[k] - mean_f;
    num += df * (phases[k] - mean_p);
    den += df * df;
  }
  if (den < 1e-12) {
    throw std::invalid_argument("estimate_distance: degenerate frequency grid");
  }
  const double slope = num / den;  // dphi/df
  TofEstimate estimate;
  estimate.distance_m = -slope * em::kSpeedOfLight / util::kTwoPi;
  double ss = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double fit = mean_p + slope * (frequencies_hz[k] - mean_f);
    ss += (phases[k] - fit) * (phases[k] - fit);
  }
  estimate.residual_rad = std::sqrt(ss / static_cast<double>(n));
  return estimate;
}

std::vector<double> subcarrier_grid(double center_hz, double bandwidth_hz,
                                    std::size_t count) {
  if (count < 2 || bandwidth_hz <= 0.0 || center_hz <= bandwidth_hz / 2.0) {
    throw std::invalid_argument("subcarrier_grid: bad arguments");
  }
  std::vector<double> out(count);
  for (std::size_t k = 0; k < count; ++k) {
    out[k] = center_hz - bandwidth_hz / 2.0 +
             bandwidth_hz * static_cast<double>(k) /
                 static_cast<double>(count - 1);
  }
  return out;
}

RangeBearing range_and_bearing(const surface::SurfacePanel& panel,
                               std::span<const double> frequencies_hz,
                               std::span<const em::CxPlanes> taps_per_frequency,
                               std::size_t spectrum_bins) {
  if (frequencies_hz.size() != taps_per_frequency.size() ||
      frequencies_hz.size() < 2) {
    throw std::invalid_argument("range_and_bearing: tap/frequency mismatch");
  }
  for (const em::CxPlanes& taps : taps_per_frequency) {
    if (taps.size() != panel.element_count()) {
      throw std::invalid_argument("range_and_bearing: tap size mismatch");
    }
  }
  RangeBearing out;
  // Bearing from the middle subcarrier's spatial snapshot.
  const std::size_t mid = frequencies_hz.size() / 2;
  const AoaSensingModel model(&panel, frequencies_hz[mid], spectrum_bins);
  out.azimuth_rad = model.estimate_azimuth(taps_per_frequency[mid]);
  // Range from the center element's taps across frequency.
  const std::size_t center_index =
      (panel.rows() / 2) * panel.cols() + panel.cols() / 2;
  em::CxPlanes center_taps(frequencies_hz.size());
  for (std::size_t k = 0; k < frequencies_hz.size(); ++k) {
    center_taps.set(k, taps_per_frequency[k].at(center_index));
  }
  const TofEstimate tof = estimate_distance(frequencies_hz, center_taps);
  out.range_m = tof.distance_m;
  out.tof_residual_rad = tof.residual_rad;
  return out;
}

geom::Vec3 position_from_range_bearing(const surface::SurfacePanel& panel,
                                       const RangeBearing& estimate,
                                       double height_m) {
  return position_from_azimuth(panel, estimate.azimuth_rad, estimate.range_m,
                               height_m);
}

}  // namespace surfos::sense
