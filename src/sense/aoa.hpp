// Angle-of-arrival estimation and the differentiable localization loss.
//
// Model (paper Section 4): the client's uplink excites the surface aperture
// with the per-element vector g (element channels); the surface's current
// coefficients c distort that excitation to v = c .* g before it is observed
// through the AP's sounding procedure. AoA is estimated from v by beamscan
// (or MUSIC over multi-frequency snapshots). A configuration optimized only
// for coverage co-phases v toward the beam target and destroys the client's
// angle signature — the Figure 2 conflict. The localization task's loss is
// the cross-entropy between the normalized beamscan spectrum and the true
// AoA distribution, exactly as the paper defines it.
//
// g, c, v and the steering rows are em::CxPlanes / em::CxPlaneMat, the planes
// the channel hands out (SceneChannel::rx_planes is a panel's g), so callers
// pass the channel's and the optimizer's planes straight in.
#pragma once

#include <span>
#include <vector>

#include "em/soa.hpp"
#include "surface/panel.hpp"

namespace surfos::sense {

/// Beamscan power spectrum: P_b = |a_b^H v|^2 for each steering row.
std::vector<double> beamscan_spectrum(const em::CxPlaneMat& steering,
                                      const em::CxPlanes& v);

/// MUSIC pseudo-spectrum from snapshot rows (snapshots x elements), with
/// `n_sources` signal-subspace dimensions.
std::vector<double> music_spectrum(const em::CxPlaneMat& steering,
                                   const em::CxPlaneMat& snapshots,
                                   std::size_t n_sources);

/// Quadratic-interpolated peak of a sampled spectrum; returns the refined
/// angle.
double spectrum_peak(const std::vector<double>& angles,
                     const std::vector<double>& spectrum);

/// Normalizes a non-negative spectrum into a probability distribution.
std::vector<double> normalize_spectrum(std::vector<double> spectrum);

/// Cross-entropy H(q, p) = -sum q_b log p_b (natural log, p floored).
double cross_entropy(const std::vector<double>& target,
                     const std::vector<double>& estimated);

/// One panel's AoA sensing pipeline: fixed angle grid + steering matrix.
class AoaSensingModel {
 public:
  AoaSensingModel(const surface::SurfacePanel* panel, double frequency_hz,
                  std::size_t bins = 121, double half_span_rad = 1.2);

  const std::vector<double>& angles() const noexcept { return angles_; }
  const surface::SurfacePanel& panel() const noexcept { return *panel_; }

  /// Beamscan spectrum of an aperture excitation v.
  std::vector<double> spectrum(const em::CxPlanes& v) const;

  /// Estimated azimuth from excitation v (beamscan peak).
  double estimate_azimuth(const em::CxPlanes& v) const;

  /// Discretized Gaussian target distribution centered on the true azimuth.
  std::vector<double> target_distribution(double true_azimuth_rad,
                                          double sigma_rad = 0.035) const;

  /// Cross-entropy localization loss for coefficients c against target, with
  /// v = c .* g. Optional analytic gradient w.r.t. the element phases of c.
  double loss(const em::CxPlanes& c, const em::CxPlanes& g,
              const std::vector<double>& target,
              std::span<double> grad_phases = {}) const;

 private:
  const surface::SurfacePanel* panel_;
  std::vector<double> angles_;
  em::CxPlaneMat steering_;  ///< bins x elements.
};

}  // namespace surfos::sense
