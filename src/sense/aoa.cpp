#include "sense/aoa.hpp"

#include <cmath>
#include <stdexcept>

#include "sense/eigen.hpp"
#include "sense/steering.hpp"

namespace surfos::sense {

namespace {
constexpr double kSpectrumFloor = 1e-18;
}

std::vector<double> beamscan_spectrum(const em::CxPlaneMat& steering,
                                      const em::CxPlanes& v) {
  if (steering.cols() != v.size()) {
    throw std::invalid_argument("beamscan_spectrum: size mismatch");
  }
  std::vector<double> out(steering.rows());
  for (std::size_t b = 0; b < steering.rows(); ++b) {
    em::Cx s{};
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += std::conj(steering.at(b, i)) * v.at(i);
    }
    out[b] = std::norm(s);
  }
  return out;
}

std::vector<double> music_spectrum(const em::CxPlaneMat& steering,
                                   const em::CxPlaneMat& snapshots,
                                   std::size_t n_sources) {
  const std::size_t n = steering.cols();
  if (snapshots.cols() != n) {
    throw std::invalid_argument("music_spectrum: element count mismatch");
  }
  if (n_sources == 0 || n_sources >= n) {
    throw std::invalid_argument("music_spectrum: bad source count");
  }
  // Sample covariance R = E[x x^H]: R(i, k) = sum_s x_si * conj(x_sk).
  // (The transposed form conj(x_i) * x_k would put conj(a) in the signal
  // subspace and mirror the spectrum for a centered array.)
  em::CxPlaneMat r(n, n);
  for (std::size_t s = 0; s < snapshots.rows(); ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      const em::Cx xi = snapshots.at(s, i);
      for (std::size_t k = i; k < n; ++k) {
        r.set(i, k, r.at(i, k) + xi * std::conj(snapshots.at(s, k)));
      }
    }
  }
  const double inv = 1.0 / static_cast<double>(snapshots.rows());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = i; k < n; ++k) r.set(i, k, r.at(i, k) * inv);
  }
  const EigenResult eig = hermitian_eigen(r);
  // Noise subspace: eigenvectors of the n - n_sources smallest eigenvalues.
  const std::size_t noise_dim = n - n_sources;
  std::vector<double> out(steering.rows());
  for (std::size_t b = 0; b < steering.rows(); ++b) {
    double denom = 0.0;
    for (std::size_t e = 0; e < noise_dim; ++e) {
      em::Cx proj{};
      for (std::size_t i = 0; i < n; ++i) {
        proj += std::conj(eig.vectors.at(i, e)) * steering.at(b, i);
      }
      denom += std::norm(proj);
    }
    out[b] = 1.0 / std::fmax(denom, kSpectrumFloor);
  }
  return out;
}

double spectrum_peak(const std::vector<double>& angles,
                     const std::vector<double>& spectrum) {
  if (angles.size() != spectrum.size() || angles.empty()) {
    throw std::invalid_argument("spectrum_peak: bad input");
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < spectrum.size(); ++i) {
    if (spectrum[i] > spectrum[best]) best = i;
  }
  if (best == 0 || best + 1 == spectrum.size()) return angles[best];
  // Quadratic interpolation through the peak and its neighbors.
  const double y0 = spectrum[best - 1];
  const double y1 = spectrum[best];
  const double y2 = spectrum[best + 1];
  const double denom = y0 - 2.0 * y1 + y2;
  if (std::fabs(denom) < 1e-30) return angles[best];
  const double delta = 0.5 * (y0 - y2) / denom;
  const double step = angles[best + 1] - angles[best];
  return angles[best] + delta * step;
}

std::vector<double> normalize_spectrum(std::vector<double> spectrum) {
  double total = 0.0;
  for (double& p : spectrum) {
    if (p < 0.0) p = 0.0;
    total += p;
  }
  if (total <= 0.0) {
    const double uniform = 1.0 / static_cast<double>(spectrum.size());
    for (double& p : spectrum) p = uniform;
    return spectrum;
  }
  for (double& p : spectrum) p /= total;
  return spectrum;
}

double cross_entropy(const std::vector<double>& target,
                     const std::vector<double>& estimated) {
  if (target.size() != estimated.size()) {
    throw std::invalid_argument("cross_entropy: size mismatch");
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < target.size(); ++i) {
    sum -= target[i] * std::log(std::fmax(estimated[i], kSpectrumFloor));
  }
  return sum;
}

AoaSensingModel::AoaSensingModel(const surface::SurfacePanel* panel,
                                 double frequency_hz, std::size_t bins,
                                 double half_span_rad)
    : panel_(panel) {
  if (panel_ == nullptr) {
    throw std::invalid_argument("AoaSensingModel: null panel");
  }
  angles_ = angle_grid(-half_span_rad, half_span_rad, bins);
  steering_ = steering_matrix(*panel_, angles_, frequency_hz);
}

std::vector<double> AoaSensingModel::spectrum(const em::CxPlanes& v) const {
  return beamscan_spectrum(steering_, v);
}

double AoaSensingModel::estimate_azimuth(const em::CxPlanes& v) const {
  return spectrum_peak(angles_, spectrum(v));
}

std::vector<double> AoaSensingModel::target_distribution(
    double true_azimuth_rad, double sigma_rad) const {
  std::vector<double> q(angles_.size());
  for (std::size_t b = 0; b < angles_.size(); ++b) {
    const double d = (angles_[b] - true_azimuth_rad) / sigma_rad;
    q[b] = std::exp(-0.5 * d * d);
  }
  return normalize_spectrum(std::move(q));
}

double AoaSensingModel::loss(const em::CxPlanes& c, const em::CxPlanes& g,
                             const std::vector<double>& target,
                             std::span<double> grad_phases) const {
  const std::size_t n = panel_->element_count();
  if (c.size() != n || g.size() != n || target.size() != angles_.size()) {
    throw std::invalid_argument("AoaSensingModel::loss: size mismatch");
  }
  const bool want_grad = !grad_phases.empty();
  if (want_grad && grad_phases.size() != n) {
    throw std::invalid_argument("AoaSensingModel::loss: gradient size");
  }

  // v = c .* g; s_b = a_b^H v; P_b = |s_b|^2; p = P / sum(P);
  // L = -sum q_b log p_b = -sum q_b log P_b + log sum(P).
  em::CxPlanes v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, c.at(i) * g.at(i));
  const std::size_t bins = angles_.size();
  em::CxPlanes s(bins);
  std::vector<double> power(bins);
  double total = 0.0;
  for (std::size_t b = 0; b < bins; ++b) {
    em::Cx sb{};
    for (std::size_t i = 0; i < n; ++i) {
      sb += std::conj(steering_.at(b, i)) * v.at(i);
    }
    s.set(b, sb);
    power[b] = std::norm(sb) + kSpectrumFloor;
    total += power[b];
  }
  double loss = std::log(total);
  for (std::size_t b = 0; b < bins; ++b) {
    loss -= target[b] * std::log(power[b]);
  }

  if (want_grad) {
    // dL/dP_b = 1/total - q_b / P_b ;  dP_b/dphi_i = 2 Re(conj(s_b) *
    // conj(a_bi) * j * v_i). Accumulate over bins.
    for (std::size_t i = 0; i < n; ++i) grad_phases[i] = 0.0;
    for (std::size_t b = 0; b < bins; ++b) {
      const double dl_dp = 1.0 / total - target[b] / power[b];
      const em::Cx sb_conj = std::conj(s.at(b));
      for (std::size_t i = 0; i < n; ++i) {
        const em::Cx ds =
            std::conj(steering_.at(b, i)) * em::Cx{0.0, 1.0} * v.at(i);
        grad_phases[i] += dl_dp * 2.0 * (sb_conj * ds).real();
      }
    }
  }
  return loss;
}

}  // namespace surfos::sense
