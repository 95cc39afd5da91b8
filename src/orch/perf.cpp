#include "orch/perf.hpp"

#include <cmath>
#include <stdexcept>

#include "sense/aoa.hpp"
#include "sense/localize.hpp"
#include "sense/steering.hpp"
#include "util/stats.hpp"

namespace surfos::orch {

LinkMetrics link_metrics(const sim::SceneChannel& channel,
                         const em::LinkBudget& budget,
                         std::span<const em::CxPlanes> coefficients,
                         std::size_t rx_index) {
  const std::size_t indices[1] = {rx_index};
  const double power = channel.powers_at(indices, coefficients).front();
  LinkMetrics metrics;
  metrics.rss_dbm = budget.rss_dbm(power);
  metrics.snr_db = budget.snr_db(power);
  metrics.capacity_mbps = budget.capacity(power) / 1e6;
  return metrics;
}

CoverageMetrics coverage_metrics(const sim::SceneChannel& channel,
                                 const em::LinkBudget& budget,
                                 std::span<const em::CxPlanes> coefficients,
                                 const std::vector<std::size_t>& rx_indices) {
  const auto powers = channel.powers_at(rx_indices, coefficients);
  CoverageMetrics metrics;
  metrics.snr_db.reserve(rx_indices.size());
  double capacity_sum = 0.0;
  for (const double power : powers) {
    metrics.snr_db.push_back(budget.snr_db(power));
    capacity_sum += budget.capacity(power);
  }
  metrics.median_snr_db = util::median(metrics.snr_db);
  metrics.mean_capacity_mbps =
      capacity_sum / (1e6 * static_cast<double>(rx_indices.size()));
  return metrics;
}

SensingMetrics sensing_metrics(const sim::SceneChannel& channel,
                               std::span<const em::CxPlanes> coefficients,
                               std::size_t sensing_panel,
                               const std::vector<std::size_t>& rx_indices,
                               std::size_t spectrum_bins) {
  if (coefficients.size() != channel.panel_count()) {
    throw std::invalid_argument("sensing_metrics: coefficient count mismatch");
  }
  const auto& panel = channel.panel(sensing_panel);
  const sense::AoaSensingModel model(&panel, channel.frequency_hz(),
                                     spectrum_bins);
  SensingMetrics metrics;
  metrics.errors_m.reserve(rx_indices.size());
  const em::CxPlanes& c = coefficients[sensing_panel];
  em::CxPlanes v(panel.element_count());
  for (std::size_t j : rx_indices) {
    const em::CxPlanes& g = channel.rx_planes(sensing_panel, j);
    for (std::size_t e = 0; e < v.size(); ++e) v.set(e, c.at(e) * g.at(e));
    const double azimuth = model.estimate_azimuth(v);
    metrics.errors_m.push_back(
        sense::localization_error(panel, channel.rx_point(j), azimuth));
  }
  metrics.median_error_m = util::median(metrics.errors_m);
  return metrics;
}

PowerMetrics power_metrics(const sim::SceneChannel& channel,
                           const em::LinkBudget& budget,
                           std::span<const em::CxPlanes> coefficients,
                           std::size_t rx_index) {
  const std::size_t indices[1] = {rx_index};
  const double power = channel.powers_at(indices, coefficients).front();
  return PowerMetrics{budget.rss_dbm(power)};
}

}  // namespace surfos::orch
