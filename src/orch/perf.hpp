// Service performance models (paper 3.2: "The surface orchestrator uses
// these channel matrices to calculate service performance metrics, such as
// the received signal strength and estimated sensing or localization
// accuracy"). All metrics are computed from *realized* configurations —
// after granularity and quantization projection — so reported numbers match
// what the hardware actually does, not what the optimizer imagined.
#pragma once

#include <vector>

#include "em/propagation.hpp"
#include "em/soa.hpp"
#include "sim/channel.hpp"

namespace surfos::orch {

struct LinkMetrics {
  double rss_dbm = -300.0;
  double snr_db = -300.0;
  double capacity_mbps = 0.0;
};

struct CoverageMetrics {
  double median_snr_db = -300.0;
  double mean_capacity_mbps = 0.0;
  std::vector<double> snr_db;  ///< Per probe point.
};

struct SensingMetrics {
  double median_error_m = 1e9;
  std::vector<double> errors_m;  ///< Per probe point.
};

struct PowerMetrics {
  double delivered_dbm = -300.0;
};

// Every metric takes the coefficient planes the hardware's configs realize
// to (SceneChannel::coefficients_for), so a caller that measures several
// tasks under one configuration realizes it once.

LinkMetrics link_metrics(const sim::SceneChannel& channel,
                         const em::LinkBudget& budget,
                         std::span<const em::CxPlanes> coefficients,
                         std::size_t rx_index);

CoverageMetrics coverage_metrics(const sim::SceneChannel& channel,
                                 const em::LinkBudget& budget,
                                 std::span<const em::CxPlanes> coefficients,
                                 const std::vector<std::size_t>& rx_indices);

/// Localization accuracy through `sensing_panel` with the realized
/// coefficients: beamscan AoA per probe point -> position error
/// (accurate-ToF model).
SensingMetrics sensing_metrics(const sim::SceneChannel& channel,
                               std::span<const em::CxPlanes> coefficients,
                               std::size_t sensing_panel,
                               const std::vector<std::size_t>& rx_indices,
                               std::size_t spectrum_bins = 121);

PowerMetrics power_metrics(const sim::SceneChannel& channel,
                           const em::LinkBudget& budget,
                           std::span<const em::CxPlanes> coefficients,
                           std::size_t rx_index);

}  // namespace surfos::orch
