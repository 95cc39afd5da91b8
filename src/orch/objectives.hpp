// Service objectives: the losses the orchestrator's optimizer minimizes
// (paper 4: coverage loss = negative sum of link capacity across locations;
// localization loss = cross-entropy between estimated and true AoA; the
// multitasking loss is their sum). All gradients are analytic, chained
// through SceneChannel partials and PanelVariables' control mapping.
#pragma once

#include <memory>
#include <vector>

#include "opt/objective.hpp"
#include "orch/variables.hpp"
#include "sense/aoa.hpp"
#include "sim/channel.hpp"

namespace surfos::sim {
class DigestMemo;
}  // namespace surfos::sim

namespace surfos::orch {

/// Spectral-efficiency objective over a set of RX probe points:
///   L = -sign * (1/M) * sum_j log2(1 + rho * |h_j|^2)
/// sign=+1 maximizes capacity (coverage/connectivity); sign=-1 *minimizes*
/// it (security: suppress leakage into a region).
class CapacityObjective final : public opt::Objective {
 public:
  /// `rho` converts channel power gain |h|^2 to linear SNR
  /// (tx power / noise power, both linear).
  CapacityObjective(const sim::SceneChannel* channel,
                    const PanelVariables* variables,
                    std::vector<std::size_t> rx_indices, double rho,
                    double sign = 1.0);
  ~CapacityObjective() override;

  std::size_t dimension() const override;
  /// Digest-memoized (SURFOS_EVAL_CACHE): repeated evaluations of the same
  /// x — optimizer restarts, measure() re-sweeps — return the stored value
  /// byte-identically.
  double value(std::span<const double> x) const override;
  double value_and_gradient(std::span<const double> x,
                            std::span<double> gradient) const override;
  /// Evaluation only reads the immutable channel/variables structure; the
  /// value memo synchronizes internally.
  bool thread_safe() const override { return true; }

  /// The value memo behind value() (stats; tests).
  const sim::DigestMemo& memo() const noexcept { return *memo_; }

 private:
  const sim::SceneChannel* channel_;
  const PanelVariables* variables_;
  std::vector<std::size_t> rx_indices_;
  double rho_;
  double sign_;
  std::unique_ptr<sim::DigestMemo> memo_;
};

/// Received-power objective for wireless charging:
///   L = -(1/M) * sum_j |h_j|^2 / p0
/// `p0` is a normalization power gain so the loss is O(1) (use the best
/// single-point focus power).
class PowerDeliveryObjective final : public opt::Objective {
 public:
  PowerDeliveryObjective(const sim::SceneChannel* channel,
                         const PanelVariables* variables,
                         std::vector<std::size_t> rx_indices, double p0);
  ~PowerDeliveryObjective() override;

  std::size_t dimension() const override;
  /// Digest-memoized, like CapacityObjective::value.
  double value(std::span<const double> x) const override;
  double value_and_gradient(std::span<const double> x,
                            std::span<double> gradient) const override;
  /// Evaluation only reads the immutable channel/variables structure; the
  /// value memo synchronizes internally.
  bool thread_safe() const override { return true; }

 private:
  const sim::SceneChannel* channel_;
  const PanelVariables* variables_;
  std::vector<std::size_t> rx_indices_;
  double p0_;
  std::unique_ptr<sim::DigestMemo> memo_;
};

/// Localization objective: mean cross-entropy between each probe location's
/// beamscan spectrum (through the sensing panel's current coefficients) and
/// its true-AoA target distribution.
class LocalizationObjective final : public opt::Objective {
 public:
  /// `sensing_panel` indexes into variables->panels(); probe locations are
  /// channel RX indices.
  LocalizationObjective(const sim::SceneChannel* channel,
                        const PanelVariables* variables,
                        std::size_t sensing_panel,
                        std::vector<std::size_t> rx_indices,
                        std::size_t spectrum_bins = 121);
  ~LocalizationObjective() override;

  std::size_t dimension() const override;
  /// Digest-memoized, like CapacityObjective::value.
  double value(std::span<const double> x) const override;
  double value_and_gradient(std::span<const double> x,
                            std::span<double> gradient) const override;
  /// Evaluation only reads the immutable channel/model structure.
  bool thread_safe() const override { return true; }

  const sense::AoaSensingModel& sensing_model() const noexcept {
    return *model_;
  }

 private:
  const sim::SceneChannel* channel_;
  const PanelVariables* variables_;
  std::size_t sensing_panel_;
  std::vector<std::size_t> rx_indices_;
  std::unique_ptr<sense::AoaSensingModel> model_;
  std::vector<std::vector<double>> targets_;  ///< Per probe location.
  /// Sensing-panel -> probe-RX vectors, materialized once from the channel's
  /// SoA planes (rx_vector returns by value since the SoA refactor).
  std::vector<em::CVec> g_cache_;
  std::unique_ptr<sim::DigestMemo> memo_;
};

}  // namespace surfos::orch
