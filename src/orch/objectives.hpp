// Service objectives: the losses the orchestrator's optimizer minimizes
// (paper 4: coverage loss = negative sum of link capacity across locations;
// localization loss = cross-entropy between estimated and true AoA; the
// multitasking loss is their sum). All gradients are analytic, chained
// through SceneChannel partials and PanelVariables' control mapping.
//
// JointObjective is the one evaluator: a plan's weighted sum of service
// losses, computed from a single coefficient pass per x. The standalone
// objectives (Capacity, PowerDelivery, Localization) are one weight-1 term
// of it.
//
// A link term (capacity, power delivery) folds its RX set's single-bounce
// products once, when it is added (sim::SceneChannel::fold_links). Each
// evaluation is then one cmatvec per panel over the fold's rows, and the
// gradient reads each fold row directly as dh/dc in one SIMD kernel call
// per RX and panel (util::simd::Ops::power_grad_accum); RX that a
// panel-to-panel cascade reaches add its terms through
// SceneChannel::add_cascades. Values and gradients are bit-identical to the
// per-RX evaluate / evaluate_with_partials path.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "opt/objective.hpp"
#include "orch/variables.hpp"
#include "sim/channel.hpp"

namespace surfos::orch {

/// A plan's joint loss L(x) = sum_k w_k L_k(x) over service terms that share
/// one channel and one variable mapping. Each evaluation builds the
/// coefficient planes once and runs every term against them. Terms combine in
/// insertion order exactly as opt::WeightedSumObjective combines the
/// standalone objectives, and each term keeps its own accumulation order, so
/// values and gradients are bit-identical to that weighted sum.
class JointObjective final : public opt::Objective {
 public:
  /// `channel` and `variables` are non-owning, must outlive this object and
  /// must index the same panels. Link terms fold the channel when added, so
  /// the channel must not sync() or rebase_rx() while this object lives.
  JointObjective(const sim::SceneChannel* channel,
                 const PanelVariables* variables);
  ~JointObjective() override;

  /// Spectral efficiency over RX probe points, times `weight`:
  ///   L = -sign * (1/M) * sum_j log2(1 + rho * |h_j|^2)
  /// sign=+1 maximizes capacity (coverage/connectivity); sign=-1 minimizes
  /// it. `rho` converts channel power gain |h|^2 to linear SNR.
  void add_capacity(std::vector<std::size_t> rx_indices, double rho,
                    double sign, double weight);
  /// Received power, times `weight`: L = -(1/M) * sum_j |h_j|^2 / p0, where
  /// `p0` normalizes the loss to O(1). A negative weight suppresses power
  /// (security).
  void add_power_delivery(std::vector<std::size_t> rx_indices, double p0,
                          double weight);
  /// Mean cross-entropy between each probe location's beamscan spectrum
  /// through `sensing_panel` (an index into variables->panels()) and its
  /// true-AoA target distribution, times `weight`.
  void add_localization(std::size_t sensing_panel,
                        std::vector<std::size_t> rx_indices,
                        std::size_t spectrum_bins, double weight);

  std::size_t term_count() const noexcept { return terms_.size(); }

  std::size_t dimension() const override { return variables_->dimension(); }
  double value(std::span<const double> x) const override;
  double value_and_gradient(std::span<const double> x,
                            std::span<double> gradient) const override;
  /// Evaluation only reads the immutable channel/variables/term structure;
  /// scratch buffers are leased per call.
  bool thread_safe() const override { return true; }

 private:
  enum class TermKind { kCapacity, kPowerDelivery, kLocalization };
  struct Term;
  struct Scratch;
  /// A scratch set held for one evaluation, returned to the spares on exit.
  class Lease;

  /// Validates and appends a term; the caller fills its kind's fields.
  Term& new_term(TermKind kind, std::vector<std::size_t> rx_indices,
                 double weight, const char* name);
  /// Sizes s.h and s.sums to the link term's rows.
  void size_link_scratch(const Term& term, Scratch& s) const;
  /// s.h[k] = h_dir + the served panels' fold sums for the link term's rows
  /// [begin, end): one cmatvec per panel over those rows.
  void fold_sums(const Term& term, Scratch& s, std::size_t begin,
                 std::size_t end) const;
  /// Adds the channel's cascade terms to s.h[k] for the rows in
  /// [begin, end) that a live cascade reaches, one pool index per row; with
  /// `partials`, row k's dh/dc (its fold rows plus the cascade partials)
  /// goes to s.dh[k - begin].
  void cascade_rows(const Term& term, Scratch& s, std::size_t begin,
                    std::size_t end, bool partials) const;
  double term_value(const Term& term, Scratch& s) const;
  /// Writes the term's x-gradient into s.partial; returns its value.
  double term_value_and_gradient(const Term& term, Scratch& s) const;

  const sim::SceneChannel* channel_;
  const PanelVariables* variables_;
  std::vector<std::unique_ptr<Term>> terms_;
  /// Scratch sets not in use. A serial optimizer reuses one set for every
  /// evaluation; concurrent callers (value_batch) each lease their own.
  mutable std::mutex spare_mutex_;
  mutable std::vector<std::unique_ptr<Scratch>> spare_;
};

/// Shell of the standalone objectives: a JointObjective holding one
/// weight-1 term.
class SingleTermObjective : public opt::Objective {
 public:
  std::size_t dimension() const override { return joint_.dimension(); }
  double value(std::span<const double> x) const override {
    return joint_.value(x);
  }
  double value_and_gradient(std::span<const double> x,
                            std::span<double> gradient) const override {
    return joint_.value_and_gradient(x, gradient);
  }
  bool thread_safe() const override { return true; }

 protected:
  SingleTermObjective(const sim::SceneChannel* channel,
                      const PanelVariables* variables)
      : joint_(channel, variables) {}

  JointObjective joint_;
};

/// Spectral-efficiency objective (JointObjective::add_capacity, weight 1).
/// sign=-1 is security: suppress leakage into a region.
class CapacityObjective final : public SingleTermObjective {
 public:
  CapacityObjective(const sim::SceneChannel* channel,
                    const PanelVariables* variables,
                    std::vector<std::size_t> rx_indices, double rho,
                    double sign = 1.0)
      : SingleTermObjective(channel, variables) {
    joint_.add_capacity(std::move(rx_indices), rho, sign, 1.0);
  }
};

/// Received-power objective for wireless charging
/// (JointObjective::add_power_delivery, weight 1).
class PowerDeliveryObjective final : public SingleTermObjective {
 public:
  PowerDeliveryObjective(const sim::SceneChannel* channel,
                         const PanelVariables* variables,
                         std::vector<std::size_t> rx_indices, double p0)
      : SingleTermObjective(channel, variables) {
    joint_.add_power_delivery(std::move(rx_indices), p0, 1.0);
  }
};

/// Localization objective (JointObjective::add_localization, weight 1).
class LocalizationObjective final : public SingleTermObjective {
 public:
  LocalizationObjective(const sim::SceneChannel* channel,
                        const PanelVariables* variables,
                        std::size_t sensing_panel,
                        std::vector<std::size_t> rx_indices,
                        std::size_t spectrum_bins = 121)
      : SingleTermObjective(channel, variables) {
    joint_.add_localization(sensing_panel, std::move(rx_indices),
                            spectrum_bins, 1.0);
  }
};

}  // namespace surfos::orch
