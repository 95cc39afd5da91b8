// PanelVariables: the mapping between the optimizer's flat variable vector
// and per-panel element coefficients.
//
// The optimizer works on the *controls* of each panel (element-, column-,
// row-, or globally-shared phases), concatenated across panels. During
// optimization phases stay continuous — quantization is a projection applied
// only when configurations are realized on hardware — so gradients remain
// exact. The chain rule through the control->element replication is a plain
// sum over each control's element group.
#pragma once

#include <span>
#include <vector>

#include "em/soa.hpp"
#include "surface/config.hpp"
#include "surface/panel.hpp"

namespace surfos::orch {

class PanelVariables {
 public:
  /// Panels are non-owning and must outlive this object.
  explicit PanelVariables(std::vector<const surface::SurfacePanel*> panels);

  std::size_t panel_count() const noexcept { return panels_.size(); }
  const surface::SurfacePanel& panel(std::size_t p) const { return *panels_.at(p); }
  const std::vector<const surface::SurfacePanel*>& panels() const noexcept {
    return panels_;
  }

  /// Total optimization dimension (sum of per-panel control counts).
  std::size_t dimension() const noexcept { return dimension_; }

  /// [offset, count) of panel p's controls within the flat vector.
  std::pair<std::size_t, std::size_t> range_of(std::size_t p) const;

  /// Continuous per-element complex coefficients for each panel,
  /// c_e = insertion_loss * exp(j * phase of e's control) with no
  /// quantization, written straight into SoA planes, reusing `out`'s
  /// per-panel buffers (the optimizer hot path: once per objective
  /// evaluation). One std::polar per control group, broadcast to the
  /// group's elements; values are bit-identical to per-element calls
  /// because every element of a group has the same polar input.
  void coefficients_into(std::span<const double> x,
                         std::vector<em::CxPlanes>& out) const;

  /// Adds each panel's per-element phase gradient into the flat gradient
  /// (summing within shared control groups).
  void reduce_gradient(std::size_t p, std::span<const double> element_grad,
                       std::span<double> x_grad) const;

  /// Hardware-realizable configurations (quantization applied by the panel).
  std::vector<surface::SurfaceConfig> realize(std::span<const double> x) const;

  /// Flat variable vector from existing element-wise configs (projected to
  /// controls via each panel's extract_controls).
  std::vector<double> from_configs(
      std::span<const surface::SurfaceConfig> configs) const;

 private:
  std::vector<const surface::SurfacePanel*> panels_;
  std::vector<std::size_t> offsets_;
  std::vector<double> losses_;  ///< Per-panel linear insertion loss.
  std::size_t dimension_ = 0;
};

}  // namespace surfos::orch
