#include "orch/variables.hpp"

#include <cmath>
#include <stdexcept>

namespace surfos::orch {

PanelVariables::PanelVariables(
    std::vector<const surface::SurfacePanel*> panels)
    : panels_(std::move(panels)) {
  offsets_.reserve(panels_.size());
  losses_.reserve(panels_.size());
  for (const auto* p : panels_) {
    if (p == nullptr) throw std::invalid_argument("PanelVariables: null panel");
    offsets_.push_back(dimension_);
    losses_.push_back(std::pow(10.0, -p->design().insertion_loss_db / 20.0));
    dimension_ += p->control_count();
  }
}

std::pair<std::size_t, std::size_t> PanelVariables::range_of(
    std::size_t p) const {
  return {offsets_.at(p), panels_.at(p)->control_count()};
}

void PanelVariables::coefficients_into(std::span<const double> x,
                                       std::vector<em::CxPlanes>& out) const {
  if (x.size() != dimension_) {
    throw std::invalid_argument("PanelVariables: dimension mismatch");
  }
  out.resize(panels_.size());
  for (std::size_t p = 0; p < panels_.size(); ++p) {
    const auto& panel = *panels_[p];
    const std::size_t rows = panel.rows();
    const std::size_t cols = panel.cols();
    // Only live lanes are written, so the zero padding of a reused buffer
    // survives; resize (which zero-fills) only on a shape change.
    if (out[p].size() != panel.element_count()) {
      out[p].resize(panel.element_count());
    }
    double* re = out[p].re();
    double* im = out[p].im();
    const double* controls = x.data() + offsets_[p];
    const auto put = [&](std::size_t e, const em::Cx& c) {
      re[e] = c.real();
      im[e] = c.imag();
    };
    switch (panel.granularity()) {
      case surface::ControlGranularity::kElement:
        for (std::size_t e = 0; e < rows * cols; ++e) {
          put(e, std::polar(losses_[p], controls[e]));
        }
        break;
      case surface::ControlGranularity::kColumn:
        for (std::size_t c = 0; c < cols; ++c) {
          const em::Cx v = std::polar(losses_[p], controls[c]);
          for (std::size_t r = 0; r < rows; ++r) put(r * cols + c, v);
        }
        break;
      case surface::ControlGranularity::kRow:
        for (std::size_t r = 0; r < rows; ++r) {
          const em::Cx v = std::polar(losses_[p], controls[r]);
          for (std::size_t c = 0; c < cols; ++c) put(r * cols + c, v);
        }
        break;
      case surface::ControlGranularity::kGlobal: {
        const em::Cx v = std::polar(losses_[p], controls[0]);
        for (std::size_t e = 0; e < rows * cols; ++e) put(e, v);
        break;
      }
    }
  }
}

void PanelVariables::reduce_gradient(std::size_t p,
                                     std::span<const double> element_grad,
                                     std::span<double> x_grad) const {
  const auto& panel = *panels_.at(p);
  if (element_grad.size() != panel.element_count() ||
      x_grad.size() != dimension_) {
    throw std::invalid_argument("PanelVariables: gradient size mismatch");
  }
  // Element order, so each control sums its group exactly as a plain
  // per-element loop would.
  double* out = x_grad.data() + offsets_[p];
  const std::size_t rows = panel.rows();
  const std::size_t cols = panel.cols();
  switch (panel.granularity()) {
    case surface::ControlGranularity::kElement:
      for (std::size_t e = 0; e < rows * cols; ++e) out[e] += element_grad[e];
      break;
    case surface::ControlGranularity::kColumn:
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          out[c] += element_grad[r * cols + c];
        }
      }
      break;
    case surface::ControlGranularity::kRow:
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          out[r] += element_grad[r * cols + c];
        }
      }
      break;
    case surface::ControlGranularity::kGlobal:
      for (std::size_t e = 0; e < rows * cols; ++e) out[0] += element_grad[e];
      break;
  }
}

std::vector<surface::SurfaceConfig> PanelVariables::realize(
    std::span<const double> x) const {
  if (x.size() != dimension_) {
    throw std::invalid_argument("PanelVariables: dimension mismatch");
  }
  std::vector<surface::SurfaceConfig> out;
  out.reserve(panels_.size());
  for (std::size_t p = 0; p < panels_.size(); ++p) {
    const auto& panel = *panels_[p];
    const auto [offset, count] = range_of(p);
    out.push_back(panel.expand_controls(x.subspan(offset, count)));
  }
  return out;
}

std::vector<double> PanelVariables::from_configs(
    std::span<const surface::SurfaceConfig> configs) const {
  if (configs.size() != panels_.size()) {
    throw std::invalid_argument("PanelVariables: config count mismatch");
  }
  std::vector<double> x(dimension_, 0.0);
  for (std::size_t p = 0; p < panels_.size(); ++p) {
    const auto controls = panels_[p]->extract_controls(configs[p]);
    const auto [offset, count] = range_of(p);
    for (std::size_t j = 0; j < count; ++j) x[offset + j] = controls[j];
  }
  return x;
}

}  // namespace surfos::orch
