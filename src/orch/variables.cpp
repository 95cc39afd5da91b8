#include "orch/variables.hpp"

#include <cmath>
#include <stdexcept>

namespace surfos::orch {

namespace {

std::size_t group_of(const surface::SurfacePanel& panel, std::size_t element) {
  const std::size_t row = element / panel.cols();
  const std::size_t col = element % panel.cols();
  switch (panel.granularity()) {
    case surface::ControlGranularity::kElement: return element;
    case surface::ControlGranularity::kColumn: return col;
    case surface::ControlGranularity::kRow: return row;
    case surface::ControlGranularity::kGlobal: return 0;
  }
  return 0;
}

}  // namespace

PanelVariables::PanelVariables(
    std::vector<const surface::SurfacePanel*> panels)
    : panels_(std::move(panels)) {
  offsets_.reserve(panels_.size());
  for (const auto* p : panels_) {
    if (p == nullptr) throw std::invalid_argument("PanelVariables: null panel");
    offsets_.push_back(dimension_);
    dimension_ += p->control_count();
  }
}

std::pair<std::size_t, std::size_t> PanelVariables::range_of(
    std::size_t p) const {
  return {offsets_.at(p), panels_.at(p)->control_count()};
}

std::vector<em::CVec> PanelVariables::coefficients(
    std::span<const double> x) const {
  std::vector<em::CVec> out;
  coefficients_into(x, out);
  return out;
}

void PanelVariables::coefficients_into(std::span<const double> x,
                                       std::vector<em::CVec>& out) const {
  if (x.size() != dimension_) {
    throw std::invalid_argument("PanelVariables: dimension mismatch");
  }
  out.resize(panels_.size());
  for (std::size_t p = 0; p < panels_.size(); ++p) {
    const auto& panel = *panels_[p];
    const double loss = panel_loss(p);
    const std::size_t offset = offsets_[p];
    out[p].resize(panel.element_count());
    for (std::size_t e = 0; e < panel.element_count(); ++e) {
      out[p][e] = std::polar(loss, x[offset + group_of(panel, e)]);
    }
  }
}

double PanelVariables::panel_loss(std::size_t p) const {
  return std::pow(10.0, -panels_.at(p)->design().insertion_loss_db / 20.0);
}

void PanelVariables::reduce_gradient(std::size_t p,
                                     std::span<const double> element_grad,
                                     std::span<double> x_grad) const {
  const auto& panel = *panels_.at(p);
  if (element_grad.size() != panel.element_count() ||
      x_grad.size() != dimension_) {
    throw std::invalid_argument("PanelVariables: gradient size mismatch");
  }
  const std::size_t offset = offsets_[p];
  for (std::size_t e = 0; e < panel.element_count(); ++e) {
    x_grad[offset + group_of(panel, e)] += element_grad[e];
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
