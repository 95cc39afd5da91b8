#include "surface/panel.hpp"

#include <cmath>
#include <stdexcept>

#include "em/propagation.hpp"
#include "util/units.hpp"

namespace surfos::surface {

SurfacePanel::SurfacePanel(std::string id, geom::Frame frame, std::size_t rows,
                           std::size_t cols, ElementDesign design,
                           OperationMode op_mode,
                           Reconfigurability reconfigurability,
                           ControlGranularity granularity)
    : id_(std::move(id)),
      frame_(frame),
      rows_(rows),
      cols_(cols),
      design_(design),
      op_mode_(op_mode),
      reconfig_(reconfigurability),
      granularity_(granularity) {
  if (rows_ == 0 || cols_ == 0) {
    throw std::invalid_argument("SurfacePanel: empty lattice");
  }
  if (design_.spacing_m <= 0.0) {
    throw std::invalid_argument("SurfacePanel: non-positive element spacing");
  }
  positions_.reserve(element_count());
  const double u0 = -0.5 * (static_cast<double>(cols_) - 1.0) * design_.spacing_m;
  const double v0 = -0.5 * (static_cast<double>(rows_) - 1.0) * design_.spacing_m;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      positions_.push_back(
          frame_.to_world(u0 + static_cast<double>(c) * design_.spacing_m,
                          v0 + static_cast<double>(r) * design_.spacing_m));
    }
  }
}

geom::Vec3 SurfacePanel::element_position(std::size_t row,
                                          std::size_t col) const {
  if (row >= rows_ || col >= cols_) {
    throw std::out_of_range("SurfacePanel: element index");
  }
  return positions_[row * cols_ + col];
}

geom::Vec3 SurfacePanel::element_position(std::size_t flat_index) const {
  if (flat_index >= positions_.size()) {
    throw std::out_of_range("SurfacePanel: element index");
  }
  return positions_[flat_index];
}

double SurfacePanel::side_of(const geom::Vec3& point) const noexcept {
  return (point - frame_.origin()).dot(frame_.normal());
}

bool SurfacePanel::serves(const geom::Vec3& from,
                          const geom::Vec3& to) const noexcept {
  const double sf = side_of(from);
  const double st = side_of(to);
  switch (op_mode_) {
    case OperationMode::kReflective: return sf > 0.0 && st > 0.0;
    case OperationMode::kTransmissive: return sf * st < 0.0;
    case OperationMode::kTransflective: return sf != 0.0 && st != 0.0;
  }
  return false;
}

double SurfacePanel::incidence_cos(const geom::Vec3& point) const noexcept {
  const geom::Vec3 d = point - frame_.origin();
  const double n = d.norm();
  if (n < 1e-12) return 0.0;
  return std::fabs(d.dot(frame_.normal())) / n;
}

std::size_t SurfacePanel::control_count() const noexcept {
  switch (granularity_) {
    case ControlGranularity::kElement: return rows_ * cols_;
    case ControlGranularity::kColumn: return cols_;
    case ControlGranularity::kRow: return rows_;
    case ControlGranularity::kGlobal: return 1;
  }
  return 0;
}

SurfaceConfig SurfacePanel::expand_controls(
    std::span<const double> control_phases) const {
  if (control_phases.size() != control_count()) {
    throw std::invalid_argument("SurfacePanel: control count mismatch");
  }
  SurfaceConfig config(element_count());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      std::size_t control = 0;
      switch (granularity_) {
        case ControlGranularity::kElement: control = r * cols_ + c; break;
        case ControlGranularity::kColumn: control = c; break;
        case ControlGranularity::kRow: control = r; break;
        case ControlGranularity::kGlobal: control = 0; break;
      }
      config.set_phase(r * cols_ + c, control_phases[control]);
    }
  }
  return config.quantized(design_.phase_bits);
}

SurfaceConfig SurfacePanel::realizable(const SurfaceConfig& config) const {
  if (config.size() != element_count()) {
    throw std::invalid_argument("SurfacePanel: config size mismatch");
  }
  SurfaceConfig out = config;
  if (granularity_ != ControlGranularity::kElement) {
    // Circular mean of phases within each shared control group.
    const std::size_t groups = control_count();
    std::vector<double> sum_cos(groups, 0.0);
    std::vector<double> sum_sin(groups, 0.0);
    auto group_of = [&](std::size_t r, std::size_t c) -> std::size_t {
      switch (granularity_) {
        case ControlGranularity::kColumn: return c;
        case ControlGranularity::kRow: return r;
        case ControlGranularity::kGlobal: return 0;
        case ControlGranularity::kElement: return r * cols_ + c;
      }
      return 0;
    };
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) {
        const double p = config.phase(r * cols_ + c);
        sum_cos[group_of(r, c)] += std::cos(p);
        sum_sin[group_of(r, c)] += std::sin(p);
      }
    }
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) {
        const std::size_t g = group_of(r, c);
        out.set_phase(r * cols_ + c, std::atan2(sum_sin[g], sum_cos[g]));
      }
    }
  }
  if (!design_.amplitude_control) {
    for (std::size_t i = 0; i < out.size(); ++i) out.set_amplitude(i, 1.0);
  }
  return out.quantized(design_.phase_bits);
}

std::vector<double> SurfacePanel::extract_controls(
    const SurfaceConfig& config) const {
  const SurfaceConfig real = realizable(config);
  std::vector<double> controls(control_count());
  switch (granularity_) {
    case ControlGranularity::kElement:
      for (std::size_t i = 0; i < real.size(); ++i) controls[i] = real.phase(i);
      break;
    case ControlGranularity::kColumn:
      for (std::size_t c = 0; c < cols_; ++c) controls[c] = real.phase(c);
      break;
    case ControlGranularity::kRow:
      for (std::size_t r = 0; r < rows_; ++r) controls[r] = real.phase(r * cols_);
      break;
    case ControlGranularity::kGlobal:
      controls[0] = real.phase(0);
      break;
  }
  return controls;
}

void SurfacePanel::coefficients_into(const SurfaceConfig& config,
                                     em::CxPlanes& out) const {
  const SurfaceConfig real = realizable(config);
  const double loss = std::pow(10.0, -design_.insertion_loss_db / 20.0);
  if (out.size() != real.size()) out.resize(real.size());
  for (std::size_t i = 0; i < real.size(); ++i) {
    out.set(i, std::polar(real.amplitude(i) * loss, real.phase(i)));
  }
}

SurfaceConfig SurfacePanel::focus_config(const geom::Vec3& source,
                                         const geom::Vec3& target,
                                         double frequency_hz) const {
  const double k = em::wavenumber(frequency_hz);
  SurfaceConfig config(element_count());
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    const double d = positions_[i].distance_to(source) +
                     positions_[i].distance_to(target);
    // Cancel the propagation phase -k*d so all element paths add in phase.
    config.set_phase(i, k * d);
  }
  return config;
}

}  // namespace surfos::surface
