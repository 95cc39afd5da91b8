// SurfacePanel: the physical model of one metasurface — element lattice
// geometry, operation mode, reconfigurability, control granularity, and the
// mapping from a SurfaceConfig to per-element complex coefficients.
//
// The channel simulator treats a panel as an array of point re-radiators;
// the HAL wraps a panel in a driver; the orchestrator's optimizer treats the
// panel's *controls* (after granularity reduction) as its decision variables.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "em/soa.hpp"
#include "geom/frame.hpp"
#include "geom/vec3.hpp"
#include "surface/config.hpp"
#include "surface/types.hpp"

namespace surfos::surface {

/// Per-element electrical design parameters.
struct ElementDesign {
  double spacing_m = 0.005;       ///< Lattice pitch (square lattice).
  double area_m2 = 0.0;           ///< Effective aperture; 0 -> spacing^2.
  int phase_bits = 0;             ///< Phase quantization; 0 = continuous.
  bool amplitude_control = false; ///< Can elements attenuate independently?
  double insertion_loss_db = 1.0; ///< Loss per surface interaction.

  double effective_area() const noexcept {
    return area_m2 > 0.0 ? area_m2 : spacing_m * spacing_m;
  }
};

class SurfacePanel {
 public:
  /// `frame` places the panel: origin at the panel center, normal facing the
  /// "front" half-space (the side a reflective panel serves).
  SurfacePanel(std::string id, geom::Frame frame, std::size_t rows,
               std::size_t cols, ElementDesign design, OperationMode op_mode,
               Reconfigurability reconfigurability,
               ControlGranularity granularity);

  const std::string& id() const noexcept { return id_; }
  const geom::Frame& frame() const noexcept { return frame_; }
  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t element_count() const noexcept { return rows_ * cols_; }
  const ElementDesign& design() const noexcept { return design_; }
  OperationMode op_mode() const noexcept { return op_mode_; }
  Reconfigurability reconfigurability() const noexcept { return reconfig_; }
  ControlGranularity granularity() const noexcept { return granularity_; }

  double width_m() const noexcept {
    return static_cast<double>(cols_) * design_.spacing_m;
  }
  double height_m() const noexcept {
    return static_cast<double>(rows_) * design_.spacing_m;
  }
  double area_m2() const noexcept { return width_m() * height_m(); }

  /// World-space center of element (row, col).
  geom::Vec3 element_position(std::size_t row, std::size_t col) const;
  geom::Vec3 element_position(std::size_t flat_index) const;
  const std::vector<geom::Vec3>& element_positions() const noexcept {
    return positions_;
  }

  const geom::Vec3& normal() const noexcept { return frame_.normal(); }
  geom::Vec3 center() const noexcept { return frame_.origin(); }

  /// Signed side of a point: > 0 front half-space, < 0 back.
  double side_of(const geom::Vec3& point) const noexcept;

  /// Can this panel mediate energy from `from` to `to`, given its operation
  /// mode? Reflective: both on the front side. Transmissive: opposite sides.
  /// Transflective: either.
  bool serves(const geom::Vec3& from, const geom::Vec3& to) const noexcept;

  /// |cos| of the angle between the panel normal and the direction to a
  /// point, clamped at 0 for points in the panel plane.
  double incidence_cos(const geom::Vec3& point) const noexcept;

  // --- Control parameterization -------------------------------------------

  /// Number of independently controllable phase values under this panel's
  /// granularity (element: rows*cols; column: cols; row: rows; global: 1).
  std::size_t control_count() const noexcept;

  /// Expand reduced control values into a full element-wise SurfaceConfig
  /// (replicating along the shared dimension) and apply phase quantization.
  SurfaceConfig expand_controls(std::span<const double> control_phases) const;

  /// Project an element-wise config onto this panel's granularity (circular
  /// mean along shared dimensions) and quantization — what the hardware can
  /// actually realize. Idempotent.
  SurfaceConfig realizable(const SurfaceConfig& config) const;

  /// Reduced control values of a (realizable) config.
  std::vector<double> extract_controls(const SurfaceConfig& config) const;

  /// Per-element complex coefficients c_i = a_i * L * exp(j phi_i) for a
  /// config, where L is the linear insertion loss, written into `out`'s
  /// planes. The config is first projected through realizable(). Only live
  /// lanes are written, so a reused buffer keeps its zero padding; `out` is
  /// resized (zero-filled) only on a shape change.
  void coefficients_into(const SurfaceConfig& config, em::CxPlanes& out) const;

  /// Analytic focusing configuration: phases that co-phase the path
  /// source -> element -> target at `frequency_hz` (before quantization /
  /// granularity projection, which realizable() applies on use). The
  /// classic RIS beamforming profile; used for initialization and testing.
  SurfaceConfig focus_config(const geom::Vec3& source, const geom::Vec3& target,
                             double frequency_hz) const;

 private:
  std::string id_;
  geom::Frame frame_;
  std::size_t rows_, cols_;
  ElementDesign design_;
  OperationMode op_mode_;
  Reconfigurability reconfig_;
  ControlGranularity granularity_;
  std::vector<geom::Vec3> positions_;
};

}  // namespace surfos::surface
