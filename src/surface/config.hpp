// Surface configurations: "an array of signal property alteration values for
// each surface element" (paper 3.1). This is the unified currency between
// the orchestrator's optimizer and every driver, for passive and
// programmable hardware alike.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace surfos::surface {

/// Per-element phase shifts (radians, wrapped to [0, 2*pi)) and amplitude
/// scalings (in [0, 1]). Always element-wise and full-resolution: hardware
/// granularity and quantization are applied by the panel/driver when the
/// configuration is realized, so upper layers always program at "the finest
/// control granularity" and the constraint projection is explicit.
class SurfaceConfig {
 public:
  SurfaceConfig() = default;

  /// Uniform configuration: zero phase shift, unit amplitude.
  explicit SurfaceConfig(std::size_t element_count);

  SurfaceConfig(std::vector<double> phases, std::vector<double> amplitudes);

  std::size_t size() const noexcept { return phases_.size(); }
  bool empty() const noexcept { return phases_.empty(); }

  std::span<const double> phases() const noexcept { return phases_; }
  std::span<const double> amplitudes() const noexcept { return amplitudes_; }

  double phase(std::size_t i) const { return phases_.at(i); }
  double amplitude(std::size_t i) const { return amplitudes_.at(i); }

  /// Sets a phase (wrapped into [0, 2*pi)).
  void set_phase(std::size_t i, double radians);
  /// Sets an amplitude (clamped into [0, 1]).
  void set_amplitude(std::size_t i, double value);

  /// Adds `radians` to every element's phase.
  void shift_all_phases(double radians);

  /// Quantize phases to 2^bits uniform levels (bits <= 0 leaves continuous).
  SurfaceConfig quantized(int phase_bits) const;

  /// Wire encoding for the HAL control protocol: 16-bit phase codes +
  /// 8-bit amplitude codes, little-endian. Deterministic and compact.
  std::vector<std::uint8_t> serialize() const;
  static SurfaceConfig deserialize(std::span<const std::uint8_t> bytes);

  /// Max |wrapped phase difference| across elements — a cheap distance used
  /// by drivers to decide whether an update is worth a control message.
  double max_phase_delta(const SurfaceConfig& other) const;

  bool operator==(const SurfaceConfig& other) const noexcept = default;

 private:
  std::vector<double> phases_;
  std::vector<double> amplitudes_;
};

}  // namespace surfos::surface
