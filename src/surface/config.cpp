#include "surface/config.hpp"

#include <cmath>
#include <stdexcept>

#include "surface/memo.hpp"
#include "util/units.hpp"

namespace surfos::surface {

SurfaceConfig::SurfaceConfig(std::size_t element_count)
    : phases_(element_count, 0.0), amplitudes_(element_count, 1.0) {}

SurfaceConfig::SurfaceConfig(std::vector<double> phases,
                             std::vector<double> amplitudes)
    : phases_(std::move(phases)), amplitudes_(std::move(amplitudes)) {
  if (phases_.size() != amplitudes_.size()) {
    throw std::invalid_argument("SurfaceConfig: phase/amplitude size mismatch");
  }
  for (double& p : phases_) p = util::wrap_two_pi(p);
  for (double& a : amplitudes_) {
    if (a < 0.0) a = 0.0;
    if (a > 1.0) a = 1.0;
  }
}

void SurfaceConfig::set_phase(std::size_t i, double radians) {
  phases_.at(i) = util::wrap_two_pi(radians);
}

void SurfaceConfig::set_amplitude(std::size_t i, double value) {
  if (value < 0.0) value = 0.0;
  if (value > 1.0) value = 1.0;
  amplitudes_.at(i) = value;
}

void SurfaceConfig::shift_all_phases(double radians) {
  for (double& p : phases_) p = util::wrap_two_pi(p + radians);
}

SurfaceConfig SurfaceConfig::quantized(int phase_bits) const {
  SurfaceConfig out = *this;
  out.quantize(phase_bits);
  return out;
}

void SurfaceConfig::quantize(int phase_bits) {
  if (phase_bits <= 0) return;
  const double levels = std::pow(2.0, phase_bits);
  const double step = util::kTwoPi / levels;
  DistinctMemo<std::uint64_t, double> snap;
  for (double& p : phases_) {
    const double in = p;
    p = snap(bits_of(in), [in, step] {
      return util::wrap_two_pi(std::round(in / step) * step);
    });
  }
}

std::vector<std::uint8_t> SurfaceConfig::serialize() const {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(4 + size() * 3);
  const auto n = static_cast<std::uint32_t>(size());
  for (int shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<std::uint8_t>((n >> shift) & 0xFF));
  }
  for (std::size_t i = 0; i < size(); ++i) {
    const auto code = static_cast<std::uint16_t>(
        std::lround(phases_[i] / util::kTwoPi * 65535.0));
    bytes.push_back(static_cast<std::uint8_t>(code & 0xFF));
    bytes.push_back(static_cast<std::uint8_t>(code >> 8));
  }
  for (std::size_t i = 0; i < size(); ++i) {
    bytes.push_back(static_cast<std::uint8_t>(std::lround(amplitudes_[i] * 255.0)));
  }
  return bytes;
}

SurfaceConfig SurfaceConfig::deserialize(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) throw std::invalid_argument("SurfaceConfig: short buffer");
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) n |= static_cast<std::uint32_t>(bytes[i]) << (8 * i);
  const std::size_t expected = 4 + static_cast<std::size_t>(n) * 3;
  if (bytes.size() != expected) {
    throw std::invalid_argument("SurfaceConfig: truncated buffer");
  }
  std::vector<double> phases(n);
  std::vector<double> amplitudes(n);
  std::size_t offset = 4;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint16_t code = static_cast<std::uint16_t>(
        bytes[offset] | (static_cast<std::uint16_t>(bytes[offset + 1]) << 8));
    phases[i] = static_cast<double>(code) / 65535.0 * util::kTwoPi;
    offset += 2;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    amplitudes[i] = static_cast<double>(bytes[offset++]) / 255.0;
  }
  return SurfaceConfig{std::move(phases), std::move(amplitudes)};
}

double SurfaceConfig::max_phase_delta(const SurfaceConfig& other) const {
  if (other.size() != size()) {
    throw std::invalid_argument("SurfaceConfig: size mismatch");
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < size(); ++i) {
    const double d = std::fabs(util::wrap_pi(phases_[i] - other.phases_[i]));
    if (d > worst) worst = d;
  }
  return worst;
}

}  // namespace surfos::surface
