#include "sense/motion.hpp"

#include <cmath>
#include <stdexcept>

namespace surfos::sense {

namespace {

/// |v|^2 summed over the live elements.
double power(const em::CxPlanes& v) noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) sum += std::norm(v.at(i));
  return sum;
}

}  // namespace

double channel_decorrelation(const em::CxPlanes& a, const em::CxPlanes& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("channel_decorrelation: size mismatch");
  }
  const double pa = power(a);
  const double pb = power(b);
  if (pa < 1e-30 || pb < 1e-30) return 0.0;
  // a^H b, conjugate-linear in a.
  em::Cx cross{0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) {
    cross += std::conj(a.at(i)) * b.at(i);
  }
  return 1.0 - std::abs(cross) / std::sqrt(pa * pb);
}

MotionDetector::MotionDetector(MotionDetectorOptions options)
    : options_(options) {}

void MotionDetector::reset() {
  previous_ = {};
  last_score_ = 0.0;
  baseline_ = 0.0;
  baseline_samples_ = 0;
  consecutive_hits_ = 0;
}

bool MotionDetector::update(const em::CxPlanes& snapshot) {
  if (previous_.size() == 0) {
    previous_ = snapshot;
    return false;
  }
  last_score_ = channel_decorrelation(previous_, snapshot);
  previous_ = snapshot;

  if (baseline_samples_ < options_.calibration_frames) {
    // Running mean of the quiescent decorrelation (thermal drift etc.).
    baseline_ = (baseline_ * static_cast<double>(baseline_samples_) +
                 last_score_) /
                static_cast<double>(baseline_samples_ + 1);
    ++baseline_samples_;
    return false;
  }

  const double threshold =
      baseline_ * options_.threshold_factor + options_.threshold_floor;
  if (last_score_ > threshold) {
    ++consecutive_hits_;
  } else {
    consecutive_hits_ = 0;
  }
  return consecutive_hits_ >= options_.debounce_frames;
}

}  // namespace surfos::sense
