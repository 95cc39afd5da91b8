// Channel-variation motion detection — the second sensing mode the service
// API exposes (SensingGoal::kMotion). A moving body perturbs the multipath
// channel; the detector scores the decorrelation between consecutive channel
// snapshots against a calibrated quiescent baseline.
#pragma once

#include "em/soa.hpp"

namespace surfos::sense {

struct MotionDetectorOptions {
  /// Snapshots used to establish the quiescent decorrelation baseline.
  std::size_t calibration_frames = 5;
  /// Motion is declared when the decorrelation score exceeds the baseline
  /// by this factor plus the absolute floor below.
  double threshold_factor = 5.0;
  double threshold_floor = 1e-4;
  /// Consecutive triggering frames required (debounce).
  std::size_t debounce_frames = 1;
};

class MotionDetector {
 public:
  explicit MotionDetector(MotionDetectorOptions options = {});

  /// Feeds one channel snapshot (e.g. the element-domain vector of a sensing
  /// surface, or multi-subcarrier taps). Returns true when motion is
  /// currently declared. The first snapshots calibrate and never trigger.
  bool update(const em::CxPlanes& snapshot);

  /// Last decorrelation score in [0, 1]: 1 - |<prev, cur>| / (|prev||cur|).
  double last_score() const noexcept { return last_score_; }

  bool calibrated() const noexcept {
    return baseline_samples_ >= options_.calibration_frames;
  }
  double baseline() const noexcept { return baseline_; }

  void reset();

 private:
  MotionDetectorOptions options_;
  em::CxPlanes previous_;
  double last_score_ = 0.0;
  double baseline_ = 0.0;
  std::size_t baseline_samples_ = 0;
  std::size_t consecutive_hits_ = 0;
};

/// Decorrelation between two snapshots: 0 for identical (up to a global
/// complex scale), approaching 1 for orthogonal.
double channel_decorrelation(const em::CxPlanes& a, const em::CxPlanes& b);

}  // namespace surfos::sense
