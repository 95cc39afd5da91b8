// Epoch-indexed metric time-series for the streaming observability plane.
//
// The daemon records one Snapshot per control epoch into a fixed-capacity
// ring (telemetry::Timeseries) and serves subscribers *deltas*: only the
// counters and gauges whose values changed since the epoch the subscriber
// last acknowledged. A subscriber that falls behind the ring (its anchor
// epoch was evicted) gets a full baseline instead — deltas are an
// optimization, never a correctness dependency.
//
// Thread-compatibility: Timeseries is NOT internally synchronized. The
// daemon mutates and reads it under its own epoch mutex; benches drive it
// single-threaded.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "telemetry/metrics.hpp"

namespace surfos::telemetry {

/// One per-epoch metrics snapshot (counters + gauges only; histograms
/// don't delta-encode usefully).
struct TimeseriesSample {
  std::uint64_t epoch = 0;
  double epoch_ms = 0.0;  ///< Wall-clock duration of this control epoch.
  double flush_us = 0.0;  ///< HAL actuation time within the epoch.
  std::vector<CounterSample> counters;  ///< Sorted by name.
  std::vector<GaugeSample> gauges;      ///< Sorted by name.
};

/// A delta between two epochs: only instruments whose value changed.
/// `baseline == true` means the anchor epoch was unavailable (first event,
/// or evicted by ring wraparound after the subscriber stalled) and the
/// counters/gauges are the complete current set.
struct MetricsDelta {
  std::uint64_t from_epoch = 0;  ///< 0 when baseline.
  std::uint64_t to_epoch = 0;
  bool baseline = false;
  double epoch_ms = 0.0;
  double flush_us = 0.0;
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
};

class Timeseries {
 public:
  explicit Timeseries(std::size_t capacity = 512);

  /// Appends the snapshot for `epoch` (epochs must be recorded in
  /// increasing order; re-recording the same epoch overwrites it).
  void record(std::uint64_t epoch, const Snapshot& snapshot, double epoch_ms,
              double flush_us);

  /// Delta of the latest sample against the sample at `since_epoch`.
  /// nullopt when nothing has been recorded yet. Falls back to a full
  /// baseline when `since_epoch` is 0 or no longer in the ring.
  std::optional<MetricsDelta> delta_since(std::uint64_t since_epoch) const;

  const TimeseriesSample* latest() const noexcept;
  /// Sample for an exact epoch, or nullptr if evicted / never recorded.
  const TimeseriesSample* find(std::uint64_t epoch) const noexcept;

  std::size_t size() const noexcept { return count_; }
  std::size_t capacity() const noexcept { return ring_.size(); }

 private:
  std::vector<TimeseriesSample> ring_;  ///< Fixed size = capacity.
  std::size_t next_ = 0;                ///< Next write slot.
  std::size_t count_ = 0;               ///< Filled slots (<= capacity).
};

/// Two-pointer diff of sorted sample vectors: entries of `now` missing
/// from `then` or with a different value. Exposed for tests.
std::vector<CounterSample> diff_counters(
    const std::vector<CounterSample>& then,
    const std::vector<CounterSample>& now);
std::vector<GaugeSample> diff_gauges(const std::vector<GaugeSample>& then,
                                     const std::vector<GaugeSample>& now);

}  // namespace surfos::telemetry
