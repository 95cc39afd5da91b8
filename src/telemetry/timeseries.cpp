#include "telemetry/timeseries.hpp"

#include <algorithm>
#include <bit>

namespace surfos::telemetry {

Timeseries::Timeseries(std::size_t capacity)
    : ring_(std::max<std::size_t>(1, capacity)) {}

void Timeseries::record(std::uint64_t epoch, const Snapshot& snapshot,
                        double epoch_ms, double flush_us) {
  // Same epoch re-recorded (tests stepping by hand) overwrites in place so
  // the ring never holds two samples with one epoch.
  TimeseriesSample* slot = nullptr;
  if (count_ > 0) {
    const std::size_t last = (next_ + ring_.size() - 1) % ring_.size();
    if (ring_[last].epoch == epoch) slot = &ring_[last];
  }
  if (slot == nullptr) {
    slot = &ring_[next_];
    next_ = (next_ + 1) % ring_.size();
    count_ = std::min(count_ + 1, ring_.size());
  }
  slot->epoch = epoch;
  slot->epoch_ms = epoch_ms;
  slot->flush_us = flush_us;
  slot->counters = snapshot.counters;
  slot->gauges = snapshot.gauges;
}

const TimeseriesSample* Timeseries::latest() const noexcept {
  if (count_ == 0) return nullptr;
  return &ring_[(next_ + ring_.size() - 1) % ring_.size()];
}

const TimeseriesSample* Timeseries::find(
    std::uint64_t epoch) const noexcept {
  for (std::size_t i = 0; i < count_; ++i) {
    const std::size_t at = (next_ + ring_.size() - 1 - i) % ring_.size();
    if (ring_[at].epoch == epoch) return &ring_[at];
    if (ring_[at].epoch < epoch) break;  // ring is epoch-ordered
  }
  return nullptr;
}

std::vector<CounterSample> diff_counters(
    const std::vector<CounterSample>& then,
    const std::vector<CounterSample>& now) {
  std::vector<CounterSample> out;
  std::size_t i = 0;
  for (const CounterSample& c : now) {
    while (i < then.size() && then[i].name < c.name) ++i;
    if (i < then.size() && then[i].name == c.name &&
        then[i].value == c.value) {
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::vector<GaugeSample> diff_gauges(const std::vector<GaugeSample>& then,
                                     const std::vector<GaugeSample>& now) {
  std::vector<GaugeSample> out;
  std::size_t i = 0;
  for (const GaugeSample& g : now) {
    while (i < then.size() && then[i].name < g.name) ++i;
    // Bit-pattern compare so NaN gauges don't look "changed" every epoch.
    if (i < then.size() && then[i].name == g.name &&
        std::bit_cast<std::uint64_t>(then[i].value) ==
            std::bit_cast<std::uint64_t>(g.value)) {
      continue;
    }
    out.push_back(g);
  }
  return out;
}

std::optional<MetricsDelta> Timeseries::delta_since(
    std::uint64_t since_epoch) const {
  const TimeseriesSample* now = latest();
  if (now == nullptr) return std::nullopt;
  MetricsDelta delta;
  delta.to_epoch = now->epoch;
  delta.epoch_ms = now->epoch_ms;
  delta.flush_us = now->flush_us;
  const TimeseriesSample* anchor =
      since_epoch != 0 ? find(since_epoch) : nullptr;
  if (anchor == nullptr || anchor->epoch >= now->epoch) {
    delta.baseline = true;
    delta.from_epoch = 0;
    delta.counters = now->counters;
    delta.gauges = now->gauges;
    return delta;
  }
  delta.from_epoch = anchor->epoch;
  delta.counters = diff_counters(anchor->counters, now->counters);
  delta.gauges = diff_gauges(anchor->gauges, now->gauges);
  return delta;
}

}  // namespace surfos::telemetry
