#include "telemetry/metrics.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace surfos::telemetry {

namespace {

/// fetch_add for atomic<double> via CAS (portable across libstdc++ versions).
void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "Histogram: bounds must be strictly increasing");
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::record(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // overflow when == size
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
}

double Histogram::sum() const noexcept {
  return sum_.load(std::memory_order_relaxed);
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

const std::vector<double>& default_latency_buckets_us() {
  static const std::vector<double> buckets = {
      1.0,    2.0,    5.0,    10.0,   20.0,   50.0,   100.0,  200.0,
      500.0,  1e3,    2e3,    5e3,    1e4,    2e4,    5e4,    1e5,
      2e5,    5e5,    1e6,    2e6,    5e6,    1e7};
  return buckets;
}

// --- Registry ----------------------------------------------------------------

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name, bool deterministic) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>(deterministic))
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<double>& upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<Histogram>(upper_bounds))
             .first;
  }
  return *it->second;
}

Snapshot MetricsRegistry::snapshot(SnapshotScope scope) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.push_back({name, counter->value(), counter->deterministic()});
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.push_back({name, gauge->value()});
  }
  if (scope == SnapshotScope::kCountersAndGauges) return out;
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.histograms.push_back({name, histogram->count(), histogram->sum(),
                              histogram->upper_bounds(),
                              histogram->bucket_counts()});
  }
  return out;
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
    if (i < then.size() && then[i].name == g.name &&
        std::bit_cast<std::uint64_t>(then[i].value) ==
            std::bit_cast<std::uint64_t>(g.value)) {
      continue;
    }
    out.push_back(g);
  }
  return out;
}

std::string MetricsRegistry::counters_fingerprint() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream oss;
  for (const auto& [name, counter] : counters_) {
    if (!counter->deterministic()) continue;
    oss << name << '=' << counter->value() << '\n';
  }
  return oss.str();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

}  // namespace surfos::telemetry
