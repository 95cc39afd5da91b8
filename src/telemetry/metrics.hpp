// Control-plane telemetry: process-wide metrics registry.
//
// SurfOS is meant to run as an operator service (paper Section 1: "a service
// from ISPs, a module of Cloud RAN, or a standalone system"), which is
// unusable at fleet scale without metrics. This module provides the one
// process-wide MetricsRegistry every OS layer reports into:
//
//   - Counter:   monotonically increasing event counts (lock-free atomics).
//   - Gauge:     last-written level (sites online, active tasks).
//   - Histogram: fixed-bucket distributions, used for span latencies.
//
// Naming scheme: `layer.component.metric` (e.g. "hal.arq.retransmissions",
// "orch.plan.reused", "util.pool.chunks"). Registration is mutex-guarded and
// cold; hot paths cache the returned reference (the SURFOS_COUNT macro in
// telemetry.hpp does this with a function-local static) and then only pay a
// relaxed atomic add.
//
// Determinism contract: every Counter is *deterministic* by default — its
// final value must be bit-identical for any SURFOS_THREADS value, which
// holds for event counts incremented exactly once per logical event.
// Counters whose value depends on runtime scheduling (thread-pool chunk
// geometry, nested-inline fallbacks) are registered with
// `deterministic = false` and excluded from `counters_fingerprint()`, the
// string the determinism tests compare. Histograms record wall-clock
// timings and are always excluded from determinism checks.
//
// The registry is always on: the `metrics` subscription topic reads its
// counters and gauges. A metrics subscription keeps the Snapshot its last
// event was computed against and is served diff_counters/diff_gauges of that
// anchor and the current epoch's Snapshot, which the daemon takes without
// histograms (the table and JSON exporters are their only readers).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace surfos::telemetry {

// --- Instruments -------------------------------------------------------------

class Counter {
 public:
  explicit Counter(bool deterministic = true) noexcept
      : deterministic_(deterministic) {}

  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  /// True when the count is required to be bit-identical under any
  /// SURFOS_THREADS value (the default; see header comment).
  bool deterministic() const noexcept { return deterministic_; }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
  bool deterministic_;
};

class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. `upper_bounds` are the inclusive upper edges of
/// the finite buckets, strictly increasing; one implicit overflow bucket
/// catches everything above the last bound. Bucket counts, the total count,
/// and the running sum are all lock-free atomics.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void record(double value) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept;
  double mean() const noexcept;
  const std::vector<double>& upper_bounds() const noexcept { return bounds_; }
  /// Finite buckets followed by the overflow bucket (size = bounds + 1).
  std::vector<std::uint64_t> bucket_counts() const;
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default latency buckets in microseconds: 1us .. 10s, roughly 1-2-5 per
/// decade — wide enough for both driver writes and full control cycles.
const std::vector<double>& default_latency_buckets_us();

// --- Snapshots ---------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
  bool deterministic = true;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (overflow last).
};

/// Which instruments a Snapshot copies. Histograms carry their bounds and
/// bucket vectors; a reader of counters and gauges alone skips them.
enum class SnapshotScope { kAll, kCountersAndGauges };

/// A point-in-time copy of the registered instruments, ordered by name
/// (deterministic: the registry stores instruments in sorted maps).
/// `histograms` is empty for a kCountersAndGauges snapshot.
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Two-pointer diff of name-sorted sample vectors: the entries of `now`
/// missing from `then` or with a different value. Gauges compare by bit
/// pattern, so a NaN gauge that stays NaN is unchanged.
std::vector<CounterSample> diff_counters(
    const std::vector<CounterSample>& then,
    const std::vector<CounterSample>& now);
std::vector<GaugeSample> diff_gauges(const std::vector<GaugeSample>& then,
                                     const std::vector<GaugeSample>& now);

// --- Registry ----------------------------------------------------------------

class MetricsRegistry {
 public:
  /// The process-wide registry every layer reports into.
  static MetricsRegistry& instance();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates an instrument. References stay valid for the registry's
  /// lifetime (reset() zeroes values but never removes registrations). The
  /// `deterministic` flag only applies on first registration.
  Counter& counter(const std::string& name, bool deterministic = true);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(
      const std::string& name,
      const std::vector<double>& upper_bounds = default_latency_buckets_us());

  Snapshot snapshot(SnapshotScope scope = SnapshotScope::kAll) const;

  /// "name=value\n" lines for every *deterministic* counter, sorted by name —
  /// the string the SURFOS_THREADS determinism tests compare bit-for-bit.
  std::string counters_fingerprint() const;

  /// Zeroes every instrument, keeping registrations (cached references in
  /// instrumented call sites stay valid).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace surfos::telemetry
