// RAII scoped timers ("spans") feeding latency histograms.
//
// A Span times a scope and, on destruction, records the elapsed wall-clock
// microseconds into the histogram of the same name in the process-wide
// MetricsRegistry. The control cycle uses one span per phase —
// orch.step.{schedule,optimize,actuate,measure} — and the hot subsystems
// time their own work (sim.channel.precompute, hal.feedback.sweep,
// util.pool.run). A Span knows no parent: span-tree links live in the
// ambient TraceContext that TraceSpan (trace.hpp) installs.
//
// When telemetry is disabled (SURFOS_TELEMETRY=0), constructing a Span is
// a single branch: no clock read, no registry lookup, nothing recorded, and
// elapsed_us() returns 0 — timings never leak into supposedly-identical
// disabled-mode reports.
#pragma once

#include <chrono>

#include "telemetry/metrics.hpp"

namespace surfos::telemetry {

class Span {
 public:
  /// `name` must be a string with static storage duration (literals): spans
  /// are hot-path objects and never copy it.
  explicit Span(const char* name) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  const char* name() const noexcept { return name_; }
  bool active() const noexcept { return active_; }

  /// Microseconds since construction (0 when telemetry is disabled).
  double elapsed_us() const noexcept;

 private:
  const char* name_;
  Histogram* histogram_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
  bool active_ = false;
};

}  // namespace surfos::telemetry
