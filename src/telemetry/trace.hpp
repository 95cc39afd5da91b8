// Causal trace contexts: which intent paid which cost.
//
// The metrics subsystem (metrics.hpp) reports *aggregates*; this module ties
// individual events back to the user intent that caused them. A TraceContext
// is minted when the service broker admits an intent (or, failing that, when
// the orchestrator admits a task) and carries two ids:
//
//   - trace_id: one per intent, shared by every span the intent causes as it
//     fans out through broker translation, orchestrator scheduling, optimizer
//     evaluation, HAL config writes, and sim channel precompute.
//   - span_id:  the enclosing traced span on this thread — the parent of any
//     span opened beneath it.
//
// Determinism contract: trace ids are derived from stable sequence numbers
// (TaskId, the broker's per-intent counter) via a splitmix64-style hash —
// never wall-clock time or randomness — so the same run produces the same
// ids regardless of thread count or whether tracing is switched on. Span ids
// are process-unique (a relaxed atomic counter) and only exist while tracing
// is enabled; their allocation order is a scheduling detail.
//
// The ambient context is a thread-local value installed with a TraceScope
// (RAII). Installing a scope is unconditional and costs a 16-byte TLS swap —
// ids must not depend on the SURFOS_TRACE switch — while *recording* trace
// events is gated on `trace_enabled()` (the SURFOS_TRACE knob, 0 by default):
// with tracing off a SURFOS_TRACE_SPAN site pays one predicted branch on top
// of its histogram timing.
#pragma once

#include <cstdint>

#include "telemetry/metrics.hpp"

namespace surfos::telemetry {

using TraceId = std::uint64_t;
using SpanId = std::uint64_t;

/// Process-wide tracing switch, initialized from the SURFOS_TRACE knob
/// (construction reload; 0 = off, the default, any other value = on). Off
/// by default because tracing buys a bounded ring buffer and per-span
/// recorder writes.
bool trace_enabled() noexcept;
/// Overrides the switch at runtime (tests / benches / examples).
void set_trace_enabled(bool on) noexcept;

// --- Context -----------------------------------------------------------------

struct TraceContext {
  TraceId trace_id = 0;  ///< 0 = not part of any traced intent.
  SpanId span_id = 0;    ///< Enclosing traced span (0 = trace root).

  constexpr bool valid() const noexcept { return trace_id != 0; }

  friend constexpr bool operator==(const TraceContext& a,
                                   const TraceContext& b) noexcept {
    return a.trace_id == b.trace_id && a.span_id == b.span_id;
  }
};

/// Deterministic trace id from a domain tag and a sequence number
/// (splitmix64 finalizer; never returns 0, so the result always `valid()`).
TraceId make_trace_id(std::uint64_t domain, std::uint64_t seq) noexcept;

/// FNV-1a hash of a domain tag string ("broker.intent", "orch.task") — the
/// `domain` argument of make_trace_id, separating id spaces per minting site.
std::uint64_t trace_domain(const char* tag) noexcept;

/// This thread's ambient context ({0, 0} outside any scope).
const TraceContext& current_trace() noexcept;

/// Next process-unique span id (>= 1). Only traced spans consume ids.
SpanId next_span_id() noexcept;

/// RAII: installs `context` as this thread's ambient trace context and
/// restores the previous one on destruction. Installation is unconditional
/// (see header comment): task trace ids must be identical whether or not
/// SURFOS_TRACE is on.
class TraceScope {
 public:
  explicit TraceScope(const TraceContext& context) noexcept;
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext previous_;
};

// --- Traced spans ------------------------------------------------------------

/// The one scope timer. It records the elapsed wall-clock microseconds into
/// the same-named latency histogram of the process-wide MetricsRegistry
/// (one registry lookup per span), and — while tracing is enabled — also
/// records a complete-span event into the flight recorder, parented to the
/// ambient context and installing itself as the ambient span for the
/// duration.
///
/// `name` must have static storage duration (string literals): both the
/// histogram registry and the recorder keep the pointer.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) noexcept;
  /// As above, plus a numeric payload (site index, queue depth) exported as
  /// the event's `arg`. 0 means "no payload".
  TraceSpan(const char* name, std::uint64_t arg) noexcept;
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Microseconds since construction (the StepTrace phase timings).
  double elapsed_us() const noexcept;
  /// This span's context while recording ({0,0} when tracing is off).
  const TraceContext& context() const noexcept { return context_; }

 private:
  const char* name_;
  Histogram& histogram_;
  TraceContext context_{};   // this span (trace id + own span id)
  TraceContext previous_{};  // ambient to restore
  std::uint64_t start_ns_;
  std::uint64_t arg_ = 0;
  bool recording_ = false;
};

/// Records an instant event (zero duration) under the ambient context while
/// tracing is enabled; a single predicted branch otherwise. Used for
/// point-in-time causal markers (scheduler assignment, ARQ send/retransmit).
void record_instant(const char* name) noexcept;
/// As above with a numeric `arg` payload (0 = none).
void record_instant(const char* name, std::uint64_t arg) noexcept;

}  // namespace surfos::telemetry
