// Umbrella header + instrumentation macros for the telemetry subsystem.
//
// Call sites use the macros, never the registry directly: each counter and
// gauge expansion caches its instrument in a function-local static
// (registration runs once, under the registry mutex) and then pays one
// relaxed atomic per hit.
//
//   SURFOS_COUNT("orch.tasks.admitted");          // +1
//   SURFOS_COUNT_N("sim.rays.paths", paths);      // +n
//   SURFOS_COUNT_SCHED("util.pool.chunks", n);    // scheduling-dependent:
//                                                 // excluded from determinism
//   SURFOS_GAUGE_SET("core.fleet.sites", 3.0);
//   SURFOS_TRACE_SPAN("orch.step.optimize");      // RAII scope timer:
//                                                 // same-named histogram +
//                                                 // flight-recorder event w/
//                                                 // ambient trace/parent ids
//   SURFOS_TRACE_INSTANT("hal.arq.retransmit");   // point causal marker
#pragma once

#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/trace.hpp"

#define SURFOS_CONCAT_IMPL(a, b) a##b
#define SURFOS_CONCAT(a, b) SURFOS_CONCAT_IMPL(a, b)

#define SURFOS_COUNT_IMPL(name, delta, deterministic)                        \
  do {                                                                       \
    static ::surfos::telemetry::Counter& surfos_telemetry_counter =          \
        ::surfos::telemetry::MetricsRegistry::instance().counter(            \
            (name), (deterministic));                                        \
    surfos_telemetry_counter.add(static_cast<std::uint64_t>(delta));         \
  } while (0)

/// Deterministic event count: +1 per logical event, identical under any
/// SURFOS_THREADS value.
#define SURFOS_COUNT(name) SURFOS_COUNT_IMPL(name, 1, true)
#define SURFOS_COUNT_N(name, delta) SURFOS_COUNT_IMPL(name, delta, true)

/// Scheduling-dependent count (thread-pool chunk geometry, inline
/// fallbacks): real telemetry, but excluded from determinism fingerprints.
#define SURFOS_COUNT_SCHED(name, delta) SURFOS_COUNT_IMPL(name, delta, false)

#define SURFOS_GAUGE_SET(name, value)                                        \
  do {                                                                       \
    static ::surfos::telemetry::Gauge& surfos_telemetry_gauge =              \
        ::surfos::telemetry::MetricsRegistry::instance().gauge(name);        \
    surfos_telemetry_gauge.set(static_cast<double>(value));                  \
  } while (0)

/// RAII scope timer: records the elapsed microseconds into the same-named
/// latency histogram plus — while SURFOS_TRACE is on — a flight-recorder
/// span event parented to the ambient TraceContext.
#define SURFOS_TRACE_SPAN(name)                                              \
  ::surfos::telemetry::TraceSpan SURFOS_CONCAT(                              \
      surfos_telemetry_trace_span_, __LINE__)(name)

/// Point-in-time causal marker under the ambient TraceContext (one predicted
/// branch while tracing is off).
#define SURFOS_TRACE_INSTANT(name) ::surfos::telemetry::record_instant(name)
