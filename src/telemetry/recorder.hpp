// Crash-safe flight recorder: a bounded, lock-striped ring buffer of recent
// trace events, plus exporters (Chrome trace-event JSON and a human table).
//
// The recorder keeps the *last* SURFOS_TRACE_BUFFER events (default 65536,
// ~56 B each) and overwrites the oldest when full — a flight recorder, not a
// log: always cheap to write, always holds the moments before an incident.
// Events are spread over a fixed set of stripes keyed by thread index, so
// concurrent writers almost never contend on the same mutex, and a stripe
// write is one lock + one 56-byte store.
//
// Crash safety: `install_crash_handlers(path)` hooks fatal signals (SIGSEGV,
// SIGABRT, SIGBUS, SIGFPE, SIGILL) and std::terminate to dump the ring as
// Chrome trace JSON before re-raising. The signal path uses only
// async-signal-safe primitives (open/write + hand-rolled integer formatting)
// and reads the stripes without locking — a torn event in a crash dump is an
// acceptable trade for never deadlocking inside a signal handler. Event name
// pointers are string literals (static storage), so they are safe to read
// from any context.
//
// Exported JSON loads directly in chrome://tracing and Perfetto: complete
// ("X") events carry microsecond ts/dur, instant ("i") events mark causal
// points, and metadata ("M") events name the process and per-thread tracks.
// Every event's args carry the trace id / span id / parent span id, so a
// single intent's causal chain can be followed across layers and threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/trace.hpp"

namespace surfos::telemetry {

struct TraceEvent {
  enum class Kind : std::uint8_t {
    kSpan,     ///< Complete span: ts_ns .. ts_ns + dur_ns.
    kInstant,  ///< Point event (dur_ns == 0).
  };

  TraceId trace_id = 0;
  SpanId span_id = 0;
  SpanId parent_span_id = 0;
  const char* name = nullptr;  ///< Static storage duration (literal).
  std::uint64_t ts_ns = 0;     ///< Nanoseconds since the recorder epoch.
  std::uint64_t dur_ns = 0;
  /// Optional numeric payload (0 = none): a site index, queue depth —
  /// whatever the span site wants joined to the event in the export.
  std::uint64_t arg = 0;
  std::uint32_t thread_index = 0;
  Kind kind = Kind::kSpan;
};

class Recorder {
 public:
  /// The process-wide recorder; capacity from SURFOS_TRACE_BUFFER (events,
  /// default 65536, clamped to >= 64).
  static Recorder& instance();

  /// Direct construction for tests sizing their own ring.
  explicit Recorder(std::size_t capacity, std::size_t stripes = 8);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Appends one event (lock: this thread's stripe only). Never allocates.
  void record(const TraceEvent& event) noexcept;

  /// Point-in-time copy of the retained events, sorted by timestamp.
  std::vector<TraceEvent> events() const;

  /// Drops every retained event and zeroes the drop counter.
  void clear() noexcept;

  /// Total event slots (rounded up to a multiple of the stripe count).
  std::size_t capacity() const noexcept { return capacity_; }
  /// Events recorded since the last clear().
  std::uint64_t recorded() const noexcept;
  /// Events overwritten by ring wrap-around since the last clear().
  std::uint64_t dropped() const noexcept;

  /// Writes the Chrome trace JSON of the current ring to `path`.
  /// Returns false when the file cannot be opened.
  bool dump(const std::string& path) const;

  /// Raw dump for crash contexts: iterates stripes WITHOUT locking and
  /// formats with async-signal-safe primitives only. `fd` must be open for
  /// writing. Also the implementation behind the installed signal handlers.
  void dump_unlocked(int fd) const noexcept;

  /// Installs fatal-signal and std::terminate hooks that dump the ring to
  /// `path` ("<path>" is (re)created at crash time) and then re-raise.
  /// Process-wide; the last installed path wins. Call once near startup.
  static void install_crash_handlers(std::string path);

  /// Nanoseconds since the process-wide recorder epoch (first call).
  static std::uint64_t now_ns() noexcept;
  /// Small dense index of the calling thread (assigned on first use) —
  /// the `tid` of exported events.
  static std::uint32_t thread_index() noexcept;

 private:
  struct Stripe {
    mutable std::mutex mutex;
    std::unique_ptr<TraceEvent[]> ring;
    /// Events ever written to this stripe; ring slot = head % slots.
    std::uint64_t head = 0;
  };

  std::size_t capacity_ = 0;      // total, all stripes
  std::size_t stripe_slots_ = 0;  // per stripe
  std::vector<Stripe> stripes_;
};

// --- Pagination --------------------------------------------------------------

/// Cursor-paginated slice of a (ts_ns, span_id)-sorted event vector (the
/// order Recorder::events() returns): up to `limit` events strictly after
/// the cursor position. A zero cursor starts from the beginning. Events
/// evicted by ring wraparound between pages simply never appear — the
/// cursor ordering guarantees no duplicates and no torn events, and the
/// eviction shows up in Recorder::dropped().
std::vector<TraceEvent> events_after(const std::vector<TraceEvent>& sorted,
                                     std::uint64_t cursor_ts_ns,
                                     SpanId cursor_span_id,
                                     std::size_t limit);

// --- Exporters ---------------------------------------------------------------

/// Chrome trace-event JSON (chrome://tracing / Perfetto loadable) of the
/// given events: {"traceEvents":[...],"displayTimeUnit":"ms"} with process/
/// thread metadata and per-event trace/span/parent args.
std::string chrome_trace_json(const std::vector<TraceEvent>& events);
std::string chrome_trace_json();  ///< Of the global recorder's ring.

/// Fixed-width human table ("surfos trace"): timestamp, duration, thread,
/// trace/span ids, and name, one row per event in timestamp order.
std::string trace_table(const std::vector<TraceEvent>& events);
std::string trace_table();  ///< Of the global recorder's ring.

}  // namespace surfos::telemetry
