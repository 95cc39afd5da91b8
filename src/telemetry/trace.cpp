#include "telemetry/trace.hpp"

#include <atomic>

#include "core/config.hpp"
#include "telemetry/recorder.hpp"

namespace surfos::telemetry {

namespace {

std::atomic<bool>& trace_flag() noexcept {
  static std::atomic<bool> flag{core::knob(core::Knob::kTrace) != 0};
  return flag;
}

thread_local TraceContext t_ambient{};

std::atomic<std::uint64_t> g_next_span_id{1};

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

bool trace_enabled() noexcept {
  return trace_flag().load(std::memory_order_relaxed);
}

void set_trace_enabled(bool on) noexcept {
  trace_flag().store(on, std::memory_order_relaxed);
}

TraceId make_trace_id(std::uint64_t domain, std::uint64_t seq) noexcept {
  const TraceId id = mix64(domain ^ mix64(seq));
  return id == 0 ? 1 : id;
}

std::uint64_t trace_domain(const char* tag) noexcept {
  // FNV-1a over the tag bytes.
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const char* p = tag; *p != '\0'; ++p) {
    hash ^= static_cast<unsigned char>(*p);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

const TraceContext& current_trace() noexcept { return t_ambient; }

SpanId next_span_id() noexcept {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

// --- TraceScope --------------------------------------------------------------

TraceScope::TraceScope(const TraceContext& context) noexcept
    : previous_(t_ambient) {
  t_ambient = context;
}

TraceScope::~TraceScope() { t_ambient = previous_; }

// --- TraceSpan ---------------------------------------------------------------

TraceSpan::TraceSpan(const char* name) noexcept : TraceSpan(name, 0) {}

TraceSpan::TraceSpan(const char* name, std::uint64_t arg) noexcept
    : name_(name),
      histogram_(MetricsRegistry::instance().histogram(name)),
      start_ns_(Recorder::now_ns()),
      arg_(arg) {
  if (!trace_enabled()) return;
  previous_ = t_ambient;
  context_.trace_id = previous_.trace_id;
  context_.span_id = next_span_id();
  t_ambient = context_;
  recording_ = true;
}

TraceSpan::~TraceSpan() {
  const std::uint64_t end_ns = Recorder::now_ns();
  histogram_.record(static_cast<double>(end_ns - start_ns_) / 1e3);
  if (!recording_) return;
  TraceEvent event;
  event.trace_id = context_.trace_id;
  event.span_id = context_.span_id;
  event.parent_span_id = previous_.span_id;
  event.name = name_;
  event.ts_ns = start_ns_;
  event.dur_ns = end_ns - start_ns_;
  event.arg = arg_;
  event.thread_index = Recorder::thread_index();
  event.kind = TraceEvent::Kind::kSpan;
  Recorder::instance().record(event);
  t_ambient = previous_;
}

double TraceSpan::elapsed_us() const noexcept {
  return static_cast<double>(Recorder::now_ns() - start_ns_) / 1e3;
}

void record_instant(const char* name) noexcept { record_instant(name, 0); }

void record_instant(const char* name, std::uint64_t arg) noexcept {
  if (!trace_enabled()) return;
  TraceEvent event;
  event.trace_id = t_ambient.trace_id;
  event.span_id = next_span_id();
  event.parent_span_id = t_ambient.span_id;
  event.name = name;
  event.ts_ns = Recorder::now_ns();
  event.dur_ns = 0;
  event.arg = arg;
  event.thread_index = Recorder::thread_index();
  event.kind = TraceEvent::Kind::kInstant;
  Recorder::instance().record(event);
}

}  // namespace surfos::telemetry
