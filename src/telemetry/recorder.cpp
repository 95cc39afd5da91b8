#include "telemetry/recorder.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <set>
#include <sstream>

#include "telemetry/export.hpp"
#include "core/config.hpp"

namespace surfos::telemetry {

namespace {

// --- Async-signal-safe formatting helpers ------------------------------------
// The crash path may run inside a signal handler, where snprintf/malloc are
// off-limits; everything below bottoms out in byte stores and write(2).

void write_all(int fd, const char* data, std::size_t len) noexcept {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n <= 0) return;  // best effort: a crash dump never retries forever
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

void write_str(int fd, const char* s) noexcept {
  std::size_t len = 0;
  while (s[len] != '\0') ++len;
  write_all(fd, s, len);
}

void write_u64(int fd, std::uint64_t value) noexcept {
  char buf[20];
  std::size_t i = sizeof(buf);
  do {
    buf[--i] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  write_all(fd, buf + i, sizeof(buf) - i);
}

/// Microseconds with 3 decimals (ns precision), e.g. 1234 ns -> "1.234".
void write_us(int fd, std::uint64_t ns) noexcept {
  write_u64(fd, ns / 1000);
  const std::uint64_t frac = ns % 1000;
  char buf[4] = {'.', static_cast<char>('0' + frac / 100),
                 static_cast<char>('0' + (frac / 10) % 10),
                 static_cast<char>('0' + frac % 10)};
  write_all(fd, buf, sizeof(buf));
}

void write_hex64(int fd, std::uint64_t value) noexcept {
  char buf[18] = {'0', 'x'};
  for (int i = 0; i < 16; ++i) {
    const unsigned nibble =
        static_cast<unsigned>(value >> (60 - 4 * i)) & 0xFu;
    buf[2 + i] = static_cast<char>(nibble < 10 ? '0' + nibble
                                               : 'a' + (nibble - 10));
  }
  write_all(fd, buf, sizeof(buf));
}

/// Span/instant names are static literals under our control (identifier-ish),
/// but a torn crash-time read must never emit a broken JSON string: drop
/// anything that would need escaping.
void write_json_name(int fd, const char* name) noexcept {
  write_all(fd, "\"", 1);
  for (const char* p = name; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (c >= 0x20 && c != '"' && c != '\\') write_all(fd, p, 1);
  }
  write_all(fd, "\"", 1);
}

// --- Crash-hook state --------------------------------------------------------

constexpr std::size_t kCrashPathMax = 512;
char g_crash_path[kCrashPathMax] = {0};
std::atomic<bool> g_crash_dumped{false};
std::terminate_handler g_previous_terminate = nullptr;

void crash_dump() noexcept {
  // First crasher wins; a second fault (or a second thread crashing) must
  // not re-enter the dump.
  if (g_crash_dumped.exchange(true)) return;
  if (g_crash_path[0] == '\0') return;
  const int fd = ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  Recorder::instance().dump_unlocked(fd);
  ::close(fd);
}

extern "C" void surfos_trace_signal_handler(int sig) {
  crash_dump();
  std::signal(sig, SIG_DFL);
  ::raise(sig);
}

[[noreturn]] void surfos_trace_terminate_handler() {
  crash_dump();
  if (g_previous_terminate != nullptr) g_previous_terminate();
  std::abort();
}

}  // namespace

// --- Recorder ----------------------------------------------------------------

Recorder& Recorder::instance() {
  static Recorder recorder(core::knob(core::Knob::kTraceBuffer));
  return recorder;
}

Recorder::Recorder(std::size_t capacity, std::size_t stripes)
    : stripes_(std::max<std::size_t>(1, stripes)) {
  stripe_slots_ = (std::max<std::size_t>(1, capacity) + stripes_.size() - 1) /
                  stripes_.size();
  capacity_ = stripe_slots_ * stripes_.size();
  for (Stripe& stripe : stripes_) {
    stripe.ring = std::make_unique<TraceEvent[]>(stripe_slots_);
  }
  now_ns();  // pin the epoch before any crash can need it
}

void Recorder::record(const TraceEvent& event) noexcept {
  Stripe& stripe = stripes_[event.thread_index % stripes_.size()];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  stripe.ring[stripe.head % stripe_slots_] = event;
  ++stripe.head;
}

std::vector<TraceEvent> Recorder::events() const {
  std::vector<TraceEvent> out;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    const std::uint64_t n =
        std::min<std::uint64_t>(stripe.head, stripe_slots_);
    for (std::uint64_t i = stripe.head - n; i < stripe.head; ++i) {
      out.push_back(stripe.ring[i % stripe_slots_]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns
                                        : a.span_id < b.span_id;
            });
  return out;
}

void Recorder::clear() noexcept {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.head = 0;
  }
}

std::uint64_t Recorder::recorded() const noexcept {
  std::uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    total += stripe.head;
  }
  return total;
}

std::uint64_t Recorder::dropped() const noexcept {
  std::uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    if (stripe.head > stripe_slots_) total += stripe.head - stripe_slots_;
  }
  return total;
}

std::vector<TraceEvent> events_after(const std::vector<TraceEvent>& sorted,
                                     std::uint64_t cursor_ts_ns,
                                     SpanId cursor_span_id,
                                     std::size_t limit) {
  // Binary search for the first event strictly after (ts, span) in the
  // same (ts_ns, span_id) order events() sorts by.
  const auto begin = std::upper_bound(
      sorted.begin(), sorted.end(),
      std::pair<std::uint64_t, SpanId>(cursor_ts_ns, cursor_span_id),
      [](const std::pair<std::uint64_t, SpanId>& cursor,
         const TraceEvent& e) {
        return cursor.first != e.ts_ns ? cursor.first < e.ts_ns
                                       : cursor.second < e.span_id;
      });
  const std::size_t available =
      static_cast<std::size_t>(sorted.end() - begin);
  return {begin, begin + static_cast<std::ptrdiff_t>(
                             std::min(limit, available))};
}

bool Recorder::dump(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << chrome_trace_json(events());
  return static_cast<bool>(out);
}

void Recorder::dump_unlocked(int fd) const noexcept {
  write_str(fd, "{\"traceEvents\":[");
  bool first = true;
  for (const Stripe& stripe : stripes_) {
    // Deliberately lock-free: the faulting thread may hold a stripe mutex.
    const std::uint64_t head = stripe.head;
    const std::uint64_t n = std::min<std::uint64_t>(head, stripe_slots_);
    for (std::uint64_t i = head - n; i < head; ++i) {
      const TraceEvent& e = stripe.ring[i % stripe_slots_];
      if (e.name == nullptr) continue;  // torn slot
      if (!first) write_str(fd, ",");
      first = false;
      write_str(fd, "\n{\"name\":");
      write_json_name(fd, e.name);
      write_str(fd, ",\"cat\":\"surfos\",\"ph\":");
      write_str(fd, e.kind == TraceEvent::Kind::kInstant ? "\"i\",\"s\":\"t\""
                                                         : "\"X\"");
      write_str(fd, ",\"pid\":1,\"tid\":");
      write_u64(fd, e.thread_index);
      write_str(fd, ",\"ts\":");
      write_us(fd, e.ts_ns);
      if (e.kind != TraceEvent::Kind::kInstant) {
        write_str(fd, ",\"dur\":");
        write_us(fd, e.dur_ns);
      }
      write_str(fd, ",\"args\":{\"trace\":\"");
      write_hex64(fd, e.trace_id);
      write_str(fd, "\",\"span\":\"");
      write_hex64(fd, e.span_id);
      write_str(fd, "\",\"parent\":\"");
      write_hex64(fd, e.parent_span_id);
      write_str(fd, "\"");
      if (e.arg != 0) {
        write_str(fd, ",\"arg\":");
        write_u64(fd, e.arg);
      }
      write_str(fd, "}}");
    }
  }
  write_str(fd, "\n],\"displayTimeUnit\":\"ms\"}\n");
}

void Recorder::install_crash_handlers(std::string path) {
  instance();  // the handler must never be the first thing to construct it
  const std::size_t n = std::min(path.size(), kCrashPathMax - 1);
  std::copy_n(path.data(), n, g_crash_path);
  g_crash_path[n] = '\0';
  g_crash_dumped.store(false);
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    std::signal(sig, surfos_trace_signal_handler);
  }
  static bool terminate_hooked = false;
  if (!terminate_hooked) {
    g_previous_terminate = std::set_terminate(surfos_trace_terminate_handler);
    terminate_hooked = true;
  }
}

std::uint64_t Recorder::now_ns() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

std::uint32_t Recorder::thread_index() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

// --- Exporters ---------------------------------------------------------------

namespace {

std::string hex_id(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  std::ostringstream oss;
  oss << "{\"traceEvents\":[\n";
  oss << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"surfos\"}}";
  std::set<std::uint32_t> threads;
  for (const TraceEvent& e : events) threads.insert(e.thread_index);
  for (const std::uint32_t t : threads) {
    oss << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << t
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"thread-" << t
        << "\"}}";
  }
  char num[32];
  for (const TraceEvent& e : events) {
    oss << ",\n{\"name\":";
    append_json_string(oss, e.name == nullptr ? "?" : e.name);
    oss << ",\"cat\":\"surfos\",\"ph\":"
        << (e.kind == TraceEvent::Kind::kInstant ? "\"i\",\"s\":\"t\""
                                                 : "\"X\"")
        << ",\"pid\":1,\"tid\":" << e.thread_index;
    std::snprintf(num, sizeof(num), "%llu.%03llu",
                  static_cast<unsigned long long>(e.ts_ns / 1000),
                  static_cast<unsigned long long>(e.ts_ns % 1000));
    oss << ",\"ts\":" << num;
    if (e.kind != TraceEvent::Kind::kInstant) {
      std::snprintf(num, sizeof(num), "%llu.%03llu",
                    static_cast<unsigned long long>(e.dur_ns / 1000),
                    static_cast<unsigned long long>(e.dur_ns % 1000));
      oss << ",\"dur\":" << num;
    }
    oss << ",\"args\":{\"trace\":\"" << hex_id(e.trace_id) << "\",\"span\":\""
        << hex_id(e.span_id) << "\",\"parent\":\"" << hex_id(e.parent_span_id)
        << "\"";
    if (e.arg != 0) oss << ",\"arg\":" << e.arg;
    oss << "}}";
  }
  oss << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return oss.str();
}

std::string chrome_trace_json() {
  return chrome_trace_json(Recorder::instance().events());
}

std::string trace_table(const std::vector<TraceEvent>& events) {
  std::ostringstream oss;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %12s %12s %4s %-18s %-34s %s\n",
                "ts_us", "dur_us", "tid", "trace", "span<-parent", "name");
  oss << buf;
  for (const TraceEvent& e : events) {
    char link[40];
    std::snprintf(link, sizeof(link), "%08llx<-%08llx",
                  static_cast<unsigned long long>(e.span_id & 0xFFFFFFFFull),
                  static_cast<unsigned long long>(e.parent_span_id &
                                                  0xFFFFFFFFull));
    std::snprintf(buf, sizeof(buf), "  %12.3f %12.3f %4u %-18s %-34s %s%s\n",
                  static_cast<double>(e.ts_ns) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3, e.thread_index,
                  hex_id(e.trace_id).c_str(), link,
                  e.name == nullptr ? "?" : e.name,
                  e.kind == TraceEvent::Kind::kInstant ? " [i]" : "");
    oss << buf;
  }
  return oss.str();
}

std::string trace_table() {
  const Recorder& recorder = Recorder::instance();
  std::ostringstream oss;
  oss << "trace events (" << recorder.events().size() << " retained, "
      << recorder.dropped() << " overwritten, capacity "
      << recorder.capacity() << ")\n";
  oss << trace_table(recorder.events());
  return oss.str();
}

}  // namespace surfos::telemetry
