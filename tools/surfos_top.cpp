// surfos-top: live terminal dashboard for a running surfosd.
//
//   surfos-top [--socket PATH] [--interval EPOCHS] [--frames N]
//
// Subscribes to all three streaming topics on one connection — metrics
// (delta-encoded counters/gauges), traces (new flight-recorder events), and
// health (per-site SLO watchdog verdicts) — and redraws an ANSI dashboard
// every metrics event: fleet counters, a sparkline of recent epoch wall
// times, the per-site health table with the SLO state column, and the
// per-epoch trace event rate.
//
// --frames N exits after N redraws (0 = run until the daemon goes away),
// which is how CI drives the dashboard without a TTY. The event stream is
// authoritative: surfos-top never polls.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/messages.hpp"
#include "proto/serialize.hpp"

namespace {

namespace proto = surfos::proto;
using namespace surfos::daemon;

struct Dashboard {
  std::uint64_t epoch = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::deque<double> epoch_ms;  ///< Sparkline history, newest last.
  double flush_us = 0.0;
  std::map<std::string, SiteHealth> sites;  ///< Latest verdict per site.
  std::uint64_t trace_events_last = 0;  ///< Trace records in the last event.
  std::uint64_t dropped = 0;            ///< Worst drop counter seen.
  std::uint64_t frames = 0;             ///< Redraws so far.
};

constexpr std::size_t kSparkWidth = 48;

/// Renders `values` (newest last) as a ▁▂▃▄▅▆▇█ sparkline scaled to the
/// window's max.
std::string sparkline(const std::deque<double>& values) {
  static const char* kBars[] = {"▁", "▂", "▃", "▄",
                                "▅", "▆", "▇", "█"};
  double max = 0.0;
  for (const double v : values) max = v > max ? v : max;
  std::string out;
  for (const double v : values) {
    const double unit = max > 0.0 ? v / max : 0.0;
    int idx = static_cast<int>(unit * 7.999);
    if (idx < 0) idx = 0;
    if (idx > 7) idx = 7;
    out += kBars[idx];
  }
  return out;
}

void redraw(const Dashboard& d) {
  // Home + clear-to-end keeps the redraw flicker-free on real terminals and
  // harmless when stdout is a pipe.
  std::printf("\x1b[H\x1b[J");
  std::printf("surfos-top · epoch %llu · frame %llu\n",
              static_cast<unsigned long long>(d.epoch),
              static_cast<unsigned long long>(d.frames));
  const double last_ms = d.epoch_ms.empty() ? 0.0 : d.epoch_ms.back();
  std::printf("epoch %.2f ms  flush %.1f us  traces/epoch %llu  dropped %llu\n",
              last_ms, d.flush_us,
              static_cast<unsigned long long>(d.trace_events_last),
              static_cast<unsigned long long>(d.dropped));
  std::printf("latency %s\n", sparkline(d.epoch_ms).c_str());

  // Dedicated precompute-store line: shared-artifact traffic is the main
  // lever behind cold-start and endpoint-churn latency (PR 10).
  const auto count_of = [&d](const char* name) -> unsigned long long {
    const auto it = d.counters.find(name);
    return it == d.counters.end()
               ? 0ull
               : static_cast<unsigned long long>(it->second);
  };
  const auto bytes_it = d.gauges.find("sim.precompute.bytes");
  std::printf(
      "precompute hits %llu  misses %llu  evictions %llu  resident %.1f MiB\n",
      count_of("sim.precompute.hits"), count_of("sim.precompute.misses"),
      count_of("sim.precompute.evictions"),
      (bytes_it == d.gauges.end() ? 0.0 : bytes_it->second) /
          (1024.0 * 1024.0));

  std::printf("\nsites (%zu):\n", d.sites.size());
  std::printf("  %-12s %-10s %-8s %s\n", "SITE", "SLO", "EPOCHS", "REASON");
  for (const auto& [site, row] : d.sites) {
    std::printf("  %-12s %-10s %-8llu %s\n", site.c_str(),
                slo_state_name(row.state),
                static_cast<unsigned long long>(row.epochs_in_state),
                row.reason.c_str());
  }
  if (d.sites.empty()) std::printf("  (no health events yet)\n");

  std::printf("\ncounters (%zu):\n", d.counters.size());
  std::size_t shown = 0;
  for (const auto& [name, value] : d.counters) {
    if (++shown > 16) {
      std::printf("  … %zu more\n", d.counters.size() - 16);
      break;
    }
    std::printf("  %-40s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : d.gauges) {
    std::printf("  %-40s %g\n", name.c_str(), value);
  }
  std::fflush(stdout);
}

/// Applies one kEvent frame to the dashboard. Returns true when the frame
/// was a metrics event (the redraw trigger — one per epoch interval).
bool apply_event(const proto::WireFrame& frame, Dashboard& d) {
  Event event;
  if (!from_wire(frame.payload, event).ok()) return false;
  for (SiteHealth& site : event.health) {
    if (!site.site_id.empty()) d.sites[site.site_id] = std::move(site);
  }
  if (event.dropped > d.dropped) d.dropped = event.dropped;
  if (event.epoch > d.epoch) d.epoch = event.epoch;
  if (event.topic == SubTopic::kTraces) {
    d.trace_events_last = event.traces.size();
  }
  if (event.topic != SubTopic::kMetrics) return false;

  if (event.baseline) {
    // A baseline is a full snapshot (sent after a drop): replace, don't
    // merge, so counters that disappeared don't linger.
    d.counters.clear();
    d.gauges.clear();
  }
  for (const auto& c : event.counters) d.counters[c.name] = c.value;
  for (const auto& g : event.gauges) d.gauges[g.name] = g.value;
  d.epoch_ms.push_back(event.epoch_ms);
  while (d.epoch_ms.size() > kSparkWidth) d.epoch_ms.pop_front();
  d.flush_us = event.flush_us;
  return true;
}

int subscribe(Client& client, SubTopic topic, std::uint32_t interval) {
  SubscriptionSpec spec;
  spec.topic = topic;
  spec.interval = interval;
  const auto ack = client.request<SubscribeAck>(proto::MsgType::kSubscribe,
                                                proto::to_wire(spec));
  if (!ack.ok()) {
    std::fprintf(stderr, "surfos-top: subscribe %s: %s\n",
                 sub_topic_name(topic), ack.error().message.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/surfosd.sock";
  if (const char* env = std::getenv("SURFOS_SOCKET")) socket_path = env;
  long interval = 1;
  long frames = 0;  // 0 = run until the stream ends
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--socket") == 0 && has_value) {
      socket_path = argv[++i];
    } else if (std::strcmp(argv[i], "--interval") == 0 && has_value) {
      interval = std::atol(argv[++i]);
      if (interval < 1) interval = 1;
    } else if (std::strcmp(argv[i], "--frames") == 0 && has_value) {
      frames = std::atol(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: surfos-top [--socket PATH] [--interval EPOCHS] "
                   "[--frames N]\n");
      return 2;
    }
  }

  auto connected = Client::connect(socket_path);
  if (!connected.ok()) {
    std::fprintf(stderr, "surfos-top: %s\n", connected.error().message.c_str());
    return 1;
  }
  Client client = std::move(connected.value());

  for (const SubTopic topic :
       {SubTopic::kMetrics, SubTopic::kTraces, SubTopic::kHealth}) {
    if (const int rc =
            subscribe(client, topic, static_cast<std::uint32_t>(interval));
        rc != 0) {
      return rc;
    }
  }

  Dashboard dash;
  while (frames == 0 || dash.frames < static_cast<std::uint64_t>(frames)) {
    auto frame = client.recv();
    if (!frame.ok()) {
      std::fprintf(stderr, "surfos-top: %s\n", frame.error().message.c_str());
      return dash.frames > 0 ? 0 : 1;
    }
    if (frame.value().type != proto::MsgType::kEvent) continue;
    if (apply_event(frame.value(), dash)) {
      ++dash.frames;
      redraw(dash);
    }
  }
  return 0;
}
