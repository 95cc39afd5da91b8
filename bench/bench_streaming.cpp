// Streaming observability plane cost model: how fast the subscription
// registry can encode and enqueue kEvent frames (events/s and per-event
// microseconds), and how publish throughput holds up against a stalled
// subscriber whose bounded outbox is dropping oldest-first the whole time.
// What publication costs inside a whole control epoch is epochbench's
// `observe` workload.
//
// Emits BENCH_streaming.json:
//   ./bench_streaming [epochs] [subscribers] [output.json]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_meta.hpp"
#include "core/config.hpp"
#include "daemon/subscription.hpp"
#include "telemetry/metrics.hpp"
#include "util/simd.hpp"

using namespace surfos;

namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A registry-shaped snapshot: `total` sorted counters of which the first
/// `churn` change every epoch (the delta encoder's working set).
telemetry::Snapshot make_snapshot(std::size_t total, std::size_t churn,
                                  std::uint64_t epoch) {
  telemetry::Snapshot snap;
  snap.counters.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "bench.counter.%03zu", i);
    const std::uint64_t value = i < churn ? epoch * 10 + i : 42;
    snap.counters.push_back({name, value, true});
  }
  snap.gauges.push_back({"bench.gauge", static_cast<double>(epoch)});
  return snap;
}

/// One epoch's publication context around a fresh snapshot, as the
/// daemon's run_epoch builds it.
daemon::SubscriptionRegistry::EpochContext epoch_context(
    std::uint64_t epoch) {
  daemon::SubscriptionRegistry::EpochContext ctx;
  ctx.epoch = epoch;
  ctx.metrics =
      std::make_shared<const telemetry::Snapshot>(make_snapshot(64, 8, epoch));
  ctx.epoch_ms = 1.0;
  ctx.flush_us = 50.0;
  return ctx;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t epochs =
      argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 2000;
  const std::size_t subscribers =
      argc > 2 ? static_cast<std::size_t>(std::atol(argv[2])) : 8;
  const std::string output = argc > 3 ? argv[3] : "BENCH_streaming.json";

  // --- 1. Registry publish path: events/s through encode + enqueue ----------
  // `subscribers` metrics subscriptions on fake fds, drained every epoch (a
  // healthy fleet of dashboards). 64 counters, 8 changing per epoch.
  daemon::SubscriptionRegistry registry;
  for (std::size_t s = 0; s < subscribers; ++s) {
    const int fd = 1000 + static_cast<int>(s);
    registry.add_connection(fd);
    daemon::SubscriptionSpec spec;
    spec.topic = daemon::SubTopic::kMetrics;
    spec.interval = 1;
    if (!registry.subscribe(fd, spec).ok()) {
      std::fprintf(stderr, "bench_streaming: subscribe failed\n");
      return 1;
    }
  }
  const double pub_t0 = now_us();
  for (std::uint64_t epoch = 1; epoch <= epochs; ++epoch) {
    registry.publish(epoch_context(epoch));
    for (std::size_t s = 0; s < subscribers; ++s) {
      (void)registry.take_output(1000 + static_cast<int>(s));
    }
  }
  const double pub_elapsed_us = now_us() - pub_t0;
  const auto pub_stats = registry.stats();
  const double events_per_sec =
      pub_stats.published * 1e6 / (pub_elapsed_us > 0 ? pub_elapsed_us : 1);
  const double per_event_us =
      pub_elapsed_us / static_cast<double>(pub_stats.published);

  // --- 2. Slow subscriber: drop-oldest under a never-draining outbox --------
  // Tight cap so the steady state is "every publish evicts": the number we
  // want is publish throughput *while dropping*, proving a stalled client
  // costs O(1) per epoch, not O(backlog).
  core::install_config(core::Config());
  (void)core::set_config_knob("SURFOS_SUB_OUTBOX", 8);
  daemon::SubscriptionRegistry slow;
  slow.add_connection(3000);
  daemon::SubscriptionSpec spec;
  spec.topic = daemon::SubTopic::kMetrics;
  spec.interval = 1;
  (void)slow.subscribe(3000, spec);
  const double slow_t0 = now_us();
  for (std::uint64_t epoch = 1; epoch <= epochs; ++epoch) {
    slow.publish(epoch_context(epoch));  // never drained: pinned at the cap
  }
  const double slow_elapsed_us = now_us() - slow_t0;
  const auto slow_stats = slow.stats();
  const double slow_pub_per_sec =
      slow_stats.published * 1e6 / (slow_elapsed_us > 0 ? slow_elapsed_us : 1);
  core::clear_config();

  std::ofstream os(output);
  os << "{\n";
  bench::write_meta(os);
  os << "  \"benchmark\": \"streaming_observability\",\n";
  os << "  \"host\": \"" << std::thread::hardware_concurrency() << " cores, "
     << util::simd::backend_name(util::simd::active_backend()) << "\",\n";
  os << "  \"epochs\": " << epochs << ",\n";
  os << "  \"subscribers\": " << subscribers << ",\n";
  os << "  \"publish_events_total\": " << pub_stats.published << ",\n";
  os << "  \"publish_events_per_sec\": " << events_per_sec << ",\n";
  os << "  \"publish_per_event_us\": " << per_event_us << ",\n";
  os << "  \"slow_publishes_per_sec\": " << slow_pub_per_sec << ",\n";
  os << "  \"slow_published\": " << slow_stats.published << ",\n";
  os << "  \"slow_dropped\": " << slow_stats.dropped << "\n";
  os << "}\n";
  os.close();

  std::printf("publish path: %.0f events/s (%.2f us/event, %zu subs)\n",
              events_per_sec, per_event_us, subscribers);
  std::printf("stalled subscriber: %.0f publishes/s, %llu dropped\n",
              slow_pub_per_sec,
              static_cast<unsigned long long>(slow_stats.dropped));
  std::printf("wrote %s\n", output.c_str());
  return 0;
}
