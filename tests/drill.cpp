#include "drill.hpp"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "broker/demand.hpp"
#include "core/config.hpp"
#include "daemon/daemon.hpp"
#include "proto/serialize.hpp"
#include "proto/wire.hpp"
#include "sim/precompute_store.hpp"
#include "telemetry/metrics.hpp"
#include "util/digest.hpp"
#include "util/thread_pool.hpp"

namespace surfos::drill {

namespace {

constexpr std::size_t kSites = 8;
constexpr std::uint64_t kEpochs = 40;
/// The snapshot is written after this epoch; the restored daemon replays
/// the epochs after it.
constexpr std::uint64_t kCutEpoch = 20;
/// The fake connection every subscription shares (take_output never
/// touches it).
constexpr int kFd = 7;

constexpr broker::AppClass kClasses[] = {
    broker::AppClass::kVrGaming,       broker::AppClass::kVideoStreaming,
    broker::AppClass::kVideoConference, broker::AppClass::kFileTransfer,
    broker::AppClass::kSmartHome,      broker::AppClass::kSensitiveData,
    broker::AppClass::kWirelessCharging,
};
constexpr std::size_t kClassCount = std::size(kClasses);

std::string site_name(std::size_t s) { return "site" + std::to_string(s); }

void strip(orch::StepTrace& trace) {
  trace.schedule_us = trace.optimize_us = trace.actuate_us = 0.0;
  trace.measure_us = trace.total_us = 0.0;
}

/// 32 hex digits of util's 128-bit digest over the length and the bytes.
std::string digest_hex(const std::vector<std::uint8_t>& bytes) {
  util::DigestBuilder builder;
  builder.add_size(bytes.size());
  for (std::size_t at = 0; at < bytes.size(); at += 8) {
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < 8 && at + b < bytes.size(); ++b) {
      word |= static_cast<std::uint64_t>(bytes[at + b]) << (8 * b);
    }
    builder.add_word(word);
  }
  const util::ConfigDigest d = builder.digest();
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(d.hi),
                static_cast<unsigned long long>(d.lo));
  return buf;
}

std::string line(std::uint64_t epoch, const std::string& stream,
                 const std::vector<std::uint8_t>& bytes) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "%02llu",
                static_cast<unsigned long long>(epoch));
  return std::string(buf) + " " + stream + " " + digest_hex(bytes);
}

std::vector<std::uint8_t> report_bytes(const daemon::Daemon& d) {
  FleetReport report;
  if (!proto::from_wire(d.last_report_wire(), report).ok()) {
    throw std::runtime_error("drill: FleetReport does not decode");
  }
  strip_wall_clock(report);
  return proto::to_wire(report);
}

/// Closed-loop client over Daemon::handle_request. The script sends only
/// requests that must succeed, so an error reply stops the drill.
class Client {
 public:
  explicit Client(daemon::Daemon& d) : daemon_(d) {}

  proto::WireFrame call(proto::MsgType type, std::vector<std::uint8_t> payload,
                        int fd = -1) {
    proto::WireFrame request;
    request.type = type;
    request.trace_id = ++trace_;
    request.payload = std::move(payload);
    proto::WireFrame reply = daemon_.handle_request(request, fd);
    if (reply.type == proto::MsgType::kError) {
      Error error;
      (void)daemon::from_wire(reply.payload, error);
      throw std::runtime_error("drill: request type " +
                               std::to_string(static_cast<int>(type)) +
                               " failed: " + error.message);
    }
    return reply;
  }

  void submit(const std::string& app, std::size_t site, broker::AppClass c,
              const std::string& endpoint) {
    call(proto::MsgType::kSubmitDemand,
         proto::to_wire(daemon::SubmitRequest{
             app, site_name(site), broker::demand_profile(c, endpoint), {}}));
  }

  void app_request(proto::MsgType type, const std::string& app,
                   std::size_t site) {
    call(type, proto::to_wire(daemon::AppRequest{app, site_name(site)}));
  }

  std::uint64_t subscribe(const daemon::SubscriptionSpec& spec) {
    daemon::SubscribeAck ack;
    const proto::WireFrame reply =
        call(proto::MsgType::kSubscribe, proto::to_wire(spec), kFd);
    if (!daemon::from_wire(reply.payload, ack).ok()) {
      throw std::runtime_error("drill: subscribe ack does not decode");
    }
    return ack.sub_id;
  }

 private:
  daemon::Daemon& daemon_;
  std::uint64_t trace_ = 0;
};

/// Every app the script starts: two per site at epoch 1, so that sites 0-6
/// cover every class once in slot "a", and one replacement app every 7th
/// epoch.
void script(Client& client, std::uint64_t epoch) {
  if (epoch == 1) {
    for (std::size_t s = 0; s < kSites; ++s) {
      for (std::size_t k = 0; k < 2; ++k) {
        const std::string app = std::string(k == 0 ? "a" : "b") +
                                std::to_string(s);
        client.submit(app, s, kClasses[(s + 4 * k) % kClassCount],
                      "ep-" + app);
      }
    }
    return;
  }
  // Stop one site's "a" app, and resume it two epochs later.
  if (epoch % 5 == 1) {
    const std::size_t s = epoch % kSites;
    client.app_request(proto::MsgType::kStopApp, "a" + std::to_string(s), s);
  }
  if (epoch % 5 == 3) {
    const std::size_t s = (epoch - 2) % kSites;
    client.app_request(proto::MsgType::kResumeApp, "a" + std::to_string(s), s);
  }
  // Replace the last extra app with a new one under a fresh endpoint.
  if (epoch % 7 == 0) {
    if (epoch >= 14) {
      const std::uint64_t last = epoch - 7;
      client.app_request(proto::MsgType::kStopApp, "c" + std::to_string(last),
                         (last * 3) % kSites);
    }
    const std::string app = "c" + std::to_string(epoch);
    client.submit(app, (epoch * 3) % kSites, kClasses[epoch % kClassCount],
                  "ep-" + app);
  }
}

/// Names of the counters whose value follows thread scheduling.
std::set<std::string> scheduling_counters() {
  std::set<std::string> names;
  const telemetry::Snapshot snap =
      telemetry::MetricsRegistry::instance().snapshot(
          telemetry::SnapshotScope::kCountersAndGauges);
  for (const telemetry::CounterSample& c : snap.counters) {
    if (!c.deterministic) names.insert(c.name);
  }
  return names;
}

/// The epoch's events, re-encoded per subscription after strip_wall_clock.
/// Scheduling-dependent counters are left out, and so are zero-valued
/// samples: MetricsRegistry::reset() keeps registrations, so a counter an
/// earlier run registered shows up at 0 in a later run's baseline.
std::map<std::uint64_t, std::vector<std::uint8_t>> drain_events(
    daemon::Daemon& d) {
  const std::set<std::string> sched = scheduling_counters();
  std::map<std::uint64_t, std::vector<std::uint8_t>> by_sub;
  for (const auto& bytes : d.subscriptions().take_output(kFd)) {
    const proto::FrameDecode decoded = proto::try_decode_frame(bytes);
    daemon::Event event;
    if (!decoded.frame || decoded.frame->type != proto::MsgType::kEvent ||
        !daemon::from_wire(decoded.frame->payload, event).ok()) {
      throw std::runtime_error("drill: the outbox holds a non-event frame");
    }
    strip_wall_clock(event);
    std::erase_if(event.counters, [&](const telemetry::CounterSample& c) {
      return c.value == 0 || sched.count(c.name) != 0;
    });
    std::erase_if(event.gauges, [](const telemetry::GaugeSample& g) {
      return g.value == 0.0;
    });
    daemon::to_wire(event, by_sub[event.sub_id]);
  }
  return by_sub;
}

daemon::DaemonOptions drill_options(const std::string& snapshot_path) {
  daemon::DaemonOptions options;
  options.snapshot_path = snapshot_path;
  options.sites = kSites;
  options.grid_n = 2;
  options.epoch_ms = 20;
  options.ticker = false;
  return options;
}

}  // namespace

void strip_wall_clock(FleetReport& report) {
  strip(report.trace);
  for (SiteReport& site : report.sites) strip(site.step.trace);
}

void strip_wall_clock(daemon::Event& event) {
  event.epoch_ms = 0.0;
  event.flush_us = 0.0;
  for (daemon::TraceRecord& record : event.traces) {
    record.ts_ns = 0;
    record.dur_ns = 0;
  }
}

std::vector<std::string> run(std::size_t threads) {
  // Registry defaults, whatever SURFOS_* the environment sets.
  core::install_config(core::Config());
  util::reset_global_pool(threads);
  telemetry::MetricsRegistry::instance().reset();
  sim::PrecomputeStore::instance().clear();
  const std::string snapshot_path =
      (std::filesystem::temp_directory_path() /
       ("surfos_drill_" + std::to_string(::getpid()) + "_" +
        std::to_string(threads) + ".snap"))
          .string();

  std::vector<std::string> lines;
  {
    daemon::Daemon d(drill_options(snapshot_path));
    Client client(d);
    // Health verdicts follow wall-time overruns; a streak no run reaches
    // keeps them on the queue and shed signals alone.
    client.call(proto::MsgType::kSetKnob,
                proto::to_wire(daemon::SetKnobRequest{
                    "SURFOS_SLO_OVERRUN_STREAK", 1000000}));
    d.subscriptions().add_connection(kFd);
    std::map<std::uint64_t, std::string> streams;
    daemon::SubscriptionSpec spec;
    spec.topic = daemon::SubTopic::kMetrics;
    streams[client.subscribe(spec)] = "metrics";
    spec.interval = 3;
    spec.prefix = "orch.";
    streams[client.subscribe(spec)] = "metrics-orch/3";
    spec = {};
    spec.topic = daemon::SubTopic::kTraces;
    streams[client.subscribe(spec)] = "traces";
    spec.topic = daemon::SubTopic::kHealth;
    streams[client.subscribe(spec)] = "health";

    for (std::uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
      script(client, epoch);
      d.run_epoch();
      lines.push_back(line(epoch, "report", report_bytes(d)));
      auto events = drain_events(d);
      for (const auto& [sub, name] : streams) {
        lines.push_back(line(epoch, name, events[sub]));
      }
      if (epoch == kCutEpoch) {
        client.call(proto::MsgType::kSnapshot, {});
      }
    }
  }

  {
    daemon::Daemon restored(drill_options(snapshot_path));
    if (!restored.load_snapshot().ok()) {
      throw std::runtime_error("drill: snapshot does not restore");
    }
    // Until its first epoch the restored daemon serves the snapshot's
    // FleetReport, so this line repeats the uncut run's at the cut.
    lines.push_back(line(kCutEpoch, "cut-report", report_bytes(restored)));
    Client client(restored);
    for (std::uint64_t epoch = kCutEpoch + 1; epoch <= kEpochs; ++epoch) {
      script(client, epoch);
      restored.run_epoch();
      lines.push_back(line(epoch, "cut-report", report_bytes(restored)));
    }
  }
  std::filesystem::remove(snapshot_path);
  core::clear_config();
  return lines;
}

std::string golden_text(const std::vector<std::string>& lines) {
  std::string text =
      "# Determinism drill digests (tests/drill.hpp): `<epoch> <stream> "
      "<digest>`.\n"
      "# Regenerate only when a change is meant to move them:\n"
      "#   build/tests/surfos_drill --write tests/golden/drill.txt\n";
  for (const std::string& l : lines) text += l + "\n";
  return text;
}

std::vector<std::string> parse_golden(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string l; std::getline(in, l);) {
    if (!l.empty() && l[0] != '#') lines.push_back(l);
  }
  return lines;
}

}  // namespace surfos::drill
