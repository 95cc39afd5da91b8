// surfos-ctl: command-line client for surfosd's wire protocol.
//
//   surfos-ctl [--socket PATH] COMMAND [ARGS...]
//
// Commands:
//   ping                         version negotiation round trip
//   submit APP [options]         queue a demand through admission
//   stop APP / resume APP        session control
//   status [--app A] [--site S]  session table
//   metrics                      fleet step counters from the last epoch
//   traces                       drain flight-recorder events (chrome JSON);
//                                pages with the kStreamTraces cursor until
//                                the buffer is exhausted
//   watch TOPIC [options]        subscribe to metrics|traces|health and
//                                print server-pushed events until --count
//                                events arrive (or forever)
//   snapshot / restore           daemon state to/from its snapshot path
//   set-knob NAME VALUE          hot-reload a SURFOS_* knob; VALUE is a
//                                plain base-10 u64 (anything else is a
//                                usage error), and a row read only at
//                                construction (SURFOS_THREADS,
//                                SURFOS_TRACE_BUFFER, SURFOS_TRACE,
//                                SURFOS_TELEMETRY) is refused with
//                                invalid-argument
//   knobs                        list every knob with its current value
//   shutdown                     stop the daemon
//
// Exits 0 on success, 1 when the daemon answers kError (code + message go
// to stderr), 2 on usage errors.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "broker/demand.hpp"
#include "daemon/client.hpp"
#include "daemon/messages.hpp"
#include "orch/task.hpp"
#include "proto/serialize.hpp"
#include "telemetry/recorder.hpp"

namespace {

using namespace surfos::daemon;
namespace proto = surfos::proto;

int usage() {
  std::fprintf(
      stderr,
      "usage: surfos-ctl [--socket PATH] COMMAND [ARGS...]\n"
      "  ping | status [--app A] [--site S] | metrics | traces\n"
      "  watch metrics|traces|health [--interval EPOCHS] [--count N]\n"
      "        [--site S] [--prefix P]\n"
      "  submit APP [--site S] [--class C] [--endpoint E] [--region R]\n"
      "         [--throughput MBPS] [--latency MS] [--sensing] [--security]\n"
      "         [--power] [--priority background|normal|interactive|critical]\n"
      "  stop APP [--site S] | resume APP [--site S]\n"
      "  snapshot | restore | knobs | shutdown\n"
      "  set-knob NAME VALUE   (VALUE: base-10 u64; construction-time\n"
      "        knobs such as SURFOS_THREADS must be set before start)\n");
  return 2;
}

std::optional<surfos::broker::AppClass> parse_app_class(
    const std::string& name) {
  using surfos::broker::AppClass;
  for (const AppClass c :
       {AppClass::kVrGaming, AppClass::kVideoStreaming,
        AppClass::kVideoConference, AppClass::kFileTransfer,
        AppClass::kSmartHome, AppClass::kSensitiveData,
        AppClass::kWirelessCharging}) {
    if (name == surfos::broker::to_string(c)) return c;
  }
  return std::nullopt;
}

std::optional<surfos::orch::Priority> parse_priority(const std::string& name) {
  if (name == "background") return surfos::orch::kPriorityBackground;
  if (name == "normal") return surfos::orch::kPriorityNormal;
  if (name == "interactive") return surfos::orch::kPriorityInteractive;
  if (name == "critical") return surfos::orch::kPriorityCritical;
  return std::nullopt;
}

/// Prints a failed request's error code + message; returns 1 (the exit
/// code).
int fail(const surfos::Error& error) {
  std::fprintf(stderr, "error %u (%s): %s\n",
               static_cast<unsigned>(error.code),
               surfos::to_string(error.code), error.message.c_str());
  return 1;
}

/// One round trip: a failure is printed (exit 1), a reply handed to
/// `on_reply` (exit 0).
template <typename Reply, typename OnReply>
int run(Client& client, proto::MsgType type,
        const std::vector<std::uint8_t>& payload, OnReply on_reply) {
  auto reply = client.request<Reply>(type, payload);
  if (!reply.ok()) return fail(reply.error());
  if constexpr (std::is_void_v<Reply>) {
    on_reply();
  } else {
    on_reply(reply.value());
  }
  return 0;
}

/// A plain base-10 number that fits in a u64: no sign, no junk, no
/// overflow.
std::optional<std::uint64_t> parse_u64(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, 10);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// One line per event, `key=value` fields (greppable from scripts),
/// followed by indented per-record lines.
void print_event(const char* topic, const Event& event) {
  std::printf("event topic=%s epoch=%llu seq=%llu dropped=%llu%s\n", topic,
              static_cast<unsigned long long>(event.epoch),
              static_cast<unsigned long long>(event.seq),
              static_cast<unsigned long long>(event.dropped),
              event.baseline ? " baseline=1" : "");
  for (const auto& c : event.counters) {
    std::printf("  counter %s=%llu\n", c.name.c_str(),
                static_cast<unsigned long long>(c.value));
  }
  for (const auto& g : event.gauges) {
    std::printf("  gauge %s=%g\n", g.name.c_str(), g.value);
  }
  for (const TraceRecord& t : event.traces) {
    std::printf("  trace %s ts_ns=%llu dur_ns=%llu\n", t.name.c_str(),
                static_cast<unsigned long long>(t.ts_ns),
                static_cast<unsigned long long>(t.dur_ns));
  }
  for (const surfos::daemon::SiteHealth& h : event.health) {
    std::printf("  site %s state=%s epochs=%llu%s%s\n", h.site_id.c_str(),
                surfos::daemon::slo_state_name(h.state),
                static_cast<unsigned long long>(h.epochs_in_state),
                h.reason.empty() ? "" : " reason=", h.reason.c_str());
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/surfosd.sock";
  if (const char* env = std::getenv("SURFOS_SOCKET")) socket_path = env;
  int at = 1;
  if (at + 1 < argc && std::strcmp(argv[at], "--socket") == 0) {
    socket_path = argv[at + 1];
    at += 2;
  }
  if (at >= argc) return usage();
  const std::string command = argv[at++];

  // Per-command option parsing (shared flags).
  std::string app_id;
  std::string site_id;
  std::string endpoint_id;
  std::string region_id;
  std::string app_class = "file-transfer";
  std::optional<double> throughput;
  std::optional<double> latency;
  bool sensing = false, security = false, power = false;
  std::optional<surfos::orch::Priority> priority;
  std::string prefix;
  long interval = 1;
  long count = 0;  // 0 = stream forever
  std::vector<std::string> positional;
  for (; at < argc; ++at) {
    const std::string arg = argv[at];
    const bool has_value = at + 1 < argc;
    if (arg == "--site" && has_value) {
      site_id = argv[++at];
    } else if (arg == "--prefix" && has_value) {
      prefix = argv[++at];
    } else if (arg == "--interval" && has_value) {
      interval = std::atol(argv[++at]);
      if (interval < 1) return usage();
    } else if (arg == "--count" && has_value) {
      count = std::atol(argv[++at]);
      if (count < 0) return usage();
    } else if (arg == "--app" && has_value) {
      app_id = argv[++at];
    } else if (arg == "--endpoint" && has_value) {
      endpoint_id = argv[++at];
    } else if (arg == "--region" && has_value) {
      region_id = argv[++at];
    } else if (arg == "--class" && has_value) {
      app_class = argv[++at];
    } else if (arg == "--throughput" && has_value) {
      throughput = std::atof(argv[++at]);
    } else if (arg == "--latency" && has_value) {
      latency = std::atof(argv[++at]);
    } else if (arg == "--sensing") {
      sensing = true;
    } else if (arg == "--security") {
      security = true;
    } else if (arg == "--power") {
      power = true;
    } else if (arg == "--priority" && has_value) {
      priority = parse_priority(argv[++at]);
      if (!priority) return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      positional.push_back(arg);
    }
  }

  std::optional<std::uint64_t> knob_value;
  if (command == "set-knob") {
    if (positional.size() != 2) return usage();
    knob_value = parse_u64(positional[1]);
    if (!knob_value) return usage();
  }

  auto connected = Client::connect(socket_path);
  if (!connected.ok()) {
    std::fprintf(stderr, "surfos-ctl: %s\n",
                 connected.error().message.c_str());
    return 1;
  }
  Client client = std::move(connected.value());

  if (command == "ping") {
    return run<HelloAck>(client, proto::MsgType::kHello,
                         proto::to_wire(HelloRequest{}),
                         [](const HelloAck& ack) {
                           std::printf("%s speaks protocol v%u\n",
                                       ack.server_name.c_str(),
                                       ack.chosen_version);
                         });
  }

  if (command == "submit") {
    if (positional.size() != 1) return usage();
    const auto parsed_class = parse_app_class(app_class);
    if (!parsed_class) {
      std::fprintf(stderr, "surfos-ctl: unknown app class: %s\n",
                   app_class.c_str());
      return 2;
    }
    SubmitRequest request;
    request.app_id = positional[0];
    request.site_id = site_id;
    request.demand = surfos::broker::demand_profile(*parsed_class,
                                                    endpoint_id, region_id);
    if (throughput) request.demand->throughput_mbps = throughput;
    if (latency) request.demand->max_latency_ms = latency;
    if (sensing) request.demand->needs_sensing = true;
    if (security) request.demand->needs_security = true;
    if (power) request.demand->needs_power = true;
    if (priority) request.priority = static_cast<std::uint64_t>(*priority);
    return run<SubmitAck>(
        client, proto::MsgType::kSubmitDemand, proto::to_wire(request),
        [&](const SubmitAck& ack) {
          std::printf("queued %s (admission depth %llu)\n",
                      positional[0].c_str(),
                      static_cast<unsigned long long>(ack.queue_depth));
        });
  }

  if (command == "stop" || command == "resume") {
    if (positional.size() != 1) return usage();
    return run<void>(client,
                     command == "stop" ? proto::MsgType::kStopApp
                                       : proto::MsgType::kResumeApp,
                     proto::to_wire(AppRequest{positional[0], site_id}),
                     [&] {
                       std::printf("%s: %s\n", command.c_str(),
                                   positional[0].c_str());
                     });
  }

  if (command == "status") {
    return run<StatusReply>(
        client, proto::MsgType::kGetStatus,
        proto::to_wire(AppRequest{app_id, site_id}),
        [](const StatusReply& status) {
          for (const SessionRow& row : status.sessions) {
            std::printf(
                "%-16s %-8s %-8s %-11s goals %llu/%llu trace %016llx\n",
                row.app_id.c_str(), row.site_id.c_str(),
                row.running ? "running" : "stopped",
                row.satisfied ? "satisfied" : "unsatisfied",
                static_cast<unsigned long long>(row.tasks_met),
                static_cast<unsigned long long>(row.tasks_total),
                static_cast<unsigned long long>(row.trace_id));
          }
          std::printf("%zu session(s), %llu queued, epoch %llu\n",
                      status.sessions.size(),
                      static_cast<unsigned long long>(status.queue_depth),
                      static_cast<unsigned long long>(status.epochs));
        });
  }

  if (command == "metrics") {
    return run<MetricsReply>(
        client, proto::MsgType::kGetMetrics, {},
        [](const MetricsReply& metrics) {
          std::printf(
              "epochs %llu (last %.2f ms), env rebuilds %llu, "
              "requests %llu\n",
              static_cast<unsigned long long>(metrics.epochs),
              metrics.last_epoch_ms,
              static_cast<unsigned long long>(metrics.env_rebuilds),
              static_cast<unsigned long long>(metrics.requests));
          std::printf(
              "precompute: %llu hit(s), %llu miss(es), "
              "%llu eviction(s), %.1f MiB resident\n",
              static_cast<unsigned long long>(metrics.precompute_hits),
              static_cast<unsigned long long>(metrics.precompute_misses),
              static_cast<unsigned long long>(metrics.precompute_evictions),
              static_cast<double>(metrics.precompute_bytes) /
                  (1024.0 * 1024.0));
          surfos::FleetReport report;
          if (proto::from_wire(metrics.report, report).ok()) {
            std::printf(
                "last step: %zu site(s), %zu assignment(s), "
                "%zu optimization(s), %zu starved\n",
                report.sites.size(), report.total_assignments,
                report.total_optimizations, report.total_starved);
          }
        });
  }

  if (command == "traces") {
    // Cursor drain loop: page through the flight recorder until the daemon
    // reports the buffer drained, then emit one chrome JSON document. Wire
    // names are interned in a deque so the rebuilt TraceEvents can point at
    // them.
    std::deque<std::string> names;
    std::vector<surfos::telemetry::TraceEvent> events;
    TracesRequest request;
    request.limit = 1024;
    for (bool done = false; !done;) {
      const int rc = run<TraceChunk>(
          client, proto::MsgType::kStreamTraces, proto::to_wire(request),
          [&](const TraceChunk& chunk) {
            for (const TraceRecord& r : chunk.events) {
              names.push_back(r.name);
              events.push_back({r.trace_id, r.span_id, r.parent_span_id,
                                names.back().c_str(), r.ts_ns, r.dur_ns, r.arg,
                                r.thread_index, r.kind});
            }
            request.cursor_ts = chunk.next_ts;
            request.cursor_span = chunk.next_span;
            done = chunk.done;
          });
      if (rc != 0) return rc;
    }
    std::printf("%s", surfos::telemetry::chrome_trace_json(events).c_str());
    return 0;
  }

  if (command == "watch") {
    if (positional.size() != 1) return usage();
    const std::uint8_t topic = surfos::daemon::parse_sub_topic(positional[0]);
    if (topic == 0) {
      std::fprintf(stderr, "surfos-ctl: unknown topic: %s\n",
                   positional[0].c_str());
      return 2;
    }
    const SubscriptionSpec spec{static_cast<SubTopic>(topic),
                                static_cast<std::uint32_t>(interval),
                                site_id, prefix};
    const int rc = run<SubscribeAck>(
        client, proto::MsgType::kSubscribe, proto::to_wire(spec),
        [&](const SubscribeAck& ack) {
          std::fprintf(stderr, "subscribed %s id=%llu interval=%ld\n",
                       positional[0].c_str(),
                       static_cast<unsigned long long>(ack.sub_id), interval);
        });
    if (rc != 0) return rc;
    for (long seen = 0; count == 0 || seen < count;) {
      auto frame = client.recv();
      if (!frame.ok()) return fail(frame.error());
      if (frame.value().type != proto::MsgType::kEvent) continue;
      Event event;
      if (auto parsed = from_wire(frame.value().payload, event);
          !parsed.ok()) {
        return fail(parsed.error());
      }
      print_event(positional[0].c_str(), event);
      ++seen;
    }
    return 0;
  }

  if (command == "snapshot" || command == "restore") {
    // restore answers with an empty kOk: no path to print.
    return run<SnapshotAck>(client,
                            command == "snapshot" ? proto::MsgType::kSnapshot
                                                  : proto::MsgType::kRestore,
                            {}, [&](const SnapshotAck& ack) {
                              std::printf("%s: %s\n", command.c_str(),
                                          ack.path.empty() ? "ok"
                                                           : ack.path.c_str());
                            });
  }

  if (command == "set-knob") {
    return run<void>(client, proto::MsgType::kSetKnob,
                     proto::to_wire(SetKnobRequest{positional[0], knob_value}),
                     [&] {
                       std::printf("%s = %s\n", positional[0].c_str(),
                                   positional[1].c_str());
                     });
  }

  if (command == "knobs") {
    return run<KnobsReply>(client, proto::MsgType::kGetKnobs, {},
                           [](const KnobsReply& reply) {
                             for (const KnobRow& row : reply.knobs) {
                               std::printf(
                                   "%-22s %-10llu %s\n", row.name.c_str(),
                                   static_cast<unsigned long long>(row.value),
                                   row.doc.c_str());
                             }
                           });
  }

  if (command == "shutdown") {
    return run<void>(client, proto::MsgType::kShutdown, {},
                     [] { std::printf("shutdown: ok\n"); });
  }

  return usage();
}
