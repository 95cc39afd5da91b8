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
//   set-knob NAME VALUE          hot-reload a SURFOS_* knob
//   knobs                        list knobs and current overrides
//   shutdown                     stop the daemon
//
// Exits 0 on success, 1 when the daemon answers kError (code + message go
// to stderr), 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "broker/demand.hpp"
#include "daemon/client.hpp"
#include "daemon/subscription.hpp"
#include "daemon/tags.hpp"
#include "orch/task.hpp"
#include "proto/serialize.hpp"
#include "proto/wire.hpp"
#include "telemetry/recorder.hpp"

namespace {

using surfos::daemon::Client;
namespace tag = surfos::daemon::tag;
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
      "  snapshot | restore | set-knob NAME VALUE | knobs | shutdown\n");
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

/// Prints a kError reply's code + message; returns 1 (the exit code).
int report_error(const proto::WireFrame& reply) {
  std::uint32_t code = 0;
  std::string message;
  proto::TlvReader r(reply.payload);
  while (const auto tlv = r.next()) {
    if (tlv->tag == tag::kErrorCode) {
      code = proto::tlv_u32(*tlv).value_or(0);
    }
    if (tlv->tag == tag::kErrorMessage) message = proto::tlv_string(*tlv);
  }
  std::fprintf(stderr, "error %u (%s): %s\n", code,
               surfos::to_string(static_cast<surfos::ErrorCode>(code)),
               message.c_str());
  return 1;
}

int run(Client& client, proto::MsgType type,
        const std::vector<std::uint8_t>& payload,
        const std::function<void(const proto::WireFrame&)>& on_reply) {
  auto reply = client.call(type, payload);
  if (!reply.ok()) {
    std::fprintf(stderr, "surfos-ctl: %s\n", reply.error().message.c_str());
    return 1;
  }
  if (reply.value().type == proto::MsgType::kError) {
    return report_error(reply.value());
  }
  on_reply(reply.value());
  return 0;
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

  auto connected = Client::connect(socket_path);
  if (!connected.ok()) {
    std::fprintf(stderr, "surfos-ctl: %s\n",
                 connected.error().message.c_str());
    return 1;
  }
  Client client = std::move(connected.value());

  std::vector<std::uint8_t> payload;
  proto::TlvWriter w(payload);

  if (command == "ping") {
    w.put_u16(tag::kMaxVersion, proto::kProtoVersion);
    return run(client, proto::MsgType::kHello, payload,
               [](const proto::WireFrame& reply) {
                 std::uint16_t version = 0;
                 std::string server;
                 proto::TlvReader r(reply.payload);
                 while (const auto tlv = r.next()) {
                   if (tlv->tag == tag::kChosenVersion) {
                     version = proto::tlv_u16(*tlv).value_or(0);
                   }
                   if (tlv->tag == tag::kServerName) {
                     server = proto::tlv_string(*tlv);
                   }
                 }
                 std::printf("%s speaks protocol v%u\n", server.c_str(),
                             version);
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
    surfos::broker::AppDemand demand = surfos::broker::demand_profile(
        *parsed_class, endpoint_id, region_id);
    if (throughput) demand.throughput_mbps = throughput;
    if (latency) demand.max_latency_ms = latency;
    if (sensing) demand.needs_sensing = true;
    if (security) demand.needs_security = true;
    if (power) demand.needs_power = true;
    w.put_string(tag::kAppId, positional[0]);
    if (!site_id.empty()) w.put_string(tag::kSiteId, site_id);
    w.put_bytes(tag::kDemand, proto::to_wire(demand));
    if (priority) {
      w.put_u64(tag::kPriority, static_cast<std::uint64_t>(*priority));
    }
    return run(client, proto::MsgType::kSubmitDemand, payload,
               [&](const proto::WireFrame& reply) {
                 std::uint64_t depth = 0;
                 proto::TlvReader r(reply.payload);
                 while (const auto tlv = r.next()) {
                   if (tlv->tag == tag::kQueueDepth) {
                     depth = proto::tlv_u64(*tlv).value_or(0);
                   }
                 }
                 std::printf("queued %s (admission depth %llu)\n",
                             positional[0].c_str(),
                             static_cast<unsigned long long>(depth));
               });
  }

  if (command == "stop" || command == "resume") {
    if (positional.size() != 1) return usage();
    w.put_string(tag::kAppId, positional[0]);
    if (!site_id.empty()) w.put_string(tag::kSiteId, site_id);
    return run(client,
               command == "stop" ? proto::MsgType::kStopApp
                                 : proto::MsgType::kResumeApp,
               payload, [&](const proto::WireFrame&) {
                 std::printf("%s: %s\n", command.c_str(),
                             positional[0].c_str());
               });
  }

  if (command == "status") {
    if (!app_id.empty()) w.put_string(tag::kAppId, app_id);
    if (!site_id.empty()) w.put_string(tag::kSiteId, site_id);
    return run(client, proto::MsgType::kGetStatus, payload,
               [](const proto::WireFrame& reply) {
                 proto::TlvReader r(reply.payload);
                 std::uint64_t depth = 0, epochs = 0;
                 std::size_t sessions = 0;
                 while (const auto tlv = r.next()) {
                   if (tlv->tag == tag::kQueueDepth) {
                     depth = proto::tlv_u64(*tlv).value_or(0);
                   } else if (tlv->tag == tag::kStatusEpochs) {
                     epochs = proto::tlv_u64(*tlv).value_or(0);
                   } else if (tlv->tag == tag::kSession) {
                     ++sessions;
                     std::string app, site;
                     bool running = false, satisfied = false;
                     std::uint64_t trace = 0, total = 0, met = 0;
                     proto::TlvReader n(tlv->value);
                     while (const auto field = n.next()) {
                       switch (field->tag) {
                         case tag::kSessionApp:
                           app = proto::tlv_string(*field);
                           break;
                         case tag::kSessionSite:
                           site = proto::tlv_string(*field);
                           break;
                         case tag::kSessionRunning:
                           running = proto::tlv_u8(*field).value_or(0) != 0;
                           break;
                         case tag::kSessionTrace:
                           trace = proto::tlv_u64(*field).value_or(0);
                           break;
                         case tag::kSessionSatisfied:
                           satisfied = proto::tlv_u8(*field).value_or(0) != 0;
                           break;
                         case tag::kSessionTasksTotal:
                           total = proto::tlv_u64(*field).value_or(0);
                           break;
                         case tag::kSessionTasksMet:
                           met = proto::tlv_u64(*field).value_or(0);
                           break;
                         default: break;
                       }
                     }
                     std::printf(
                         "%-16s %-8s %-8s %-11s goals %llu/%llu trace %016llx\n",
                         app.c_str(), site.c_str(),
                         running ? "running" : "stopped",
                         satisfied ? "satisfied" : "unsatisfied",
                         static_cast<unsigned long long>(met),
                         static_cast<unsigned long long>(total),
                         static_cast<unsigned long long>(trace));
                   }
                 }
                 std::printf("%zu session(s), %llu queued, epoch %llu\n",
                             sessions,
                             static_cast<unsigned long long>(depth),
                             static_cast<unsigned long long>(epochs));
               });
  }

  if (command == "metrics") {
    return run(client, proto::MsgType::kGetMetrics, payload,
               [](const proto::WireFrame& reply) {
                 proto::TlvReader r(reply.payload);
                 std::uint64_t epochs = 0, rebuilds = 0, requests = 0;
                 std::uint64_t pre_hits = 0, pre_misses = 0, pre_bytes = 0,
                               pre_evictions = 0;
                 bool have_precompute = false;
                 double epoch_ms = 0.0;
                 surfos::FleetReport report;
                 bool have_report = false;
                 while (const auto tlv = r.next()) {
                   switch (tlv->tag) {
                     case tag::kReport:
                       have_report =
                           proto::from_wire(tlv->value, report).ok();
                       break;
                     case tag::kEpochs:
                       epochs = proto::tlv_u64(*tlv).value_or(0);
                       break;
                     case tag::kRebuilds:
                       rebuilds = proto::tlv_u64(*tlv).value_or(0);
                       break;
                     case tag::kLastEpochMs:
                       epoch_ms = proto::tlv_f64(*tlv).value_or(0.0);
                       break;
                     case tag::kRequests:
                       requests = proto::tlv_u64(*tlv).value_or(0);
                       break;
                     case tag::kPrecomputeHits:
                       pre_hits = proto::tlv_u64(*tlv).value_or(0);
                       have_precompute = true;
                       break;
                     case tag::kPrecomputeMisses:
                       pre_misses = proto::tlv_u64(*tlv).value_or(0);
                       break;
                     case tag::kPrecomputeBytes:
                       pre_bytes = proto::tlv_u64(*tlv).value_or(0);
                       break;
                     case tag::kPrecomputeEvictions:
                       pre_evictions = proto::tlv_u64(*tlv).value_or(0);
                       break;
                     default: break;
                   }
                 }
                 std::printf(
                     "epochs %llu (last %.2f ms), env rebuilds %llu, "
                     "requests %llu\n",
                     static_cast<unsigned long long>(epochs), epoch_ms,
                     static_cast<unsigned long long>(rebuilds),
                     static_cast<unsigned long long>(requests));
                 if (have_precompute) {
                   std::printf(
                       "precompute: %llu hit(s), %llu miss(es), "
                       "%llu eviction(s), %.1f MiB resident\n",
                       static_cast<unsigned long long>(pre_hits),
                       static_cast<unsigned long long>(pre_misses),
                       static_cast<unsigned long long>(pre_evictions),
                       static_cast<double>(pre_bytes) / (1024.0 * 1024.0));
                 }
                 if (have_report) {
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
    // reports kTraceDone, then emit one chrome JSON document. Wire names
    // are interned in a deque so the rebuilt TraceEvents can point at them.
    std::deque<std::string> names;
    std::vector<surfos::telemetry::TraceEvent> events;
    std::uint64_t cursor_ts = 0, cursor_span = 0;
    bool done = false;
    while (!done) {
      std::vector<std::uint8_t> page;
      proto::TlvWriter pw(page);
      pw.put_u64(tag::kTraceCursorTs, cursor_ts);
      pw.put_u64(tag::kTraceCursorSpan, cursor_span);
      pw.put_u32(tag::kTraceLimit, 1024);
      auto reply = client.call(proto::MsgType::kStreamTraces, page);
      if (!reply.ok()) {
        std::fprintf(stderr, "surfos-ctl: %s\n",
                     reply.error().message.c_str());
        return 1;
      }
      if (reply.value().type == proto::MsgType::kError) {
        return report_error(reply.value());
      }
      proto::TlvReader r(reply.value().payload);
      while (const auto tlv = r.next()) {
        switch (tlv->tag) {
          case tag::kTraceEvent: {
            surfos::telemetry::TraceEvent ev;
            proto::TlvReader n(tlv->value);
            while (const auto field = n.next()) {
              switch (field->tag) {
                case tag::kEvTs:
                  ev.ts_ns = proto::tlv_u64(*field).value_or(0);
                  break;
                case tag::kEvDur:
                  ev.dur_ns = proto::tlv_u64(*field).value_or(0);
                  break;
                case tag::kEvTrace:
                  ev.trace_id = proto::tlv_u64(*field).value_or(0);
                  break;
                case tag::kEvSpan:
                  ev.span_id = proto::tlv_u64(*field).value_or(0);
                  break;
                case tag::kEvParent:
                  ev.parent_span_id = proto::tlv_u64(*field).value_or(0);
                  break;
                case tag::kEvName:
                  names.push_back(proto::tlv_string(*field));
                  ev.name = names.back().c_str();
                  break;
                case tag::kEvKind:
                  ev.kind = static_cast<surfos::telemetry::TraceEvent::Kind>(
                      proto::tlv_u8(*field).value_or(0));
                  break;
                case tag::kEvArg:
                  ev.arg = proto::tlv_u64(*field).value_or(0);
                  break;
                case tag::kEvTid:
                  ev.thread_index = proto::tlv_u32(*field).value_or(0);
                  break;
                default: break;
              }
            }
            events.push_back(ev);
            break;
          }
          case tag::kTraceNextTs:
            cursor_ts = proto::tlv_u64(*tlv).value_or(cursor_ts);
            break;
          case tag::kTraceNextSpan:
            cursor_span = proto::tlv_u64(*tlv).value_or(cursor_span);
            break;
          case tag::kTraceDone:
            done = proto::tlv_u8(*tlv).value_or(0) != 0;
            break;
          default: break;
        }
      }
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
    w.put_u8(tag::kSubTopic, topic);
    w.put_u32(tag::kSubInterval, static_cast<std::uint32_t>(interval));
    if (!site_id.empty()) w.put_string(tag::kSubSite, site_id);
    if (!prefix.empty()) w.put_string(tag::kSubPrefix, prefix);
    auto ack = client.call(proto::MsgType::kSubscribe, payload);
    if (!ack.ok()) {
      std::fprintf(stderr, "surfos-ctl: %s\n", ack.error().message.c_str());
      return 1;
    }
    if (ack.value().type == proto::MsgType::kError) {
      return report_error(ack.value());
    }
    std::uint64_t sub_id = 0;
    {
      proto::TlvReader r(ack.value().payload);
      while (const auto tlv = r.next()) {
        if (tlv->tag == tag::kSubId) {
          sub_id = proto::tlv_u64(*tlv).value_or(0);
        }
      }
    }
    std::fprintf(stderr, "subscribed %s id=%llu interval=%ld\n",
                 positional[0].c_str(),
                 static_cast<unsigned long long>(sub_id), interval);
    long seen = 0;
    while (count == 0 || seen < count) {
      auto frame = client.recv();
      if (!frame.ok()) {
        std::fprintf(stderr, "surfos-ctl: %s\n",
                     frame.error().message.c_str());
        return 1;
      }
      if (frame.value().type != proto::MsgType::kEvent) continue;
      std::uint64_t epoch = 0, seq = 0, dropped = 0;
      bool baseline = false;
      // One line per event, `key=value` fields — greppable from scripts —
      // followed by indented per-record lines.
      std::vector<std::string> lines;
      proto::TlvReader r(frame.value().payload);
      while (const auto tlv = r.next()) {
        switch (tlv->tag) {
          case tag::kEventEpoch:
            epoch = proto::tlv_u64(*tlv).value_or(0);
            break;
          case tag::kEventSeq:
            seq = proto::tlv_u64(*tlv).value_or(0);
            break;
          case tag::kDroppedEvents:
            dropped = proto::tlv_u64(*tlv).value_or(0);
            break;
          case tag::kEventBaseline:
            baseline = proto::tlv_u8(*tlv).value_or(0) != 0;
            break;
          case tag::kEventCounter:
          case tag::kEventGauge: {
            std::string name;
            std::uint64_t u64 = 0;
            double f64 = 0.0;
            const bool is_gauge = tlv->tag == tag::kEventGauge;
            proto::TlvReader n(tlv->value);
            while (const auto field = n.next()) {
              if (field->tag == tag::kMetricName) {
                name = proto::tlv_string(*field);
              } else if (field->tag == tag::kMetricU64) {
                u64 = proto::tlv_u64(*field).value_or(0);
              } else if (field->tag == tag::kMetricF64) {
                f64 = proto::tlv_f64(*field).value_or(0.0);
              }
            }
            char line[256];
            if (is_gauge) {
              std::snprintf(line, sizeof line, "  gauge %s=%g", name.c_str(),
                            f64);
            } else {
              std::snprintf(line, sizeof line, "  counter %s=%llu",
                            name.c_str(),
                            static_cast<unsigned long long>(u64));
            }
            lines.push_back(line);
            break;
          }
          case tag::kEventTrace: {
            std::string name;
            std::uint64_t ts = 0, dur = 0;
            proto::TlvReader n(tlv->value);
            while (const auto field = n.next()) {
              if (field->tag == tag::kEvName) {
                name = proto::tlv_string(*field);
              } else if (field->tag == tag::kEvTs) {
                ts = proto::tlv_u64(*field).value_or(0);
              } else if (field->tag == tag::kEvDur) {
                dur = proto::tlv_u64(*field).value_or(0);
              }
            }
            char line[256];
            std::snprintf(line, sizeof line,
                          "  trace %s ts_ns=%llu dur_ns=%llu", name.c_str(),
                          static_cast<unsigned long long>(ts),
                          static_cast<unsigned long long>(dur));
            lines.push_back(line);
            break;
          }
          case tag::kEventSiteHealth: {
            std::string site, reason;
            std::uint8_t state = 0;
            std::uint64_t epochs_in = 0;
            proto::TlvReader n(tlv->value);
            while (const auto field = n.next()) {
              if (field->tag == tag::kHealthSite) {
                site = proto::tlv_string(*field);
              } else if (field->tag == tag::kHealthState) {
                state = proto::tlv_u8(*field).value_or(0);
              } else if (field->tag == tag::kHealthEpochs) {
                epochs_in = proto::tlv_u64(*field).value_or(0);
              } else if (field->tag == tag::kHealthReason) {
                reason = proto::tlv_string(*field);
              }
            }
            char line[320];
            std::snprintf(
                line, sizeof line, "  site %s state=%s epochs=%llu%s%s",
                site.c_str(),
                surfos::daemon::slo_state_name(
                    static_cast<surfos::daemon::SloState>(state)),
                static_cast<unsigned long long>(epochs_in),
                reason.empty() ? "" : " reason=", reason.c_str());
            lines.push_back(line);
            break;
          }
          default: break;
        }
      }
      std::printf("event topic=%s epoch=%llu seq=%llu dropped=%llu%s\n",
                  positional[0].c_str(),
                  static_cast<unsigned long long>(epoch),
                  static_cast<unsigned long long>(seq),
                  static_cast<unsigned long long>(dropped),
                  baseline ? " baseline=1" : "");
      for (const std::string& line : lines) {
        std::printf("%s\n", line.c_str());
      }
      std::fflush(stdout);
      ++seen;
    }
    return 0;
  }

  if (command == "snapshot" || command == "restore") {
    return run(client,
               command == "snapshot" ? proto::MsgType::kSnapshot
                                     : proto::MsgType::kRestore,
               payload, [&](const proto::WireFrame& reply) {
                 std::string path;
                 proto::TlvReader r(reply.payload);
                 while (const auto tlv = r.next()) {
                   if (tlv->tag == tag::kPath) {
                     path = proto::tlv_string(*tlv);
                   }
                 }
                 if (path.empty()) {
                   std::printf("%s: ok\n", command.c_str());
                 } else {
                   std::printf("%s: %s\n", command.c_str(), path.c_str());
                 }
               });
  }

  if (command == "set-knob") {
    if (positional.size() != 2) return usage();
    w.put_string(tag::kKnobName, positional[0]);
    w.put_u64(tag::kKnobValue,
              static_cast<std::uint64_t>(std::atoll(positional[1].c_str())));
    return run(client, proto::MsgType::kSetKnob, payload,
               [&](const proto::WireFrame&) {
                 std::printf("%s = %s\n", positional[0].c_str(),
                             positional[1].c_str());
               });
  }

  if (command == "knobs") {
    return run(client, proto::MsgType::kGetKnobs, payload,
               [](const proto::WireFrame& reply) {
                 proto::TlvReader r(reply.payload);
                 while (const auto tlv = r.next()) {
                   if (tlv->tag != tag::kKnob) continue;
                   std::string name, doc;
                   std::uint64_t value = 0;
                   proto::TlvReader n(tlv->value);
                   while (const auto field = n.next()) {
                     switch (field->tag) {
                       case tag::kKnobName:
                         name = proto::tlv_string(*field);
                         break;
                       case tag::kKnobValue:
                         value = proto::tlv_u64(*field).value_or(0);
                         break;
                       case tag::kKnobDoc:
                         doc = proto::tlv_string(*field);
                         break;
                       default: break;
                     }
                   }
                   std::printf("%-22s %-10llu %s\n", name.c_str(),
                               static_cast<unsigned long long>(value),
                               doc.c_str());
                 }
               });
  }

  if (command == "shutdown") {
    return run(client, proto::MsgType::kShutdown, payload,
               [](const proto::WireFrame&) { std::printf("shutdown: ok\n"); });
  }

  return usage();
}
