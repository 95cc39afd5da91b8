#include "daemon/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <set>

#include "broker/admission.hpp"
#include "core/config.hpp"
#include "daemon/messages.hpp"
#include "daemon/snapshot.hpp"
#include "em/material.hpp"
#include "proto/serialize.hpp"
#include "sim/precompute_store.hpp"
#include "surface/catalog.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/log.hpp"

namespace surfos::daemon {

namespace {

constexpr const char* kLog = "surfosd";

/// Stable string hash (FNV-1a) for deterministic endpoint placement — the
/// same endpoint name lands at the same spot on every run and after every
/// restart (std::hash makes no such promise).
std::uint64_t stable_hash(const std::string& s) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

proto::WireFrame reply_frame(proto::MsgType type, std::uint64_t trace_id) {
  proto::WireFrame frame;
  frame.type = type;
  frame.trace_id = trace_id;
  return frame;
}

proto::WireFrame error_reply(std::uint64_t trace_id, const Error& error) {
  proto::WireFrame frame = reply_frame(proto::MsgType::kError, trace_id);
  to_wire(error, frame.payload);
  return frame;
}

proto::WireFrame error_reply(std::uint64_t trace_id, ErrorCode code,
                             const std::string& message) {
  return error_reply(trace_id, Error{code, message});
}

/// Decodes a request's payload into `msg`; the kError reply when it does
/// not decode.
template <typename Msg>
std::optional<proto::WireFrame> decode_failure(const proto::WireFrame& request,
                                               Msg& msg) {
  if (auto parsed = from_wire(request.payload, msg); !parsed.ok()) {
    return error_reply(request.trace_id, parsed.error());
  }
  return std::nullopt;
}

}  // namespace

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  if (options_.sites == 0) options_.sites = 1;
  if (options_.grid_n < 2) options_.grid_n = 2;
  build_world();
}

Daemon::~Daemon() { stop(); }

void Daemon::build_world() {
  // One 4 m room per site with a surface on the east wall, the AP high in
  // the west, and a person walking a diagonal track — the dynamic world the
  // ticker advances every epoch.
  budget_ = em::LinkBudget{10.0, em::band_bandwidth(em::Band::k28GHz), 7.0};
  const surface::Catalog catalog = surface::Catalog::standard();
  const surface::CatalogEntry* design = catalog.find("NR-Surface");

  sites_.resize(options_.sites);
  for (std::size_t i = 0; i < options_.sites; ++i) {
    Site& site = sites_[i];
    site.id = "site" + std::to_string(i);

    em::MaterialDb materials = em::MaterialDb::standard();
    const int body = sim::add_body_material(materials);
    site.world = std::make_unique<sim::DynamicEnvironment>(
        std::move(materials), [](sim::Environment& env) {
          constexpr double kH = 3.0;
          env.add_vertical_wall(0.0, 4.0, 4.0, 4.0, 0.0, kH, em::kMatConcrete);
          env.add_vertical_wall(0.0, 0.0, 0.0, 4.0, 0.0, kH, em::kMatConcrete);
          env.add_vertical_wall(4.0, 0.0, 4.0, 4.0, 0.0, kH, em::kMatConcrete);
          env.add_vertical_wall(0.0, 0.0, 4.0, 0.0, 0.0, kH, em::kMatConcrete);
          env.add_horizontal_slab(0.0, 4.0, 0.0, 4.0, 0.0, em::kMatFloor);
        });
    sim::MovingBlocker person;
    person.id = "walker";
    person.waypoints = {{0.8, 0.8, 0.0}, {3.2, 3.2, 0.0}};
    person.speed_mps = 0.8;
    person.material_id = body;
    site.world->add_blocker(std::move(person));

    const geom::Frame surface_pose({3.92, 2.0, 1.8}, {-1.0, 0.0, 0.0});
    const geom::Vec3 ap_position{0.4, 2.0, 2.2};
    const geom::Vec3 boresight =
        (surface_pose.origin() - ap_position).normalized();
    site.antenna = std::make_unique<em::SectorAntenna>(boresight, 35.0);

    auto os = std::make_unique<SurfOS>(&site.world->environment(),
                                       sim::TxSpec{ap_position,
                                                   site.antenna.get()},
                                       em::Band::k28GHz, budget_);
    os->install_programmable(*design, surface_pose, 8, 8,
                             site.id + "-wall");
    os->broker().add_region(
        "room", geom::SampleGrid(0.5, 3.5, 0.5, 3.5, 1.0, options_.grid_n,
                                 options_.grid_n));
    site.os = &fleet_.add_site(site.id, std::move(os));
  }
}

Daemon::Site* Daemon::find_site_entry(const std::string& site_id) {
  if (site_id.empty()) return sites_.empty() ? nullptr : &sites_.front();
  for (Site& site : sites_) {
    if (site.id == site_id) return &site;
  }
  return nullptr;
}

void Daemon::ensure_endpoint(Site& site, const std::string& endpoint_id) {
  if (endpoint_id.empty()) return;
  if (site.os->registry().find_endpoint(endpoint_id) != nullptr) return;
  const std::uint64_t h = stable_hash(endpoint_id);
  const double x = 0.6 + static_cast<double>(h % 1024) / 1023.0 * 2.8;
  const double y = 0.6 + static_cast<double>((h >> 10) % 1024) / 1023.0 * 2.8;
  site.os->register_endpoint(endpoint_id, hal::EndpointKind::kClient,
                             {x, y, 1.1});
  site.auto_endpoints.insert(endpoint_id);
  SURFOS_INFO(kLog) << "endpoint " << endpoint_id << " arrived at "
                    << site.id;
}

void Daemon::gc_endpoints(Site& site) {
  for (auto it = site.auto_endpoints.begin();
       it != site.auto_endpoints.end();) {
    // A stopped session holds no tasks, so it does not keep its endpoint;
    // resume re-registers it (handle_stop_resume).
    bool referenced = false;
    for (const auto& [app_id, session] : site.os->broker().sessions()) {
      if (session.running && session.demand.endpoint_id == *it) {
        referenced = true;
        break;
      }
    }
    // Also keep endpoints queued demands still name.
    if (!referenced) {
      for (const auto& queued : site.os->broker().admission().pending()) {
        if (queued.demand.endpoint_id == *it) {
          referenced = true;
          break;
        }
      }
    }
    if (referenced) {
      ++it;
    } else {
      SURFOS_INFO(kLog) << "endpoint " << *it << " departed from " << site.id;
      site.os->registry().remove_endpoint(*it);
      it = site.auto_endpoints.erase(it);
    }
  }
}

void Daemon::run_epoch() {
  const auto wall_start = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  // One span per serial phase, all children of surfosd.epoch; the parallel
  // phase is core.fleet.step_all's own span.
  telemetry::TraceSpan epoch_span(SURFOS_SPAN_SITE("surfosd.epoch"));
  const std::uint64_t epoch_ms =
      options_.epoch_ms != 0 ? options_.epoch_ms
                             : core::knob(core::Knob::kEpochMs);
  {
    telemetry::TraceSpan span(SURFOS_SPAN_SITE("surfosd.epoch.advance"));
    const std::uint64_t pump_max = core::knob(core::Knob::kPumpMax);
    sim_now_us_ += epoch_ms * 1000;
    for (Site& site : sites_) {
      site.os->clock().advance_to(sim_now_us_);
      // The walker's box moves in place; each cached plan's channel catches
      // up by delta in the step (SceneChannel::sync).
      if (site.world->advance_to(sim_now_us_)) ++stats_.env_rebuilds;
      site.os->broker().pump_admissions(pump_max);
    }
  }

  // Each site's kSite record is encoded on the worker that stepped it, into
  // that site's reused buffer; the serialize phase below only assembles.
  site_wire_.resize(fleet_.size());
  const FleetReport report =
      fleet_.step_all([this](std::size_t i, const SiteReport& site) {
        site_wire_[i].clear();
        proto::append_site_record(site, site_wire_[i]);
      });

  {
    telemetry::TraceSpan span(SURFOS_SPAN_SITE("surfosd.epoch.escalate_gc"));
    for (Site& site : sites_) {
      site.os->broker().escalate_unsatisfied();
      gc_endpoints(site);
    }
  }

  {
    telemetry::TraceSpan span(SURFOS_SPAN_SITE("surfosd.epoch.serialize"));
    last_report_wire_.clear();
    proto::assemble_fleet_report(report, site_wire_, last_report_wire_);
  }
  ++stats_.epochs;

  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  stats_.last_epoch_ms = wall_ms;

  // SLO watchdog: one verdict per site, from this epoch's signals.
  {
    telemetry::TraceSpan span(SURFOS_SPAN_SITE("surfosd.epoch.slo"));
    const SloThresholds thresholds = SloThresholds::from_knobs();
    latest_health_.clear();
    for (Site& site : sites_) {
      const auto& admission = site.os->broker().admission();
      SloInputs inputs;
      inputs.queue_depth = admission.depth();
      inputs.queue_capacity = admission.capacity();
      inputs.shed_total = admission.stats().shed;
      inputs.epoch_overrun = wall_ms > static_cast<double>(epoch_ms);
      latest_health_.push_back(
          watchdog_.evaluate(site.id, inputs, thresholds));
    }
  }

  // Push events to every due subscriber. Publication only enqueues into
  // bounded outboxes — a stalled reader costs this thread nothing beyond
  // the wake-pipe poke below.
  telemetry::TraceSpan span(SURFOS_SPAN_SITE("surfosd.epoch.publish"));
  SubscriptionRegistry::EpochContext ctx;
  ctx.epoch = stats_.epochs;
  if (subs_.wants(SubTopic::kMetrics)) {
    // Events carry counters and gauges only: the anchor skips histograms.
    ctx.metrics = std::make_shared<const telemetry::Snapshot>(
        telemetry::MetricsRegistry::instance().snapshot(
            telemetry::SnapshotScope::kCountersAndGauges));
  }
  ctx.epoch_ms = wall_ms;
  ctx.flush_us = report.trace.actuate_us;
  ctx.health = &latest_health_;
  std::vector<telemetry::TraceEvent> trace_events;
  if (subs_.wants(SubTopic::kTraces)) {
    trace_events = telemetry::Recorder::instance().events();
    ctx.trace_events = &trace_events;
  }
  subs_.publish(ctx);
  if (wake_pipe_[1] >= 0 && running_.load()) {
    const char byte = 'p';  // wake poll() so it registers POLLOUT interest
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
}

std::vector<SiteHealth> Daemon::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_health_;
}

// --- Request dispatch --------------------------------------------------------

proto::WireFrame Daemon::handle_request(const proto::WireFrame& request,
                                        int client_fd) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.requests;
  // Resolve the request's causal trace: client-minted id, or daemon-minted
  // for trace-less clients. Everything the handler does — broker calls,
  // flight-recorder spans — runs under this id, and the reply echoes it.
  proto::WireFrame traced = request;
  if (traced.trace_id == 0) {
    traced.trace_id = telemetry::make_trace_id(
        telemetry::trace_domain("surfosd.request"), stats_.requests);
  }
  const telemetry::TraceScope scope({traced.trace_id, 0});
  SURFOS_TRACE_SPAN("surfosd.request");

  switch (traced.type) {
    case proto::MsgType::kHello: return handle_hello(traced);
    case proto::MsgType::kSubmitDemand: return handle_submit(traced);
    case proto::MsgType::kStopApp: return handle_stop_resume(traced, false);
    case proto::MsgType::kResumeApp: return handle_stop_resume(traced, true);
    case proto::MsgType::kGetStatus: return handle_status(traced);
    case proto::MsgType::kGetMetrics: return handle_metrics(traced);
    case proto::MsgType::kStreamTraces: return handle_traces(traced);
    case proto::MsgType::kSnapshot: return handle_snapshot(traced);
    case proto::MsgType::kRestore: return handle_restore(traced);
    case proto::MsgType::kSetKnob: return handle_set_knob(traced);
    case proto::MsgType::kGetKnobs: return handle_get_knobs(traced);
    case proto::MsgType::kSubscribe:
      return handle_subscribe(traced, client_fd);
    case proto::MsgType::kUnsubscribe:
      return handle_unsubscribe(traced, client_fd);
    case proto::MsgType::kShutdown: {
      SURFOS_INFO(kLog) << "shutdown requested over the wire";
      running_.store(false);
      stop_cv_.notify_all();
      if (wake_pipe_[1] >= 0) {
        const char byte = 's';
        (void)!::write(wake_pipe_[1], &byte, 1);
      }
      return reply_frame(proto::MsgType::kOk, traced.trace_id);
    }
    default:
      return error_reply(traced.trace_id, ErrorCode::kUnknownCommand,
                         "not a request message type");
  }
}

proto::WireFrame Daemon::handle_hello(const proto::WireFrame& request) {
  HelloRequest hello;
  if (auto failed = decode_failure(request, hello)) return *failed;
  HelloAck ack;
  ack.chosen_version =
      std::min<std::uint16_t>(hello.max_version, proto::kProtoVersion);
  ack.server_name = "surfosd";
  return make_frame(request.trace_id, ack);
}

proto::WireFrame Daemon::handle_submit(const proto::WireFrame& request) {
  SubmitRequest submit;
  if (auto failed = decode_failure(request, submit)) return *failed;
  if (submit.app_id.empty() || !submit.demand) {
    return error_reply(request.trace_id, ErrorCode::kMalformedFrame,
                       "submit_demand needs app id and demand");
  }
  Site* site = find_site_entry(submit.site_id);
  if (site == nullptr) {
    return error_reply(request.trace_id, ErrorCode::kNotFound,
                       "unknown site: " + submit.site_id);
  }
  ensure_endpoint(*site, submit.demand->endpoint_id);
  std::optional<orch::Priority> priority;
  if (submit.priority) priority = static_cast<orch::Priority>(*submit.priority);
  if (auto submitted = site->os->broker().submit_demand(
          submit.app_id, std::move(*submit.demand), priority);
      !submitted.ok()) {
    return error_reply(request.trace_id, submitted.error());
  }
  return make_frame(request.trace_id,
                    SubmitAck{site->os->broker().admission().depth()});
}

proto::WireFrame Daemon::handle_stop_resume(const proto::WireFrame& request,
                                            bool resume) {
  AppRequest app;
  if (auto failed = decode_failure(request, app)) return *failed;
  if (app.app_id.empty()) {
    return error_reply(request.trace_id, ErrorCode::kMalformedFrame,
                       "stop/resume needs an app id");
  }
  Site* site = find_site_entry(app.site_id);
  if (site == nullptr) {
    return error_reply(request.trace_id, ErrorCode::kNotFound,
                       "unknown site: " + app.site_id);
  }
  broker::ServiceBroker& broker = site->os->broker();
  if (resume) {
    // The endpoint departed at the first GC after the stop; stable_hash puts
    // it back at the same position.
    if (const auto it = broker.sessions().find(app.app_id);
        it != broker.sessions().end()) {
      ensure_endpoint(*site, it->second.demand.endpoint_id);
    }
  }
  const Result<void> result =
      resume ? broker.resume_app(app.app_id) : broker.stop_app(app.app_id);
  if (!result.ok()) return error_reply(request.trace_id, result.error());
  return reply_frame(proto::MsgType::kOk, request.trace_id);
}

proto::WireFrame Daemon::handle_status(const proto::WireFrame& request) {
  AppRequest filter;
  if (auto failed = decode_failure(request, filter)) return *failed;
  StatusReply reply;
  for (Site& site : sites_) {
    if (!filter.site_id.empty() && site.id != filter.site_id) continue;
    reply.queue_depth += site.os->broker().admission().depth();
    for (const auto& [app_id, session] : site.os->broker().sessions()) {
      if (!filter.app_id.empty() && app_id != filter.app_id) continue;
      const broker::AppStatus status = site.os->broker().status(app_id);
      reply.sessions.push_back(SessionRow{app_id, site.id, session.running,
                                          session.trace_id, status.satisfied,
                                          status.tasks_total,
                                          status.tasks_met});
    }
  }
  reply.epochs = stats_.epochs;
  for (const SiteHealth& site : latest_health_) {
    if (filter.site_id.empty() || site.site_id == filter.site_id) {
      reply.health.push_back(site);
    }
  }
  reply.fleet_health = SloWatchdog::fleet_state(latest_health_);
  return make_frame(request.trace_id, reply);
}

proto::WireFrame Daemon::handle_metrics(const proto::WireFrame& request) {
  const sim::PrecomputeStore::Stats pre =
      sim::PrecomputeStore::instance().stats();
  // The reply borrows the stored report for the encoding (handle_request
  // holds mu_), so its bytes are copied once: into the payload, which the
  // server then sends behind the frame header as is.
  MetricsReply reply{std::move(last_report_wire_), stats_.epochs,
                     stats_.env_rebuilds,          stats_.last_epoch_ms,
                     stats_.requests,              pre.hits,
                     pre.misses,                   pre.bytes,
                     pre.evictions};
  proto::WireFrame frame;
  try {
    frame = make_frame(request.trace_id, reply);
  } catch (...) {
    last_report_wire_ = std::move(reply.report);
    throw;
  }
  last_report_wire_ = std::move(reply.report);
  return frame;
}

proto::WireFrame Daemon::handle_traces(const proto::WireFrame& request) {
  TracesRequest page_request;
  if (auto failed = decode_failure(request, page_request)) return *failed;
  const auto events = telemetry::Recorder::instance().events();
  const std::size_t page =
      std::clamp<std::size_t>(page_request.limit, 1, 4096);
  const auto slice = telemetry::events_after(
      events, page_request.cursor_ts, page_request.cursor_span, page);
  TraceChunk chunk;
  for (const auto& event : slice) {
    chunk.events.push_back(TraceRecord::from_event(event));
  }
  chunk.next_ts = slice.empty() ? page_request.cursor_ts : slice.back().ts_ns;
  chunk.next_span =
      slice.empty() ? page_request.cursor_span : slice.back().span_id;
  chunk.done = slice.size() < page;
  return make_frame(request.trace_id, chunk);
}

proto::WireFrame Daemon::handle_subscribe(const proto::WireFrame& request,
                                          int client_fd) {
  SubscriptionSpec spec;
  if (auto failed = decode_failure(request, spec)) return *failed;
  spec.interval = std::max<std::uint32_t>(1, spec.interval);
  const auto subscribed = subs_.subscribe(client_fd, spec);
  if (!subscribed.ok()) {
    return error_reply(request.trace_id, subscribed.error());
  }
  SURFOS_INFO(kLog) << "subscription " << subscribed.value() << " opened: "
                    << sub_topic_name(spec.topic) << " every "
                    << spec.interval << " epoch(s)";
  return make_frame(request.trace_id,
                    SubscribeAck{subscribed.value(), spec.topic,
                                 spec.interval});
}

proto::WireFrame Daemon::handle_unsubscribe(const proto::WireFrame& request,
                                            int client_fd) {
  UnsubscribeRequest unsubscribe;
  if (auto failed = decode_failure(request, unsubscribe)) return *failed;
  if (unsubscribe.sub_id == 0) {
    return error_reply(request.trace_id, ErrorCode::kMalformedFrame,
                       "unsubscribe needs a subscription id");
  }
  if (client_fd < 0) {
    return error_reply(request.trace_id, ErrorCode::kUnavailable,
                       "subscriptions need a streaming connection");
  }
  if (auto removed = subs_.unsubscribe(client_fd, unsubscribe.sub_id);
      !removed.ok()) {
    return error_reply(request.trace_id, removed.error());
  }
  return reply_frame(proto::MsgType::kOk, request.trace_id);
}

proto::WireFrame Daemon::handle_snapshot(const proto::WireFrame& request) {
  if (options_.snapshot_path.empty()) {
    return error_reply(request.trace_id, ErrorCode::kUnavailable,
                       "daemon started without a snapshot path");
  }
  DaemonSnapshot snapshot;
  snapshot.sim_now_us = sim_now_us_;
  snapshot.epochs = stats_.epochs;
  snapshot.last_report_wire = last_report_wire_;
  for (Site& site : sites_) {
    for (const auto& [app_id, session] : site.os->broker().sessions()) {
      snapshot.sessions.push_back(SessionRecord{
          site.id, app_id, session.running, session.trace_id, session.demand});
    }
    for (const auto& queued : site.os->broker().admission().pending()) {
      snapshot.queued.push_back(QueuedRecord{
          site.id, queued.app_id, static_cast<std::uint64_t>(queued.priority),
          queued.demand});
    }
    snapshot.trace_seqs.push_back(
        SeqRecord{site.id, site.os->broker().trace_seq()});
    for (const std::string& endpoint_id : site.auto_endpoints) {
      const auto* endpoint = site.os->registry().find_endpoint(endpoint_id);
      if (endpoint == nullptr) continue;
      const geom::Vec3& at = endpoint->position;
      snapshot.endpoints.push_back(
          EndpointRecord{site.id, endpoint_id,
                         static_cast<std::uint8_t>(endpoint->kind), at.x,
                         at.y, at.z});
    }
  }
  const auto saved = save_snapshot_file(snapshot, options_.snapshot_path);
  if (!saved.ok()) return error_reply(request.trace_id, saved.error());
  SURFOS_INFO(kLog) << "snapshot written to " << options_.snapshot_path
                    << " (" << snapshot.sessions.size() << " session(s), "
                    << snapshot.queued.size() << " queued)";
  return make_frame(request.trace_id,
                    SnapshotAck{options_.snapshot_path, saved.value()});
}

proto::WireFrame Daemon::handle_restore(const proto::WireFrame& request) {
  for (Site& site : sites_) {
    const broker::ServiceBroker& broker = site.os->broker();
    if (!broker.sessions().empty() || !broker.admission().empty()) {
      return error_reply(
          request.trace_id, ErrorCode::kUnavailable,
          "restore requires a fresh daemon (sessions or queued demands exist)");
    }
  }
  auto loaded = load_snapshot_file(options_.snapshot_path);
  if (!loaded.ok()) return error_reply(request.trace_id, loaded.error());
  if (auto applied = apply_snapshot(loaded.value()); !applied.ok()) {
    return error_reply(request.trace_id, applied.error());
  }
  return reply_frame(proto::MsgType::kOk, request.trace_id);
}

proto::WireFrame Daemon::handle_set_knob(const proto::WireFrame& request) {
  SetKnobRequest knob;
  if (auto failed = decode_failure(request, knob)) return *failed;
  if (knob.name.empty() || !knob.value) {
    return error_reply(request.trace_id, ErrorCode::kMalformedFrame,
                       "set-knob needs a name and a value");
  }
  if (auto set = core::set_config_knob(knob.name, *knob.value); !set.ok()) {
    return error_reply(request.trace_id, set.error());
  }
  SURFOS_INFO(kLog) << "knob " << knob.name << " set to " << *knob.value;
  return reply_frame(proto::MsgType::kOk, request.trace_id);
}

proto::WireFrame Daemon::handle_get_knobs(const proto::WireFrame& request) {
  KnobsReply reply;
  for (std::size_t i = 0; i < core::kKnobCount; ++i) {
    const core::KnobSpec& spec = core::kKnobRegistry[i];
    reply.knobs.push_back(
        KnobRow{spec.name, core::knob(static_cast<core::Knob>(i)), spec.doc});
  }
  return make_frame(request.trace_id, reply);
}

// --- Snapshot / restore ------------------------------------------------------

Result<void> Daemon::save_snapshot() {
  // Reuse the wire handler so the SIGTERM path and `surfos-ctl snapshot`
  // are byte-identical. A synthetic trace-less request keeps the flight
  // recorder's causal story honest ("snapshot requested").
  proto::WireFrame request;
  request.type = proto::MsgType::kSnapshot;
  const proto::WireFrame reply = handle_request(request);
  if (reply.type != proto::MsgType::kError) return ok_result();
  Error error;
  if (!from_wire(reply.payload, error).ok()) {
    return make_error(ErrorCode::kInternal, "snapshot failed");
  }
  return error;
}

Result<void> Daemon::load_snapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  auto loaded = load_snapshot_file(options_.snapshot_path);
  if (!loaded.ok()) return loaded.error();
  return apply_snapshot(loaded.value());
}

Result<void> Daemon::apply_snapshot(const DaemonSnapshot& snapshot) {
  // Every record is checked before anything is applied, so a refused
  // snapshot leaves the daemon as it was. Session app ids are unique per
  // site (they come from one session table) and must not name an app
  // already running here; queued demands may repeat an app id, as live
  // submits can (the pump drops the duplicate).
  std::vector<const std::string*> site_ids;
  for (const SessionRecord& r : snapshot.sessions) site_ids.push_back(&r.site_id);
  for (const QueuedRecord& r : snapshot.queued) site_ids.push_back(&r.site_id);
  for (const SeqRecord& r : snapshot.trace_seqs) site_ids.push_back(&r.site_id);
  for (const EndpointRecord& r : snapshot.endpoints) {
    site_ids.push_back(&r.site_id);
  }
  for (const std::string* site_id : site_ids) {
    if (find_site_entry(*site_id) == nullptr) {
      return make_error(ErrorCode::kNotFound,
                        "snapshot names unknown site: " + *site_id);
    }
  }
  std::set<std::pair<std::string, std::string>> session_apps;
  for (const SessionRecord& record : snapshot.sessions) {
    const auto& sessions =
        find_site_entry(record.site_id)->os->broker().sessions();
    const auto live = sessions.find(record.app_id);
    if (!session_apps.emplace(record.site_id, record.app_id).second ||
        (live != sessions.end() && live->second.running)) {
      return make_error(ErrorCode::kAlreadyExists,
                        "snapshot app " + record.app_id + " on site " +
                            record.site_id + " repeats or is running");
    }
  }

  sim_now_us_ = snapshot.sim_now_us;
  stats_.epochs = snapshot.epochs;
  last_report_wire_ = snapshot.last_report_wire;
  for (Site& site : sites_) {
    site.os->clock().advance_to(sim_now_us_);
    site.world->advance_to(sim_now_us_);
  }
  // Endpoints before sessions: a restored demand must find the endpoint it
  // names, at its original (snapshotted) position.
  for (const EndpointRecord& record : snapshot.endpoints) {
    Site* site = find_site_entry(record.site_id);
    if (site->os->registry().find_endpoint(record.endpoint_id) == nullptr) {
      site->os->register_endpoint(
          record.endpoint_id, static_cast<hal::EndpointKind>(record.kind),
          {record.x, record.y, record.z});
    }
    site->auto_endpoints.insert(record.endpoint_id);
  }
  for (const SessionRecord& record : snapshot.sessions) {
    // The checks above leave restore_session nothing to collide with.
    if (auto restored =
            find_site_entry(record.site_id)->os->broker().restore_session(
                record.app_id, record.demand, record.running,
                record.trace_id);
        !restored.ok()) {
      return restored.error();
    }
  }
  // In-flight demands go back through the weighted-fair admission queue —
  // restore never skips admission control.
  for (const QueuedRecord& record : snapshot.queued) {
    (void)find_site_entry(record.site_id)->os->broker().submit_demand(
        record.app_id, record.demand,
        static_cast<orch::Priority>(record.priority));
  }
  for (const SeqRecord& record : snapshot.trace_seqs) {
    find_site_entry(record.site_id)->os->broker().set_trace_seq(
        record.trace_seq);
  }
  SURFOS_INFO(kLog) << "restored " << snapshot.sessions.size()
                    << " session(s), " << snapshot.queued.size()
                    << " queued demand(s) at epoch " << snapshot.epochs;
  return ok_result();
}

// --- Threads / socket --------------------------------------------------------

Result<void> Daemon::start() {
  if (running_.load()) return ok_result();
  if (options_.socket_path.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "empty socket path");
  }
  if (options_.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "socket path too long: " + options_.socket_path);
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return make_error(ErrorCode::kIoError,
                      std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return make_error(ErrorCode::kIoError,
                      "bind/listen " + options_.socket_path + ": " + what);
  }
  if (::pipe(wake_pipe_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return make_error(ErrorCode::kIoError,
                      std::string("pipe: ") + std::strerror(errno));
  }
  running_.store(true);
  server_ = std::thread([this] { server_main(); });
  if (options_.ticker) {
    ticker_ = std::thread([this] { ticker_main(); });
  }
  SURFOS_INFO(kLog) << "serving on " << options_.socket_path << " ("
                    << sites_.size() << " site(s))";
  return ok_result();
}

void Daemon::stop() {
  running_.store(false);
  stop_cv_.notify_all();
  if (wake_pipe_[1] >= 0) {
    const char byte = 'q';
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
  if (ticker_.joinable()) ticker_.join();
  if (server_.joinable()) server_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

void Daemon::wait() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [this] { return !running_.load(); });
}

void Daemon::ticker_main() {
  while (running_.load()) {
    run_epoch();
    const std::uint64_t epoch_ms =
        options_.epoch_ms != 0 ? options_.epoch_ms
                               : core::knob(core::Knob::kEpochMs);
    std::unique_lock<std::mutex> lock(stop_mu_);
    stop_cv_.wait_for(lock, std::chrono::milliseconds(epoch_ms),
                      [this] { return !running_.load(); });
  }
}

bool Daemon::service_connection(int fd, std::vector<std::uint8_t>& buffer) {
  std::uint8_t chunk[4096];
  const ssize_t n = ::read(fd, chunk, sizeof chunk);
  if (n < 0) {
    // Sockets are non-blocking: a spurious wakeup is not a dead peer.
    return errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK;
  }
  if (n == 0) return false;  // closed peer
  buffer.insert(buffer.end(), chunk, chunk + n);
  while (true) {
    const proto::FrameDecode decode = proto::try_decode_frame(buffer);
    if (decode.consumed == 0 && !decode.error) return true;  // need more
    if (decode.error) {
      // Malformed / oversized / wrong-version frame: answer with a proper
      // error reply, then close — the stream offset is no longer trusted.
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.malformed;
      }
      if (subs_.enqueue_reply(fd, error_reply(0, *decode.error))) {
        (void)subs_.flush_to_fd(fd);  // best effort before the close
      }
      return false;
    }
    buffer.erase(buffer.begin(),
                 buffer.begin() + static_cast<std::ptrdiff_t>(decode.consumed));
    // Replies ride the same per-connection outbox as pushed events (order
    // preserved), the payload moved in behind its header; whatever the
    // socket does not take now goes out on the next POLLOUT.
    if (!subs_.enqueue_reply(fd, handle_request(*decode.frame, fd))) {
      return false;
    }
    if (!subs_.flush_to_fd(fd)) return false;
    if (buffer.empty()) return true;
  }
}

void Daemon::server_main() {
  std::map<int, std::vector<std::uint8_t>> connections;
  while (running_.load()) {
    std::vector<pollfd> fds;
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& [fd, buffer] : connections) {
      short events = POLLIN;
      if (subs_.has_output(fd)) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents & POLLIN) {
      char drain[16];
      (void)!::read(wake_pipe_[0], drain, sizeof drain);
      continue;  // running_ re-checked; POLLOUT interest recomputed
    }
    if (fds[1].revents & POLLIN) {
      const int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client >= 0) {
        // Non-blocking from birth: the ticker must never be able to stall
        // behind a slow reader, and neither may this thread.
        if (const int flags = ::fcntl(client, F_GETFL, 0); flags >= 0) {
          (void)::fcntl(client, F_SETFL, flags | O_NONBLOCK);
        }
        connections.emplace(client, std::vector<std::uint8_t>());
        subs_.add_connection(client);
      }
    }
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      bool alive = true;
      if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
        alive = service_connection(fd, connections[fd]);
      }
      if (alive && (fds[i].revents & POLLOUT)) {
        alive = subs_.flush_to_fd(fd);
      }
      if (!alive) {
        ::close(fd);
        connections.erase(fd);
        subs_.drop_connection(fd);
      }
    }
  }
  for (const auto& [fd, buffer] : connections) {
    ::close(fd);
    subs_.drop_connection(fd);
  }
}

DaemonStats Daemon::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<std::uint8_t> Daemon::last_report_wire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_report_wire_;
}

}  // namespace surfos::daemon
