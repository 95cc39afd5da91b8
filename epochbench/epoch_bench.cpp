// epoch_bench: surfosd's control epoch, end to end and layer by layer.
//
// Drives Daemon::run_epoch() in-process (no socket, no ticker thread) with a
// closed-loop client that talks to the daemon through handle_request(), the
// dispatch the Unix-socket server uses. surfosd serves requests and runs
// epochs under one mutex, so each iteration times the client's requests for
// that epoch together with the epoch itself.
//
// The traffic follows configurations the repository already runs:
//
//   fleet    bench_fleet's 100 sites and its demand mix without sensing
//            (connectivity 4, powering 2, security 2; see kMix), two live
//            sessions per site.
//   epoch    the daemon's default SURFOS_EPOCH_MS (20 ms), as bench_daemon
//            and bench_streaming use. At that length the daemon's walker
//            (0.8 m/s, 5 cm rebuild threshold) rebuilds every site's world
//            every fourth epoch, in both workloads.
//
//   churn    bench_fleet's Poisson arrival rate (5000 requests over 40
//            epochs, 125 per epoch fleet-wide): each arrival replaces the
//            oldest app at a site under a fresh endpoint, as bench_fleet
//            stops an app once it is served. Admission, translation, delta
//            (RX rebase) precompute, endpoint GC.
//   observe  steady sessions, watched as surfos-top watches them (metrics,
//            traces and health subscriptions at interval 1) while
//            surfos-status polls metrics and fleet status every epoch, as
//            bench_daemon's jitter loop polls status: serialization,
//            publication, request dispatch.
//
//   epoch_bench --workload churn|observe --seed N --seconds S --trace 0|1
//
// Inputs (which slot runs which app class, endpoint names and so their
// positions, the arrival stream) come from --seed; a run cycles its daemons
// through three such layouts. The last stdout line is one JSON object:
// end-to-end metrics with --trace 0, the per-layer breakdown with --trace 1
// (span histogram and counter deltas over the measured epochs, per epoch).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "broker/demand.hpp"
#include "daemon/daemon.hpp"
#include "daemon/tags.hpp"
#include "proto/serialize.hpp"
#include "sim/precompute_store.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

using namespace surfos;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// bench_fleet's fleet size.
constexpr std::size_t kSites = 100;
/// Live sessions per site. bench_fleet's stream brings 1.25 apps per site
/// per epoch and stops each once its configs apply, an epoch or two later.
constexpr std::size_t kAppsPerSite = 2;
/// bench_fleet's Poisson phase: 5000 requests over 40 control epochs.
constexpr double kArrivalsPerEpoch = 5000.0 / 40.0;

/// bench_fleet's demand mix (class, weight out of 10) without its sensing
/// share (smart-home, weight 2). bench_fleet affords sensing only by cutting
/// the sensing scan from 121 to 21 bins, which surfosd does not expose; at
/// 121 bins the 40 sensing apps of this fleet make a rebuild epoch take
/// 0.5-1.3 s instead of about 40 ms.
constexpr struct {
  broker::AppClass app_class;
  int weight;
} kMix[] = {
    {broker::AppClass::kVideoStreaming, 4},    // connectivity
    {broker::AppClass::kWirelessCharging, 2},  // powering
    {broker::AppClass::kSensitiveData, 2},     // security
};

broker::AppClass pick_class(util::Rng& rng) {
  int total = 0;
  for (const auto& m : kMix) total += m.weight;
  auto draw = static_cast<int>(rng.below(static_cast<std::uint64_t>(total)));
  for (const auto& m : kMix) {
    draw -= m.weight;
    if (draw < 0) return m.app_class;
  }
  return kMix[0].app_class;
}

struct Workload {
  const char* name;
  bool arrivals;  ///< bench_fleet's arrival stream.
  bool observe;   ///< surfos-top subscriptions + surfos-status polls.
  /// Epochs one daemon serves before a fresh one replaces it. A replaced
  /// app leaves its old tasks idle in the orchestrator for good, so a daemon
  /// under churn slows as it ages; a fixed lifetime keeps the measured work
  /// the same however many epochs a run fits, and gives setup_s several
  /// samples per run.
  std::size_t epochs_per_daemon;
};

constexpr Workload kWorkloads[] = {
    {"churn", true, false, 100},
    {"observe", false, true, 200},
};

/// The daemon's default epoch length, SURFOS_EPOCH_MS.
constexpr double kEpochBudgetMs = 20.0;

/// Session layouts a run cycles its daemons through, so that one run
/// averages over several and the seed sets less of the result.
constexpr std::size_t kLayouts = 3;

/// Epochs after the initial admissions before timing starts: lets
/// escalations settle and the precompute store fill.
constexpr int kWarmEpochs = 12;

std::string site_name(std::size_t s) { return "site" + std::to_string(s); }
std::string app_name(std::size_t s, std::size_t k) {
  return "app-" + std::to_string(s) + "-" + std::to_string(k);
}

/// One app slot: its demand class and its current endpoint generation.
struct Slot {
  broker::AppClass app_class = broker::AppClass::kVideoStreaming;
  std::uint64_t generation = 0;
};

/// The fleet's app slots, as the seed lays them out.
struct Inputs {
  std::uint64_t seed = 0;
  std::vector<std::vector<Slot>> slots;  ///< [site][slot]

  std::string endpoint(std::size_t s, std::size_t k) const {
    // Endpoint names set their in-room position (the daemon hashes them),
    // so the seed moves every endpoint.
    char buf[80];
    std::snprintf(buf, sizeof buf, "ep-%llx-%zu-%zu-%llu",
                  static_cast<unsigned long long>(seed), s, k,
                  static_cast<unsigned long long>(slots[s][k].generation));
    return buf;
  }
};

/// Lays the mix out over every slot in proportion to its weights, then lets
/// the seed shuffle which slot gets which class.
Inputs make_inputs(std::uint64_t seed) {
  std::vector<broker::AppClass> classes;
  while (classes.size() < kSites * kAppsPerSite) {
    for (const auto& m : kMix) {
      for (int i = 0; i < m.weight; ++i) classes.push_back(m.app_class);
    }
  }
  classes.resize(kSites * kAppsPerSite);
  util::Rng rng(seed);
  for (std::size_t i = classes.size(); i > 1; --i) {
    std::swap(classes[i - 1], classes[rng.below(i)]);
  }
  Inputs in;
  in.seed = seed;
  in.slots.resize(kSites);
  for (std::size_t s = 0; s < kSites; ++s) {
    in.slots[s].resize(kAppsPerSite);
    for (std::size_t k = 0; k < kAppsPerSite; ++k) {
      in.slots[s][k].app_class = classes[s * kAppsPerSite + k];
    }
  }
  return in;
}

/// bench_fleet's open-loop Poisson process: exponential interarrivals at a
/// fixed rate per epoch, each arrival at a uniformly drawn site.
class ArrivalStream {
 public:
  explicit ArrivalStream(std::uint64_t seed) : rng_(seed) { next(); }

  /// Sites of the arrivals due in the next epoch. The stream runs on across
  /// the daemons a run starts.
  std::vector<std::size_t> next_epoch() {
    ++epoch_;
    std::vector<std::size_t> sites;
    while (t_ < static_cast<double>(epoch_)) {
      sites.push_back(site_);
      next();
    }
    return sites;
  }

  broker::AppClass pick() { return pick_class(rng_); }

 private:
  void next() {
    double u = rng_.uniform();
    while (u <= 0.0) u = rng_.uniform();
    t_ += -std::log(u) / kArrivalsPerEpoch;
    site_ = static_cast<std::size_t>(rng_.below(kSites));
  }

  util::Rng rng_;
  double t_ = 0.0;
  std::size_t site_ = 0;
  std::uint64_t epoch_ = 0;
};

// --- Client ------------------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(std::string what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
};

/// A fleet status reply: sessions listed, and which of them run.
struct StatusView {
  std::size_t sessions = 0;
  std::size_t running = 0;
  std::map<std::pair<std::string, std::string>, bool> by_app;  ///< site, app
};

/// Closed-loop client over Daemon::handle_request; a reply that is an error
/// or echoes the wrong trace id counts as a failed operation.
class Client {
 public:
  Client(daemon::Daemon& d, Tally& tally) : daemon_(d), tally_(tally) {}

  proto::WireFrame call(proto::MsgType type, std::vector<std::uint8_t> payload,
                        int fd = -1) {
    proto::WireFrame request;
    request.type = type;
    request.trace_id = ++next_trace_;
    request.payload = std::move(payload);
    proto::WireFrame reply = daemon_.handle_request(request, fd);
    ++calls;
    ++tally_.attempted;
    if (reply.type == proto::MsgType::kError ||
        reply.trace_id != request.trace_id) {
      std::string message;
      proto::TlvReader r(reply.payload);
      while (const auto tlv = r.next()) {
        if (tlv->tag == daemon::tag::kErrorMessage) {
          message = proto::tlv_string(*tlv);
        }
      }
      tally_.fail("request type " +
                  std::to_string(static_cast<int>(type)) + ": " + message);
    }
    return reply;
  }

  void submit(const Inputs& in, std::size_t s, std::size_t k) {
    std::vector<std::uint8_t> payload;
    proto::TlvWriter w(payload);
    w.put_string(daemon::tag::kAppId, app_name(s, k));
    w.put_string(daemon::tag::kSiteId, site_name(s));
    w.put_bytes(daemon::tag::kDemand,
                proto::to_wire(broker::demand_profile(in.slots[s][k].app_class,
                                                      in.endpoint(s, k))));
    call(proto::MsgType::kSubmitDemand, std::move(payload));
  }

  void stop(std::size_t s, std::size_t k) {
    std::vector<std::uint8_t> payload;
    proto::TlvWriter w(payload);
    w.put_string(daemon::tag::kAppId, app_name(s, k));
    w.put_string(daemon::tag::kSiteId, site_name(s));
    call(proto::MsgType::kStopApp, std::move(payload));
  }

  /// Fleet-wide status, as surfos-status asks for it.
  StatusView status() {
    const proto::WireFrame reply = call(proto::MsgType::kGetStatus, {});
    StatusView view;
    proto::TlvReader r(reply.payload);
    while (const auto tlv = r.next()) {
      if (tlv->tag != daemon::tag::kSession) continue;
      ++view.sessions;
      std::string site, app;
      bool running = false;
      proto::TlvReader n(tlv->value);
      while (const auto field = n.next()) {
        if (field->tag == daemon::tag::kSessionApp) {
          app = proto::tlv_string(*field);
        } else if (field->tag == daemon::tag::kSessionSite) {
          site = proto::tlv_string(*field);
        } else if (field->tag == daemon::tag::kSessionRunning) {
          running = proto::tlv_u8(*field).value_or(0) == 1;
        }
      }
      view.running += running ? 1 : 0;
      view.by_app[{site, app}] = running;
    }
    return view;
  }

  std::size_t calls = 0;

 private:
  daemon::Daemon& daemon_;
  Tally& tally_;
  std::uint64_t next_trace_ = 0;
};

// --- Reports -----------------------------------------------------------------

void strip_timings(orch::StepTrace& trace) {
  trace.schedule_us = trace.optimize_us = trace.actuate_us = 0.0;
  trace.measure_us = trace.total_us = 0.0;
}

/// Decodes a served FleetReport into `report` and returns it re-encoded with
/// its wall-clock fields zeroed: what must be byte-identical between two
/// daemons fed the same inputs.
std::vector<std::uint8_t> report_fingerprint(
    const std::vector<std::uint8_t>& wire, FleetReport& report, Tally& tally) {
  report = FleetReport{};
  if (!proto::from_wire(wire, report).ok()) {
    tally.fail("FleetReport does not decode");
    return {};
  }
  FleetReport stripped = report;
  strip_timings(stripped.trace);
  for (SiteReport& site : stripped.sites) strip_timings(site.step.trace);
  return proto::to_wire(stripped);
}

// --- Layer probes ------------------------------------------------------------

/// Span histogram sums (microseconds) and counter values at one instant.
struct Probe {
  std::map<std::string, double> span_us;
  std::map<std::string, double> counters;

  static Probe take() {
    Probe p;
    const auto snap = telemetry::MetricsRegistry::instance().snapshot();
    for (const auto& h : snap.histograms) p.span_us[h.name] = h.sum;
    for (const auto& c : snap.counters) {
      p.counters[c.name] = static_cast<double>(c.value);
    }
    return p;
  }
};

/// Adds `after - before`, name by name, into `into`.
void add_delta(std::map<std::string, double>& into,
               const std::map<std::string, double>& before,
               const std::map<std::string, double>& after) {
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    into[name] += value - (it == before.end() ? 0.0 : it->second);
  }
}

// --- One daemon's lifetime ---------------------------------------------------

/// What a run accumulates over the daemons it starts.
struct Run {
  std::vector<double> setup_s;
  std::vector<double> epoch_ms;  ///< Client requests + run_epoch, per epoch.
  /// Per layout, the report its first daemon served after warm-up.
  std::vector<std::vector<std::uint8_t>> fingerprints =
      std::vector<std::vector<std::uint8_t>>(kLayouts);
  std::map<std::string, double> span_us;  ///< Over measured epochs only.
  std::map<std::string, double> counts;
  double report_bytes = 0.0;
  double requests = 0.0;
  std::size_t rebuild_epochs = 0;
  std::size_t over_budget_epochs = 0;  ///< run_epoch() longer than the epoch.
  std::uint64_t next_generation = 0;  ///< Endpoint names never repeat.
};

/// Starts a fresh daemon (cold precompute store, as in a new process), admits
/// the next layout's sessions and warms it up; this is what setup_s times.
/// Then serves w.epochs_per_daemon measured epochs, or fewer at the deadline.
void serve(const Workload& w, const std::vector<Inputs>& layouts,
           ArrivalStream& arrivals, Clock::time_point deadline, Run& run,
           Tally& tally) {
  const std::size_t layout = run.setup_s.size() % kLayouts;
  const Inputs& initial = layouts[layout];
  sim::PrecomputeStore::instance().clear();
  const auto t0 = Clock::now();
  daemon::DaemonOptions options;
  options.sites = kSites;
  options.grid_n = 3;
  options.epoch_ms = 0;  // the daemon's default epoch length
  options.ticker = false;
  daemon::Daemon d(options);
  Client client(d, tally);
  for (std::size_t s = 0; s < kSites; ++s) {
    for (std::size_t k = 0; k < kAppsPerSite; ++k) {
      client.submit(initial, s, k);
    }
  }
  for (int e = 0; e < kWarmEpochs; ++e) d.run_epoch();
  const StatusView warm = client.status();
  run.setup_s.push_back(seconds_since(t0));
  if (warm.sessions != kSites * kAppsPerSite || warm.running != warm.sessions) {
    tally.fail("setup: " + std::to_string(warm.running) + "/" +
               std::to_string(warm.sessions) + " sessions running");
  }

  // Every daemon fed the same inputs serves the same report.
  FleetReport report;
  std::vector<std::uint8_t> fingerprint =
      report_fingerprint(d.last_report_wire(), report, tally);
  std::vector<std::uint8_t>& first = run.fingerprints[layout];
  if (first.empty()) {
    first = std::move(fingerprint);
  } else if (fingerprint != first) {
    tally.fail("setup: FleetReport differs from the first daemon's");
  }

  // Observe: surfos-top's connection, subscribed as it subscribes.
  constexpr int kSubscriberFd = 1 << 20;  // never a real descriptor
  std::map<std::uint64_t, std::uint64_t> last_seq;  // sub id -> seq
  std::map<std::uint64_t, bool> gap_checked;  // metrics/health: every epoch
  if (w.observe) {
    d.subscriptions().add_connection(kSubscriberFd);
    for (const daemon::SubTopic topic :
         {daemon::SubTopic::kMetrics, daemon::SubTopic::kTraces,
          daemon::SubTopic::kHealth}) {
      std::vector<std::uint8_t> payload;
      proto::TlvWriter pw(payload);
      pw.put_u8(daemon::tag::kSubTopic, static_cast<std::uint8_t>(topic));
      pw.put_u32(daemon::tag::kSubInterval, 1);
      const proto::WireFrame ack = client.call(
          proto::MsgType::kSubscribe, std::move(payload), kSubscriberFd);
      proto::TlvReader r(ack.payload);
      while (const auto tlv = r.next()) {
        if (tlv->tag == daemon::tag::kSubId) {
          const std::uint64_t id = proto::tlv_u64(*tlv).value_or(0);
          last_seq[id] = 0;
          gap_checked[id] = topic != daemon::SubTopic::kTraces;
        }
      }
    }
  }

  Inputs in = initial;
  // Per site, slots from the longest-lived app to the newest; an arrival
  // replaces the front one. Arrivals beyond kAppsPerSite in one epoch wait
  // for the next, so no app is replaced before it was admitted.
  std::vector<std::deque<std::size_t>> age(kSites);
  for (auto& slots : age) {
    for (std::size_t k = 0; k < kAppsPerSite; ++k) slots.push_back(k);
  }
  std::vector<std::size_t> waiting;  // sites of carried-over arrivals
  client.calls = 0;
  std::uint64_t rebuilds_seen = d.stats().env_rebuilds;
  std::size_t rebuild_epochs = 0;
  std::size_t epochs = 0;
  const Probe before = Probe::take();

  while (epochs < w.epochs_per_daemon && Clock::now() < deadline) {
    const auto e0 = Clock::now();
    // The client's requests for this epoch. An arriving app takes the
    // site's oldest slot: fresh endpoint, class from the mix.
    std::vector<std::pair<std::size_t, std::size_t>> replaced;
    if (w.arrivals) {
      std::vector<std::size_t> sites = std::move(waiting);
      waiting.clear();
      const std::vector<std::size_t> fresh = arrivals.next_epoch();
      sites.insert(sites.end(), fresh.begin(), fresh.end());
      std::vector<std::size_t> taken(kSites, 0);
      for (const std::size_t s : sites) {
        if (taken[s] == kAppsPerSite) {
          waiting.push_back(s);
          continue;
        }
        ++taken[s];
        const std::size_t k = age[s].front();
        age[s].pop_front();
        age[s].push_back(k);
        client.stop(s, k);
        Slot& slot = in.slots[s][k];
        slot.generation = ++run.next_generation;
        slot.app_class = arrivals.pick();
        client.submit(in, s, k);
        replaced.emplace_back(s, k);
      }
    }
    if (w.observe) {
      const proto::WireFrame metrics =
          client.call(proto::MsgType::kGetMetrics, {});
      const std::vector<std::uint8_t> last = d.last_report_wire();
      proto::TlvReader r(metrics.payload);
      bool same = false;
      while (const auto tlv = r.next()) {
        if (tlv->tag == daemon::tag::kReport) {
          same = std::equal(tlv->value.begin(), tlv->value.end(),
                            last.begin(), last.end());
        }
      }
      if (!same) tally.fail("get_metrics: report differs from the daemon's");
      const StatusView view = client.status();
      if (view.running != kSites * kAppsPerSite ||
          view.sessions != view.running) {
        tally.fail("observe: sessions not all running");
      }
    }
    const auto r0 = Clock::now();
    d.run_epoch();
    // The daemon's SLO watchdog counts an overrun the same way.
    if (seconds_since(r0) * 1e3 > kEpochBudgetMs) run.over_budget_epochs += 1;
    // The arriving apps' clients poll status to see them served, as
    // bench_fleet checks its sessions every epoch.
    const StatusView served =
        replaced.empty() ? StatusView{} : client.status();
    run.epoch_ms.push_back(seconds_since(e0) * 1e3);
    ++epochs;
    ++tally.attempted;

    // Check what the epoch produced.
    const std::vector<std::uint8_t> wire = d.last_report_wire();
    run.report_bytes += static_cast<double>(wire.size());
    (void)report_fingerprint(wire, report, tally);
    if (report.sites.size() != kSites) tally.fail("report: wrong site count");
    if (report.total_starved != 0) tally.fail("report: starved tasks");
    // All sites share the walker's track, so they rebuild together or not
    // at all.
    const std::uint64_t rebuilt = d.stats().env_rebuilds - rebuilds_seen;
    rebuilds_seen += rebuilt;
    if (rebuilt == kSites) {
      ++rebuild_epochs;
    } else if (rebuilt != 0) {
      tally.fail("world: only some sites rebuilt");
    }
    // Every arriving app runs after the epoch that admitted it.
    for (const auto& [s, k] : replaced) {
      const auto it = served.by_app.find({site_name(s), app_name(s, k)});
      if (it == served.by_app.end() || !it->second) {
        tally.fail("arrival: " + app_name(s, k) + " not running");
      }
    }
    if (w.observe) {
      for (const auto& bytes : d.subscriptions().take_output(kSubscriberFd)) {
        const proto::FrameDecode decoded = proto::try_decode_frame(bytes);
        if (!decoded.frame || decoded.frame->type != proto::MsgType::kEvent) {
          tally.fail("observe: undecodable event frame");
          continue;
        }
        std::uint64_t sub = 0, seq = 0, dropped = 0;
        proto::TlvReader r(decoded.frame->payload);
        while (const auto tlv = r.next()) {
          const std::uint64_t v = proto::tlv_u64(*tlv).value_or(0);
          if (tlv->tag == daemon::tag::kSubId) sub = v;
          if (tlv->tag == daemon::tag::kEventSeq) seq = v;
          if (tlv->tag == daemon::tag::kDroppedEvents) dropped = v;
        }
        const auto it = last_seq.find(sub);
        if (it == last_seq.end() || seq != it->second + 1 || dropped != 0) {
          tally.fail("observe: event stream gap");
        } else {
          it->second = seq;
        }
      }
    }
  }

  const Probe after = Probe::take();
  add_delta(run.span_us, before.span_us, after.span_us);
  add_delta(run.counts, before.counters, after.counters);
  run.requests += static_cast<double>(client.calls);
  run.rebuild_epochs += rebuild_epochs;
  // At 20 ms the walker moves 1.6 cm an epoch, so the world rebuilds every
  // fourth epoch (a little less often where the walker turns round).
  if (epochs >= 40 &&
      (rebuild_epochs * 5 < epochs || rebuild_epochs * 3 > epochs)) {
    tally.fail("world: rebuilt in " + std::to_string(rebuild_epochs) +
               " of " + std::to_string(epochs) + " epochs");
  }
  for (const auto& [sub, seq] : last_seq) {
    if (gap_checked[sub] && seq != epochs) {
      tally.fail("observe: missing events");
    }
  }
}

// --- Output ------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: epoch_bench --workload churn|observe --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::string(value) == "1";
    } else {
      return usage();
    }
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) found = &w;
  }
  if (found == nullptr || seconds <= 0.0) return usage();
  const Workload& w = *found;

  std::vector<Inputs> layouts;
  for (std::size_t i = 0; i < kLayouts; ++i) {
    layouts.push_back(make_inputs(seed * kLayouts + i));
  }
  ArrivalStream arrivals(seed ^ 0x9e3779b97f4a7c15ull);
  Tally tally;
  Run run;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    serve(w, layouts, arrivals, deadline, run, tally);
  } while (Clock::now() < deadline);

  const bool correct = tally.failed == 0 && !run.epoch_ms.empty();
  for (const std::string& e : tally.errors) {
    std::fprintf(stderr, "epoch_bench: %s\n", e.c_str());
  }
  std::fprintf(stderr,
               "epoch_bench: %s seed %llu: %zu epochs over %zu daemons, %.0f "
               "requests; host %u cores, %s kernels, %s build\n",
               w.name, static_cast<unsigned long long>(seed),
               run.epoch_ms.size(), run.setup_s.size(), run.requests,
               std::thread::hardware_concurrency(),
               util::simd::backend_name(util::simd::active_backend()),
               EPOCHBENCH_BUILD_TYPE);

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"epoch_p50_ms", quantile(run.epoch_ms, 0.50), "ms"},
        {"epoch_p90_ms", quantile(run.epoch_ms, 0.90), "ms"},
        {"setup_s", quantile(run.setup_s, 0.50), "s"},
    };
  } else {
    // Per-epoch layer costs. Span sums add thread time across pool workers.
    const auto epochs = static_cast<double>(run.epoch_ms.size());
    const auto span = [&](const char* name) {
      return run.span_us[name] / epochs;
    };
    const auto count = [&](const char* name) {
      return run.counts[name] / epochs;
    };
    double epoch_sum_ms = 0.0;
    for (const double ms : run.epoch_ms) epoch_sum_ms += ms;
    const double epoch_mean_us = epoch_sum_ms * 1e3 / epochs;
    metrics = {
        {"epochs", epochs, "count"},
        {"epoch_mean_us", epoch_mean_us, "us"},
        {"request_us", span("surfosd.request"), "us"},
        {"step_all_us", span("core.fleet.step_all"), "us"},
        {"outside_step_us",
         epoch_mean_us - span("surfosd.request") -
             span("core.fleet.step_all"),
         "us"},
        {"orch_step_us", span("orch.step"), "us"},
        {"schedule_us", span("orch.step.schedule"), "us"},
        // Full and delta (RX rebase) precompute: disjoint spans while the
        // precompute store is on, as it is by default.
        {"precompute_us",
         span("sim.channel.precompute") + span("sim.channel.rebase_rx"), "us"},
        {"optimize_us", span("orch.step.optimize"), "us"},
        {"actuate_us", span("orch.step.actuate"), "us"},
        {"flush_us", span("orch.step.flush"), "us"},
        {"measure_us", span("orch.step.measure"), "us"},
        {"rebuild_share", static_cast<double>(run.rebuild_epochs) / epochs,
         "ratio"},
        {"over_budget_share",
         static_cast<double>(run.over_budget_epochs) / epochs, "ratio"},
        {"plans_fresh", count("orch.plan.fresh"), "count"},
        {"plans_reused", count("orch.plan.reused"), "count"},
        {"plans_rebased", count("orch.plan.rebased"), "count"},
        {"precompute_hits", count("sim.precompute.hits"), "count"},
        {"precompute_misses", count("sim.precompute.misses"), "count"},
        {"rebase_rows_filled", count("sim.channel.rebase_rows_filled"),
         "count"},
        {"objective_evals", count("opt.objective.evaluations"), "count"},
        {"hal_transactions", count("hal.batch.transactions"), "count"},
        {"apps_started", count("broker.apps.started"), "count"},
        {"escalations", count("broker.escalations"), "count"},
        {"events_published", count("daemon.subs.published_events"), "count"},
        {"report_bytes", run.report_bytes / epochs, "bytes"},
        {"requests_per_epoch", run.requests / epochs, "count"},
    };
  }
  print_result(correct, tally, metrics);
  return 0;
}
