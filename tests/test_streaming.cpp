// Streaming observability plane: subscription registry semantics (interval
// due-ness, delta anchors, the bounded drop-oldest outbox with exact
// accounting), the SLO watchdog state machine, cursor-paginated trace
// streaming, and the daemon-level drill — a socket subscriber receiving
// pushed kEvent frames from hand-driven epochs, and a saturated admission
// queue flipping a site to kDegraded within three epochs.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "broker/demand.hpp"
#include "core/config.hpp"
#include "daemon/client.hpp"
#include "daemon/daemon.hpp"
#include "daemon/slo.hpp"
#include "daemon/subscription.hpp"
#include "daemon/tags.hpp"
#include "proto/serialize.hpp"
#include "proto/wire.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/trace.hpp"

namespace surfos::daemon {
namespace {

std::string temp_path(const char* stem) {
  static int counter = 0;
  return "/tmp/ss_" + std::to_string(::getpid()) + "_" + stem +
         std::to_string(++counter) + ".sock";
}

DaemonOptions test_options(const std::string& socket) {
  DaemonOptions options;
  options.socket_path = socket;
  options.epoch_ms = 20;
  options.ticker = false;  // epochs driven by hand
  options.grid_n = 2;
  return options;
}

/// Hand-built sorted snapshot: the counters a test wants this "epoch".
telemetry::Snapshot make_snapshot(
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    const std::vector<std::pair<std::string, double>>& gauges = {}) {
  telemetry::Snapshot snap;
  for (const auto& [name, value] : counters) {
    snap.counters.push_back({name, value, true});
  }
  for (const auto& [name, value] : gauges) {
    snap.gauges.push_back({name, value});
  }
  return snap;
}

/// Everything a decoded kEvent frame carries, flattened for assertions.
struct Event {
  std::uint64_t sub_id = 0;
  std::uint8_t topic = 0;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  std::uint64_t dropped = 0;
  bool baseline = false;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::size_t trace_events = 0;
  std::vector<SiteHealth> health;
};

Event parse_event(const proto::WireFrame& frame) {
  EXPECT_EQ(frame.type, proto::MsgType::kEvent);
  Event ev;
  proto::TlvReader r(frame.payload);
  while (const auto tlv = r.next()) {
    switch (tlv->tag) {
      case tag::kSubId: ev.sub_id = proto::tlv_u64(*tlv).value_or(0); break;
      case tag::kSubTopic: ev.topic = proto::tlv_u8(*tlv).value_or(0); break;
      case tag::kEventEpoch:
        ev.epoch = proto::tlv_u64(*tlv).value_or(0);
        break;
      case tag::kEventSeq: ev.seq = proto::tlv_u64(*tlv).value_or(0); break;
      case tag::kDroppedEvents:
        ev.dropped = proto::tlv_u64(*tlv).value_or(0);
        break;
      case tag::kEventBaseline:
        ev.baseline = proto::tlv_u8(*tlv).value_or(0) != 0;
        break;
      case tag::kEventTrace: ++ev.trace_events; break;
      case tag::kEventCounter:
      case tag::kEventGauge: {
        std::string name;
        std::uint64_t u64 = 0;
        double f64 = 0.0;
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
        if (tlv->tag == tag::kEventCounter) {
          ev.counters[name] = u64;
        } else {
          ev.gauges[name] = f64;
        }
        break;
      }
      case tag::kEventSiteHealth: {
        SiteHealth site;
        proto::TlvReader n(tlv->value);
        while (const auto field = n.next()) {
          if (field->tag == tag::kHealthSite) {
            site.site_id = proto::tlv_string(*field);
          } else if (field->tag == tag::kHealthState) {
            site.state =
                static_cast<SloState>(proto::tlv_u8(*field).value_or(0));
          } else if (field->tag == tag::kHealthEpochs) {
            site.epochs_in_state = proto::tlv_u64(*field).value_or(0);
          } else if (field->tag == tag::kHealthReason) {
            site.reason = proto::tlv_string(*field);
          }
        }
        ev.health.push_back(std::move(site));
        break;
      }
      default: break;
    }
  }
  return ev;
}

std::vector<Event> parse_frames(
    const std::vector<std::vector<std::uint8_t>>& frames) {
  std::vector<Event> events;
  for (const auto& bytes : frames) {
    const proto::FrameDecode decode = proto::try_decode_frame(bytes);
    EXPECT_TRUE(decode.frame.has_value());
    if (decode.frame) events.push_back(parse_event(*decode.frame));
  }
  return events;
}

class StreamingTest : public ::testing::Test {
 protected:
  void TearDown() override { core::clear_config(); }
};

// --- SubscriptionRegistry ----------------------------------------------------

TEST_F(StreamingTest, RegistryPublishesDeltasAtTheRequestedInterval) {
  SubscriptionRegistry registry;
  registry.add_connection(7);  // take_output never touches the fd
  SubscriptionSpec spec;
  spec.topic = SubTopic::kMetrics;
  spec.interval = 3;
  const auto sub = registry.subscribe(7, spec);
  ASSERT_TRUE(sub.ok());

  telemetry::Timeseries series(16);
  for (std::uint64_t epoch = 1; epoch <= 7; ++epoch) {
    series.record(epoch,
                  make_snapshot({{"a.ticks", epoch}, {"b.steady", 5}}),
                  /*epoch_ms=*/1.0, /*flush_us=*/10.0);
    SubscriptionRegistry::EpochContext ctx;
    ctx.epoch = epoch;
    ctx.series = &series;
    registry.publish(ctx);
  }

  const auto events = parse_frames(registry.take_output(7));
  ASSERT_EQ(events.size(), 3u);  // due at epochs 1, 4, 7
  EXPECT_EQ(events[0].epoch, 1u);
  EXPECT_EQ(events[1].epoch, 4u);
  EXPECT_EQ(events[2].epoch, 7u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[2].seq, 3u);

  // First event: full baseline, both counters. Later events: deltas with
  // only the counter that changed since the anchor.
  EXPECT_TRUE(events[0].baseline);
  EXPECT_EQ(events[0].counters.size(), 2u);
  EXPECT_EQ(events[0].counters.at("a.ticks"), 1u);
  EXPECT_FALSE(events[1].baseline);
  EXPECT_EQ(events[1].counters.size(), 1u);
  EXPECT_EQ(events[1].counters.at("a.ticks"), 4u);
  EXPECT_EQ(events[2].counters.count("b.steady"), 0u);
  EXPECT_EQ(registry.stats().published, 3u);
  EXPECT_EQ(registry.stats().dropped, 0u);
}

TEST_F(StreamingTest, RegistryPrefixFilterNarrowsMetrics) {
  SubscriptionRegistry registry;
  registry.add_connection(7);
  SubscriptionSpec spec;
  spec.topic = SubTopic::kMetrics;
  spec.prefix = "hal.";
  ASSERT_TRUE(registry.subscribe(7, spec).ok());

  telemetry::Timeseries series(8);
  series.record(1, make_snapshot({{"broker.queued", 3}, {"hal.writes", 9}}),
                1.0, 0.0);
  SubscriptionRegistry::EpochContext ctx;
  ctx.epoch = 1;
  ctx.series = &series;
  registry.publish(ctx);

  const auto events = parse_frames(registry.take_output(7));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].counters.size(), 1u);
  EXPECT_EQ(events[0].counters.count("hal.writes"), 1u);
}

TEST_F(StreamingTest, DropOldestAccountingIsExact) {
  core::install_config(core::Config());
  ASSERT_TRUE(core::set_config_knob("SURFOS_SUB_OUTBOX", 4).ok());

  SubscriptionRegistry registry;
  registry.add_connection(9);
  SubscriptionSpec spec;
  spec.topic = SubTopic::kMetrics;
  ASSERT_TRUE(registry.subscribe(9, spec).ok());

  // Ten epochs, never flushed: a 4-frame outbox keeps the newest 4 events
  // and drops exactly 6 — and every publish is enqueue-only, so a stalled
  // reader costs the publisher nothing.
  telemetry::Timeseries series(16);
  for (std::uint64_t epoch = 1; epoch <= 10; ++epoch) {
    series.record(epoch, make_snapshot({{"a.ticks", epoch}}), 1.0, 0.0);
    SubscriptionRegistry::EpochContext ctx;
    ctx.epoch = epoch;
    ctx.series = &series;
    registry.publish(ctx);
  }

  const SubscriptionStats stats = registry.stats();
  EXPECT_EQ(stats.published, 10u);
  EXPECT_EQ(stats.dropped, 6u);

  const auto events = parse_frames(registry.take_output(9));
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].epoch, 7 + i);  // newest four survive
    EXPECT_EQ(events[i].seq, 7 + i);    // seq counts published, not delivered
    // Every drop forces the next event back to a full baseline, so a
    // subscriber that missed deltas can always resync from what it gets.
    EXPECT_TRUE(events[i].baseline);
  }
  // The drop counter is cumulative and monotone across the stream.
  EXPECT_EQ(events.back().dropped, 5u);  // drops before the last encode
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].dropped, events[i - 1].dropped);
  }
}

TEST_F(StreamingTest, StalledSocketSubscriberDropsWithoutKillingConnection) {
  core::install_config(core::Config());
  ASSERT_TRUE(core::set_config_knob("SURFOS_SUB_OUTBOX", 2).ok());

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_EQ(::fcntl(sv[0], F_SETFL, O_NONBLOCK), 0);
  const int sndbuf = 4096;  // small kernel buffer: stalls fast
  ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);

  SubscriptionRegistry registry;
  registry.add_connection(sv[0]);
  SubscriptionSpec spec;
  spec.topic = SubTopic::kMetrics;
  ASSERT_TRUE(registry.subscribe(sv[0], spec).ok());

  // The peer (sv[1]) never reads. Publish + flush until the kernel buffer
  // and the 2-frame outbox both fill and drops begin; EAGAIN must be
  // treated as "slow", never as "dead".
  telemetry::Timeseries series(8);
  bool alive = true;
  std::uint64_t epoch = 0;
  while (registry.stats().dropped == 0 && epoch < 5000) {
    ++epoch;
    series.record(epoch, make_snapshot({{"a.ticks", epoch}}), 1.0, 0.0);
    SubscriptionRegistry::EpochContext ctx;
    ctx.epoch = epoch;
    ctx.series = &series;
    registry.publish(ctx);
    alive = registry.flush_to_fd(sv[0]);
    ASSERT_TRUE(alive) << "EAGAIN misread as a dead peer at epoch " << epoch;
  }
  EXPECT_GT(registry.stats().dropped, 0u);
  EXPECT_EQ(registry.stats().published, epoch);

  // The peer wakes up and reads: the stream resumes with a baseline.
  ASSERT_EQ(::fcntl(sv[1], F_SETFL, O_NONBLOCK), 0);  // drain, don't wait
  std::uint8_t sink[65536];
  while (::read(sv[1], sink, sizeof sink) > 0) {
  }
  EXPECT_TRUE(registry.flush_to_fd(sv[0]));
  registry.drop_connection(sv[0]);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST_F(StreamingTest, SubscribeRequiresAStreamingConnection) {
  SubscriptionRegistry registry;
  SubscriptionSpec spec;
  EXPECT_EQ(registry.subscribe(42, spec).error().code,
            ErrorCode::kUnavailable);
  registry.add_connection(42);
  const auto sub = registry.subscribe(42, spec);
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(registry.unsubscribe(42, sub.value()).ok());
  EXPECT_EQ(registry.unsubscribe(42, sub.value()).error().code,
            ErrorCode::kNotFound);
}

// --- SLO watchdog ------------------------------------------------------------

TEST_F(StreamingTest, WatchdogClassifiesAndRecovers) {
  SloWatchdog watchdog;
  SloThresholds thresholds;  // defaults: streak 3, queue 80%, retry 30%, shed 1

  SloInputs calm;
  calm.queue_depth = 1;
  calm.queue_capacity = 16;
  EXPECT_EQ(watchdog.evaluate("site0", calm, thresholds).state,
            SloState::kHealthy);

  // Queue at 90% of capacity: degraded immediately, with the cause named.
  SloInputs saturated = calm;
  saturated.queue_depth = 15;
  const SiteHealth degraded = watchdog.evaluate("site0", saturated, thresholds);
  EXPECT_EQ(degraded.state, SloState::kDegraded);
  EXPECT_NE(degraded.reason.find("queue"), std::string::npos);

  // Sustained saturation (2x the overrun-streak threshold of bad epochs)
  // escalates to unhealthy; recovery drops straight back to healthy.
  SiteHealth latest = degraded;
  for (int i = 0; i < 6; ++i) {
    latest = watchdog.evaluate("site0", saturated, thresholds);
  }
  EXPECT_EQ(latest.state, SloState::kUnhealthy);
  EXPECT_EQ(watchdog.evaluate("site0", calm, thresholds).state,
            SloState::kHealthy);

  // Cumulative counters are differenced internally: a one-epoch shed burst
  // degrades, the next epoch with no NEW sheds is healthy again.
  SloInputs shed = calm;
  shed.shed_total = 3;
  EXPECT_EQ(watchdog.evaluate("s1", calm, thresholds).state,
            SloState::kHealthy);
  EXPECT_EQ(watchdog.evaluate("s1", shed, thresholds).state,
            SloState::kDegraded);
  EXPECT_EQ(watchdog.evaluate("s1", shed, thresholds).state,
            SloState::kHealthy);

  // ARQ retry rate: 50% of this epoch's sends retried >= 30% threshold.
  SloInputs retries = calm;
  retries.arq_send_total = 100;
  retries.arq_retry_total = 2;
  EXPECT_EQ(watchdog.evaluate("s2", retries, thresholds).state,
            SloState::kHealthy);
  retries.arq_send_total = 200;
  retries.arq_retry_total = 52;
  const SiteHealth arq = watchdog.evaluate("s2", retries, thresholds);
  EXPECT_EQ(arq.state, SloState::kDegraded);
  EXPECT_NE(arq.reason.find("arq"), std::string::npos);

  // Epoch overruns only degrade as a STREAK (transient spikes are fine).
  SloInputs overrun = calm;
  overrun.epoch_overrun = true;
  EXPECT_EQ(watchdog.evaluate("s3", overrun, thresholds).state,
            SloState::kHealthy);
  EXPECT_EQ(watchdog.evaluate("s3", overrun, thresholds).state,
            SloState::kHealthy);
  const SiteHealth streak = watchdog.evaluate("s3", overrun, thresholds);
  EXPECT_EQ(streak.state, SloState::kDegraded);
  EXPECT_NE(streak.reason.find("overrun"), std::string::npos);

  EXPECT_EQ(SloWatchdog::fleet_state({}), SloState::kHealthy);
  EXPECT_EQ(SloWatchdog::fleet_state({degraded, streak}), SloState::kDegraded);
}

// --- Daemon integration ------------------------------------------------------

std::vector<std::uint8_t> submit_payload(const std::string& app_id) {
  std::vector<std::uint8_t> payload;
  proto::TlvWriter w(payload);
  w.put_string(tag::kAppId, app_id);
  w.put_bytes(tag::kDemand,
              proto::to_wire(broker::demand_profile(
                  broker::AppClass::kFileTransfer, "ep_" + app_id)));
  return payload;
}

proto::WireFrame make_request(proto::MsgType type, std::uint64_t trace_id,
                              std::vector<std::uint8_t> payload = {}) {
  proto::WireFrame frame;
  frame.type = type;
  frame.trace_id = trace_id;
  frame.payload = std::move(payload);
  return frame;
}

TEST_F(StreamingTest, SocketSubscriberReceivesEventsAtTheRequestedInterval) {
  const std::string socket_path = temp_path("sub");
  Daemon daemon(test_options(socket_path));
  ASSERT_TRUE(daemon.start().ok());

  auto connected = Client::connect(socket_path);
  ASSERT_TRUE(connected.ok());
  Client client = std::move(connected.value());

  std::vector<std::uint8_t> payload;
  proto::TlvWriter w(payload);
  w.put_u8(tag::kSubTopic, static_cast<std::uint8_t>(SubTopic::kMetrics));
  w.put_u32(tag::kSubInterval, 2);
  const auto ack = client.call(proto::MsgType::kSubscribe, payload);
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack.value().type, proto::MsgType::kSubscribeAck);
  std::uint64_t sub_id = 0;
  {
    proto::TlvReader r(ack.value().payload);
    while (const auto tlv = r.next()) {
      if (tlv->tag == tag::kSubId) sub_id = proto::tlv_u64(*tlv).value_or(0);
    }
  }
  EXPECT_NE(sub_id, 0u);

  // Interval 2: epochs 1 and 3 publish, epoch 2 is skipped. The server
  // thread flushes after each hand-driven epoch (wake-pipe poke), so a
  // blocking recv() is all the synchronization the test needs.
  daemon.run_epoch();
  daemon.run_epoch();
  daemon.run_epoch();

  auto first = client.recv();
  ASSERT_TRUE(first.ok());
  const Event ev1 = parse_event(first.value());
  EXPECT_EQ(ev1.sub_id, sub_id);
  EXPECT_EQ(ev1.epoch, 1u);
  EXPECT_EQ(ev1.seq, 1u);
  EXPECT_TRUE(ev1.baseline);
  EXPECT_FALSE(ev1.counters.empty());  // full snapshot on first contact

  auto second = client.recv();
  ASSERT_TRUE(second.ok());
  const Event ev2 = parse_event(second.value());
  EXPECT_EQ(ev2.epoch, 3u);
  EXPECT_EQ(ev2.seq, 2u);
  EXPECT_FALSE(ev2.baseline);  // delta against the epoch-1 anchor

  // Control requests still round-trip on the subscribed connection:
  // call() skips any interleaved kEvent frames.
  daemon.run_epoch();  // epoch 4 is not due (next due epoch is 5)
  daemon.run_epoch();  // epoch 5 publishes
  const auto status = client.call(proto::MsgType::kGetStatus, {});
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().type, proto::MsgType::kStatusReply);

  // Unsubscribe stops the stream.
  std::vector<std::uint8_t> unsub;
  proto::TlvWriter uw(unsub);
  uw.put_u64(tag::kSubId, sub_id);
  const auto bye = client.call(proto::MsgType::kUnsubscribe, unsub);
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(bye.value().type, proto::MsgType::kOk);
  EXPECT_EQ(daemon.subscription_stats().subscriptions, 0u);
  daemon.stop();
}

TEST_F(StreamingTest, SloFlipsDegradedWithinThreeEpochsOfQueueSaturation) {
  core::install_config(core::Config());
  const std::string socket_path = temp_path("slo");
  Daemon daemon(test_options(socket_path));

  // Watch the health topic through the registry directly (no socket needed
  // for publication semantics — take_output drains the outbox).
  daemon.subscriptions().add_connection(77);
  SubscriptionSpec health_spec;
  health_spec.topic = SubTopic::kHealth;
  ASSERT_TRUE(daemon.subscriptions().subscribe(77, health_spec).ok());

  // Induce the overload with knobs, as an operator would: a 10-deep
  // admission queue that only drains one demand per epoch.
  for (const auto& [knob, value] :
       std::vector<std::pair<std::string, std::uint64_t>>{
           {"SURFOS_ADMIT_QUEUE", 10}, {"SURFOS_PUMP_MAX", 1}}) {
    std::vector<std::uint8_t> payload;
    proto::TlvWriter w(payload);
    w.put_string(tag::kKnobName, knob);
    w.put_u64(tag::kKnobValue, value);
    ASSERT_EQ(daemon
                  .handle_request(
                      make_request(proto::MsgType::kSetKnob, 1, payload))
                  .type,
              proto::MsgType::kOk);
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(daemon
                  .handle_request(make_request(
                      proto::MsgType::kSubmitDemand, 2,
                      submit_payload("bulk" + std::to_string(i))))
                  .type,
              proto::MsgType::kOk);
  }

  // Queue sits at 9/10 after the first pump: >= 80% must flip the site to
  // kDegraded within three epochs of the saturation.
  bool degraded = false;
  std::string reason;
  for (int epoch = 0; epoch < 3 && !degraded; ++epoch) {
    daemon.run_epoch();
    for (const SiteHealth& site : daemon.health()) {
      if (site.state == SloState::kDegraded) {
        degraded = true;
        reason = site.reason;
      }
    }
  }
  EXPECT_TRUE(degraded);
  EXPECT_NE(reason.find("queue"), std::string::npos) << reason;

  // The verdict reaches both consumers: the health topic stream...
  const auto events = parse_frames(daemon.subscriptions().take_output(77));
  ASSERT_FALSE(events.empty());
  bool streamed = false;
  for (const Event& event : events) {
    for (const SiteHealth& site : event.health) {
      if (site.state == SloState::kDegraded) streamed = true;
    }
  }
  EXPECT_TRUE(streamed);

  // ...and the kStatusReply summary.
  const auto status =
      daemon.handle_request(make_request(proto::MsgType::kGetStatus, 3));
  ASSERT_EQ(status.type, proto::MsgType::kStatusReply);
  std::uint8_t fleet = 0;
  std::size_t site_rows = 0;
  proto::TlvReader r(status.payload);
  while (const auto tlv = r.next()) {
    if (tlv->tag == tag::kFleetHealth) {
      fleet = proto::tlv_u8(*tlv).value_or(0);
    }
    if (tlv->tag == tag::kSiteHealth) ++site_rows;
  }
  EXPECT_EQ(static_cast<SloState>(fleet), SloState::kDegraded);
  EXPECT_GT(site_rows, 0u);
}

TEST_F(StreamingTest, TraceCursorPaginationDrainsWithoutDuplicates) {
  telemetry::set_trace_enabled(true);  // flight recorder is off by default
  const std::string socket_path = temp_path("cursor");
  Daemon daemon(test_options(socket_path));
  // Enough epochs that the recorder holds several 16-event pages.
  for (int i = 0; i < 12; ++i) daemon.run_epoch();

  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  std::uint64_t cursor_ts = 0, cursor_span = 0;
  std::uint64_t last_ts = 0, last_span = 0;
  bool done = false;
  int pages = 0;
  while (!done && pages < 1000) {
    ++pages;
    std::vector<std::uint8_t> payload;
    proto::TlvWriter w(payload);
    w.put_u64(tag::kTraceCursorTs, cursor_ts);
    w.put_u64(tag::kTraceCursorSpan, cursor_span);
    w.put_u32(tag::kTraceLimit, 16);
    const auto reply = daemon.handle_request(
        make_request(proto::MsgType::kStreamTraces, 0, payload));
    ASSERT_EQ(reply.type, proto::MsgType::kTraceChunk);
    proto::TlvReader r(reply.payload);
    while (const auto tlv = r.next()) {
      switch (tlv->tag) {
        case tag::kTraceEvent: {
          std::uint64_t ts = 0, span = 0;
          proto::TlvReader n(tlv->value);
          while (const auto field = n.next()) {
            if (field->tag == tag::kEvTs) {
              ts = proto::tlv_u64(*field).value_or(0);
            } else if (field->tag == tag::kEvSpan) {
              span = proto::tlv_u64(*field).value_or(0);
            }
          }
          // Strictly advancing (ts, span) order means no duplicates and no
          // torn pages, even though new events keep arriving between pages.
          EXPECT_TRUE(std::make_pair(ts, span) >
                      std::make_pair(last_ts, last_span));
          last_ts = ts;
          last_span = span;
          EXPECT_TRUE(seen.emplace(ts, span).second);
          break;
        }
        case tag::kTraceNextTs:
          cursor_ts = proto::tlv_u64(*tlv).value_or(0);
          break;
        case tag::kTraceNextSpan:
          cursor_span = proto::tlv_u64(*tlv).value_or(0);
          break;
        case tag::kTraceDone:
          done = proto::tlv_u8(*tlv).value_or(0) != 0;
          break;
        default: break;
      }
    }
  }
  EXPECT_TRUE(done);
  EXPECT_GT(seen.size(), 16u);  // really paginated, not a one-shot

  // A request without cursor tags gets the first page: cursor 0, limit 512.
  // (Its own request span is recorded only after the reply is built.)
  const std::size_t buffered = telemetry::Recorder::instance().events().size();
  const auto first =
      daemon.handle_request(make_request(proto::MsgType::kStreamTraces, 0));
  ASSERT_EQ(first.type, proto::MsgType::kTraceChunk);
  std::size_t first_events = 0;
  std::optional<bool> first_done;
  std::pair<std::uint64_t, std::uint64_t> first_key{0, 0};
  proto::TlvReader fr(first.payload);
  while (const auto tlv = fr.next()) {
    if (tlv->tag == tag::kTraceEvent) {
      std::uint64_t ts = 0, span = 0;
      proto::TlvReader n(tlv->value);
      while (const auto field = n.next()) {
        if (field->tag == tag::kEvTs) ts = proto::tlv_u64(*field).value_or(0);
        if (field->tag == tag::kEvSpan) {
          span = proto::tlv_u64(*field).value_or(0);
        }
      }
      if (first_events++ == 0) first_key = {ts, span};
    }
    if (tlv->tag == tag::kTraceDone) {
      first_done = proto::tlv_u8(*tlv).value_or(0) != 0;
    }
  }
  EXPECT_EQ(first_events, std::min<std::size_t>(buffered, 512));
  ASSERT_TRUE(first_done.has_value());
  EXPECT_EQ(*first_done, buffered < 512);
  // The page starts at the oldest buffered event.
  EXPECT_EQ(first_key, *seen.begin());
  telemetry::set_trace_enabled(false);
}

TEST_F(StreamingTest, SubscribeValidationOverTheWire) {
  const std::string socket_path = temp_path("val");
  Daemon daemon(test_options(socket_path));

  const auto error_code_of = [](const proto::WireFrame& reply) {
    EXPECT_EQ(reply.type, proto::MsgType::kError);
    proto::TlvReader r(reply.payload);
    while (const auto tlv = r.next()) {
      if (tlv->tag == tag::kErrorCode) {
        return static_cast<ErrorCode>(proto::tlv_u32(*tlv).value_or(0));
      }
    }
    return ErrorCode::kOk;
  };

  // In-process requests have no streaming connection to attach to.
  std::vector<std::uint8_t> good;
  proto::TlvWriter w(good);
  w.put_u8(tag::kSubTopic, static_cast<std::uint8_t>(SubTopic::kMetrics));
  EXPECT_EQ(error_code_of(daemon.handle_request(
                make_request(proto::MsgType::kSubscribe, 1, good))),
            ErrorCode::kUnavailable);

  // Unknown topic: malformed, regardless of transport.
  std::vector<std::uint8_t> bad;
  proto::TlvWriter b(bad);
  b.put_u8(tag::kSubTopic, 200);
  EXPECT_EQ(error_code_of(daemon.handle_request(
                make_request(proto::MsgType::kSubscribe, 2, bad))),
            ErrorCode::kMalformedFrame);
}

}  // namespace
}  // namespace surfos::daemon
