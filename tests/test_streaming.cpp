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
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "broker/demand.hpp"
#include "core/config.hpp"
#include "daemon/client.hpp"
#include "daemon/daemon.hpp"
#include "daemon/messages.hpp"
#include "daemon/slo.hpp"
#include "daemon/subscription.hpp"
#include "daemon/tags.hpp"
#include "proto/serialize.hpp"
#include "proto/wire.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/trace.hpp"

#include "daemon_test_util.hpp"

namespace surfos::daemon {
namespace {

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

/// Publishes one epoch whose metrics snapshot is `snap`, as the daemon's
/// run_epoch does.
void publish_epoch(SubscriptionRegistry& registry, std::uint64_t epoch,
                   telemetry::Snapshot snap, double epoch_ms = 1.0,
                   double flush_us = 0.0) {
  SubscriptionRegistry::EpochContext ctx;
  ctx.epoch = epoch;
  ctx.metrics = std::make_shared<const telemetry::Snapshot>(std::move(snap));
  ctx.epoch_ms = epoch_ms;
  ctx.flush_us = flush_us;
  registry.publish(ctx);
}

/// Opens a metrics subscription on a fake fd (take_output never touches it).
void subscribe_metrics(SubscriptionRegistry& registry, int fd,
                       std::uint32_t interval = 1) {
  registry.add_connection(fd);
  SubscriptionSpec spec;
  spec.topic = SubTopic::kMetrics;
  spec.interval = interval;
  ASSERT_TRUE(registry.subscribe(fd, spec).ok());
}

Event parse_event(const proto::WireFrame& frame) {
  EXPECT_EQ(frame.type, proto::MsgType::kEvent);
  Event event;
  EXPECT_TRUE(from_wire(frame.payload, event).ok());
  return event;
}

/// An event's counters keyed by name.
std::map<std::string, std::uint64_t> counters_of(const Event& event) {
  std::map<std::string, std::uint64_t> counters;
  for (const auto& c : event.counters) counters[c.name] = c.value;
  return counters;
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

  for (std::uint64_t epoch = 1; epoch <= 7; ++epoch) {
    publish_epoch(registry, epoch,
                  make_snapshot({{"a.ticks", epoch}, {"b.steady", 5}}),
                  /*epoch_ms=*/1.0, /*flush_us=*/10.0);
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
  EXPECT_EQ(counters_of(events[0]).at("a.ticks"), 1u);
  EXPECT_FALSE(events[1].baseline);
  EXPECT_EQ(events[1].counters.size(), 1u);
  EXPECT_EQ(counters_of(events[1]).at("a.ticks"), 4u);
  EXPECT_EQ(counters_of(events[2]).count("b.steady"), 0u);
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

  publish_epoch(registry, 1,
                make_snapshot({{"broker.queued", 3}, {"hal.writes", 9}}));

  const auto events = parse_frames(registry.take_output(7));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].counters.size(), 1u);
  EXPECT_EQ(counters_of(events[0]).count("hal.writes"), 1u);
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
  for (std::uint64_t epoch = 1; epoch <= 10; ++epoch) {
    publish_epoch(registry, epoch, make_snapshot({{"a.ticks", epoch}}));
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

TEST_F(StreamingTest, DeltaCarriesOnlyChangedCountersAndGauges) {
  SubscriptionRegistry registry;
  subscribe_metrics(registry, 7);
  publish_epoch(registry, 1,
                make_snapshot({{"ts.a", 1}, {"ts.b", 5}}, {{"ts.g", 0.5}}),
                /*epoch_ms=*/2.0, /*flush_us=*/10.0);
  publish_epoch(registry, 2,
                make_snapshot({{"ts.a", 3}, {"ts.b", 5}}, {{"ts.g", 0.5}}),
                /*epoch_ms=*/3.0, /*flush_us=*/20.0);
  publish_epoch(registry, 3,
                make_snapshot({{"ts.a", 3}, {"ts.b", 5}}, {{"ts.g", 0.75}}));

  const auto events = parse_frames(registry.take_output(7));
  ASSERT_EQ(events.size(), 3u);
  // First event: a baseline with every counter and gauge.
  EXPECT_TRUE(events[0].baseline);
  EXPECT_EQ(events[0].counters.size(), 2u);
  EXPECT_EQ(events[0].gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].epoch_ms, 2.0);
  EXPECT_DOUBLE_EQ(events[0].flush_us, 10.0);
  // Only ts.a changed; the steady counter and gauge are elided.
  EXPECT_FALSE(events[1].baseline);
  ASSERT_EQ(events[1].counters.size(), 1u);
  EXPECT_EQ(events[1].counters[0].name, "ts.a");
  EXPECT_EQ(events[1].counters[0].value, 3u);
  EXPECT_TRUE(events[1].gauges.empty());
  EXPECT_DOUBLE_EQ(events[1].epoch_ms, 3.0);
  EXPECT_DOUBLE_EQ(events[1].flush_us, 20.0);
  // Only the gauge moved.
  EXPECT_FALSE(events[2].baseline);
  EXPECT_TRUE(events[2].counters.empty());
  ASSERT_EQ(events[2].gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(events[2].gauges[0].value, 0.75);
}

TEST_F(StreamingTest, GaugesCompareByBitPattern) {
  SubscriptionRegistry registry;
  subscribe_metrics(registry, 7);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  publish_epoch(registry, 1, make_snapshot({{"ts.a", 1}}, {{"ts.g", nan}}));
  publish_epoch(registry, 2, make_snapshot({{"ts.a", 1}}, {{"ts.g", nan}}));
  publish_epoch(registry, 3, make_snapshot({{"ts.a", 1}}, {{"ts.g", 0.75}}));

  const auto events = parse_frames(registry.take_output(7));
  ASSERT_EQ(events.size(), 3u);
  ASSERT_EQ(events[0].gauges.size(), 1u);
  // NaN != NaN by value, yet a NaN gauge that stays NaN is unchanged.
  EXPECT_FALSE(events[1].baseline);
  EXPECT_TRUE(events[1].gauges.empty());
  // NaN to 0.75 is a change.
  ASSERT_EQ(events[2].gauges.size(), 1u);
  EXPECT_EQ(events[2].gauges[0].name, "ts.g");
  EXPECT_DOUBLE_EQ(events[2].gauges[0].value, 0.75);
}

TEST_F(StreamingTest, DropForcesBaseline) {
  core::install_config(core::Config());
  ASSERT_TRUE(core::set_config_knob("SURFOS_SUB_OUTBOX", 2).ok());

  SubscriptionRegistry registry;
  subscribe_metrics(registry, 7);
  const auto snap = [](std::uint64_t epoch) {
    return make_snapshot({{"a.ticks", epoch}, {"b.steady", 5}});
  };
  // Epochs 1-3 are never drained: epoch 3's enqueue drops epoch 1's event.
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    publish_epoch(registry, epoch, snap(epoch));
  }
  EXPECT_EQ(registry.stats().dropped, 1u);
  (void)registry.take_output(7);

  // The subscriber missed an event, so the next one resyncs it with every
  // counter — the steady one included — and the one after is a delta again.
  publish_epoch(registry, 4, snap(4));
  publish_epoch(registry, 5, snap(5));
  const auto events = parse_frames(registry.take_output(7));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[0].baseline);
  EXPECT_EQ(counters_of(events[0]).at("b.steady"), 5u);
  EXPECT_EQ(counters_of(events[0]).at("a.ticks"), 4u);
  EXPECT_FALSE(events[1].baseline);
  EXPECT_EQ(counters_of(events[1]),
            (std::map<std::string, std::uint64_t>{{"a.ticks", 5}}));
}

TEST_F(StreamingTest, EachSubscriptionDiffsAgainstItsOwnAnchor) {
  // Three subscriptions on one connection, published in id order: the
  // interval-2 one sits between two interval-1 ones that share an anchor.
  SubscriptionRegistry registry;
  registry.add_connection(7);
  for (const std::uint32_t interval : {1u, 2u, 1u}) {
    SubscriptionSpec spec;
    spec.topic = SubTopic::kMetrics;
    spec.interval = interval;
    ASSERT_TRUE(registry.subscribe(7, spec).ok());
  }
  // "a" moves every epoch; "b" only at epoch 2.
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    publish_epoch(registry, epoch,
                  make_snapshot({{"a", epoch}, {"b", epoch >= 2 ? 2 : 1}}));
  }

  std::map<std::uint64_t, std::vector<Event>> by_sub;
  for (Event& event : parse_frames(registry.take_output(7))) {
    by_sub[event.sub_id].push_back(std::move(event));
  }
  ASSERT_EQ(by_sub.size(), 3u);
  const std::map<std::string, std::uint64_t> since_epoch_2{{"a", 3}};
  const std::map<std::string, std::uint64_t> since_epoch_1{{"a", 3}, {"b", 2}};
  for (const auto& [id, events] : by_sub) {
    const Event& last = events.back();
    EXPECT_EQ(last.epoch, 3u);
    EXPECT_FALSE(last.baseline);
    EXPECT_EQ(counters_of(last), events.size() == 2 ? since_epoch_1
                                                    : since_epoch_2)
        << "subscription " << id;
  }
}

TEST_F(StreamingTest, LongIntervalSubscriptionGetsDeltas) {
  // An interval longer than any history the daemon could keep: the anchor
  // is the snapshot last sent, so every event after the first is a delta.
  SubscriptionRegistry registry;
  subscribe_metrics(registry, 7, /*interval=*/600);
  for (std::uint64_t epoch = 1; epoch <= 1201; ++epoch) {
    publish_epoch(registry, epoch,
                  make_snapshot({{"a.ticks", epoch}, {"b.steady", 5}}));
  }

  const auto events = parse_frames(registry.take_output(7));
  ASSERT_EQ(events.size(), 3u);  // due at epochs 1, 601, 1201
  EXPECT_EQ(events[1].epoch, 601u);
  EXPECT_EQ(events[2].epoch, 1201u);
  EXPECT_TRUE(events[0].baseline);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_FALSE(events[i].baseline) << "event " << i;
    EXPECT_EQ(counters_of(events[i]),
              (std::map<std::string, std::uint64_t>{
                  {"a.ticks", events[i].epoch}}))
        << "event " << i;
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
  bool alive = true;
  std::uint64_t epoch = 0;
  while (registry.stats().dropped == 0 && epoch < 5000) {
    ++epoch;
    publish_epoch(registry, epoch, make_snapshot({{"a.ticks", epoch}}));
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
  return proto::to_wire(SubmitRequest{
      app_id, {},
      broker::demand_profile(broker::AppClass::kFileTransfer, "ep_" + app_id),
      {}});
}

TEST_F(StreamingTest, ArqRetrySignalReachesTheWatchdogThroughRunEpoch) {
  // The watchdog's ARQ signal is the per-epoch delta of the registry's
  // hal.arq counters. A 100 s budget keeps overruns out of the verdicts.
  DaemonOptions options = test_options(temp_path("arq"));
  options.sites = 2;
  options.epoch_ms = 100000;
  Daemon daemon(options);
  daemon.run_epoch();  // baseline: absorbs counts earlier tests left behind
  auto& metrics = telemetry::MetricsRegistry::instance();
  metrics.counter("hal.arq.sends").add(10);
  metrics.counter("hal.arq.retransmissions").add(5);

  daemon.run_epoch();
  std::vector<SiteHealth> health = daemon.health();
  ASSERT_EQ(health.size(), 2u);
  for (const SiteHealth& site : health) {
    EXPECT_EQ(site.state, SloState::kDegraded) << site.site_id;
    EXPECT_EQ(site.reason, "arq retry 5/10 sends") << site.site_id;
  }

  // No new retries: every site recovers.
  daemon.run_epoch();
  health = daemon.health();
  ASSERT_EQ(health.size(), 2u);
  for (const SiteHealth& site : health) {
    EXPECT_EQ(site.state, SloState::kHealthy) << site.site_id;
  }
}

TEST_F(StreamingTest, SocketSubscriberReceivesEventsAtTheRequestedInterval) {
  const std::string socket_path = temp_path("sub");
  Daemon daemon(test_options(socket_path));
  ASSERT_TRUE(daemon.start().ok());

  auto connected = Client::connect(socket_path);
  ASSERT_TRUE(connected.ok());
  Client client = std::move(connected.value());

  SubscriptionSpec spec;
  spec.topic = SubTopic::kMetrics;
  spec.interval = 2;
  const auto ack = client.request<SubscribeAck>(proto::MsgType::kSubscribe,
                                                proto::to_wire(spec));
  ASSERT_TRUE(ack.ok());
  const std::uint64_t sub_id = ack.value().sub_id;
  EXPECT_NE(sub_id, 0u);
  EXPECT_EQ(ack.value().topic, SubTopic::kMetrics);
  EXPECT_EQ(ack.value().interval, 2u);

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
  EXPECT_TRUE(client
                  .request<void>(proto::MsgType::kUnsubscribe,
                                 proto::to_wire(UnsubscribeRequest{sub_id}))
                  .ok());
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
    ASSERT_EQ(daemon
                  .handle_request(make_request(
                      proto::MsgType::kSetKnob, 1,
                      proto::to_wire(SetKnobRequest{knob, value})))
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
  StatusReply reply;
  ASSERT_TRUE(from_wire(status.payload, reply).ok());
  EXPECT_EQ(reply.fleet_health, SloState::kDegraded);
  EXPECT_FALSE(reply.health.empty());
}

TEST_F(StreamingTest, TraceCursorPaginationDrainsWithoutDuplicates) {
  telemetry::set_trace_enabled(true);  // flight recorder is off by default
  const std::string socket_path = temp_path("cursor");
  Daemon daemon(test_options(socket_path));
  // Enough epochs that the recorder holds several 16-event pages.
  for (int i = 0; i < 12; ++i) daemon.run_epoch();

  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  TracesRequest request;
  request.limit = 16;
  std::uint64_t last_ts = 0, last_span = 0;
  bool done = false;
  int pages = 0;
  while (!done && pages < 1000) {
    ++pages;
    const auto reply = daemon.handle_request(make_request(
        proto::MsgType::kStreamTraces, 0, proto::to_wire(request)));
    ASSERT_EQ(reply.type, proto::MsgType::kTraceChunk);
    TraceChunk chunk;
    ASSERT_TRUE(from_wire(reply.payload, chunk).ok());
    for (const TraceRecord& event : chunk.events) {
      // Strictly advancing (ts, span) order means no duplicates and no
      // torn pages, even though new events keep arriving between pages.
      EXPECT_TRUE(std::make_pair(event.ts_ns, event.span_id) >
                  std::make_pair(last_ts, last_span));
      last_ts = event.ts_ns;
      last_span = event.span_id;
      EXPECT_TRUE(seen.emplace(event.ts_ns, event.span_id).second);
    }
    request.cursor_ts = chunk.next_ts;
    request.cursor_span = chunk.next_span;
    done = chunk.done;
  }
  EXPECT_TRUE(done);
  EXPECT_GT(seen.size(), 16u);  // really paginated, not a one-shot

  // A request without cursor tags gets the first page: cursor 0, limit 512.
  // (Its own request span is recorded only after the reply is built.)
  const std::size_t buffered = telemetry::Recorder::instance().events().size();
  const auto first =
      daemon.handle_request(make_request(proto::MsgType::kStreamTraces, 0));
  ASSERT_EQ(first.type, proto::MsgType::kTraceChunk);
  TraceChunk first_chunk;
  ASSERT_TRUE(from_wire(first.payload, first_chunk).ok());
  EXPECT_EQ(first_chunk.events.size(), std::min<std::size_t>(buffered, 512));
  EXPECT_EQ(first_chunk.done, buffered < 512);
  // The page starts at the oldest buffered event.
  ASSERT_FALSE(first_chunk.events.empty());
  EXPECT_EQ(std::make_pair(first_chunk.events[0].ts_ns,
                           first_chunk.events[0].span_id),
            *seen.begin());
  telemetry::set_trace_enabled(false);
}

TEST_F(StreamingTest, SubscribeValidationOverTheWire) {
  const std::string socket_path = temp_path("val");
  Daemon daemon(test_options(socket_path));

  // In-process requests have no streaming connection to attach to.
  SubscriptionSpec good;
  good.topic = SubTopic::kMetrics;
  EXPECT_EQ(error_code_of(daemon.handle_request(make_request(
                proto::MsgType::kSubscribe, 1, proto::to_wire(good)))),
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
