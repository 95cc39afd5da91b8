// Telemetry subsystem: instrument semantics, span nesting, exporters, and
// the contract the rest of the system relies on — counter snapshots
// bit-identical under any SURFOS_THREADS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/surfos.hpp"
#include "sim/floorplan.hpp"
#include "sim/precompute_store.hpp"
#include "surface/catalog.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace surfos {
namespace {

using telemetry::MetricsRegistry;

/// Every test starts from a zeroed registry and leaves it zeroed for
/// whoever runs next in this binary.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::instance().reset(); }
  void TearDown() override { MetricsRegistry::instance().reset(); }
};

TEST_F(TelemetryTest, CounterBasics) {
  auto& registry = MetricsRegistry::instance();
  telemetry::Counter& counter = registry.counter("test.counter");
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  EXPECT_TRUE(counter.deterministic());

  // Find-or-create: same name yields the same instrument; the deterministic
  // flag is fixed at first registration.
  EXPECT_EQ(&registry.counter("test.counter", false), &counter);
  EXPECT_TRUE(registry.counter("test.counter").deterministic());

  registry.reset();
  EXPECT_EQ(counter.value(), 0u);  // cached reference survives reset
}

TEST_F(TelemetryTest, GaugeBasics) {
  telemetry::Gauge& gauge = MetricsRegistry::instance().gauge("test.gauge");
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(3.5);
  EXPECT_EQ(gauge.value(), 3.5);
  gauge.set(-1.0);
  EXPECT_EQ(gauge.value(), -1.0);
}

TEST_F(TelemetryTest, HistogramBucketsAndOverflow) {
  telemetry::Histogram& hist = MetricsRegistry::instance().histogram(
      "test.hist", std::vector<double>{1.0, 10.0, 100.0});
  hist.record(0.5);    // bucket 0 (<= 1)
  hist.record(1.0);    // bucket 0 (inclusive upper edge)
  hist.record(7.0);    // bucket 1
  hist.record(1e6);    // overflow
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.5 + 1.0 + 7.0 + 1e6);
  const auto buckets = hist.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);

  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.sum(), 0.0);
}

TEST_F(TelemetryTest, HistogramShardsAreExactUnderThreads) {
  // Threads record into their own shards; every reader sums the shards, so
  // the totals are exact whichever shards the threads landed on.
  telemetry::Histogram& hist = MetricsRegistry::instance().histogram(
      "test.hist.shards", std::vector<double>{2.0, 8.0, 32.0});
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  const auto value = [](std::uint64_t thread, std::uint64_t i) {
    return static_cast<double>((i + thread) % 40);
  };
  const auto record_all = [&hist, &value] {
    std::vector<std::thread> threads;
    for (std::uint64_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&hist, &value, t] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) hist.record(value(t, i));
      });
    }
    for (std::thread& thread : threads) thread.join();
  };
  std::vector<std::uint64_t> expected_buckets(4, 0);
  double expected_sum = 0.0;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      const double v = value(t, i);
      expected_sum += v;
      expected_buckets[v <= 2.0 ? 0 : v <= 8.0 ? 1 : v <= 32.0 ? 2 : 3] += 1;
    }
  }

  record_all();
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  EXPECT_EQ(hist.sum(), expected_sum);  // integers far below 2^53: exact
  EXPECT_EQ(hist.bucket_counts(), expected_buckets);
  const auto snapshot = MetricsRegistry::instance().snapshot();
  const auto it = std::find_if(
      snapshot.histograms.begin(), snapshot.histograms.end(),
      [](const auto& h) { return h.name == "test.hist.shards"; });
  ASSERT_NE(it, snapshot.histograms.end());
  EXPECT_EQ(it->count, kThreads * kPerThread);
  EXPECT_EQ(it->sum, expected_sum);
  EXPECT_EQ(it->buckets, expected_buckets);

  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.sum(), 0.0);
  EXPECT_EQ(hist.bucket_counts(), std::vector<std::uint64_t>(4, 0));

  // Every shard was zeroed: a second round reads exactly one round.
  record_all();
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  EXPECT_EQ(hist.sum(), expected_sum);
  EXPECT_EQ(hist.bucket_counts(), expected_buckets);
}

TEST_F(TelemetryTest, SnapshotIsSortedByName) {
  auto& registry = MetricsRegistry::instance();
  // Registered out of order; the snapshot comes back name-sorted. (The
  // registry may hold registrations from earlier tests in this binary —
  // reset() zeroes but never removes — so check ordering, not exact size.)
  registry.counter("z.last").add(1);
  registry.counter("a.first").add(2);
  registry.counter("m.middle").add(3);
  const telemetry::Snapshot snap = registry.snapshot();
  std::vector<std::string> names;
  for (const auto& counter : snap.counters) names.push_back(counter.name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* expected : {"a.first", "m.middle", "z.last"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end());
  }
}

TEST_F(TelemetryTest, FingerprintExcludesSchedulingDependentCounters) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("det.events").add(7);
  registry.counter("sched.chunks", /*deterministic=*/false).add(13);
  const std::string fingerprint = registry.counters_fingerprint();
  EXPECT_NE(fingerprint.find("det.events=7"), std::string::npos);
  EXPECT_EQ(fingerprint.find("sched.chunks"), std::string::npos);
}

TEST_F(TelemetryTest, SpanNestsAndRecordsIntoHistogram) {
  auto& registry = MetricsRegistry::instance();
  {
    telemetry::TraceSpan outer(SURFOS_SPAN_SITE("test.span.outer"));
    {
      telemetry::TraceSpan inner(SURFOS_SPAN_SITE("test.span.inner"));
      EXPECT_GE(inner.elapsed_us(), 0.0);
    }
    // A span records when its scope closes, not before.
    EXPECT_EQ(registry.histogram("test.span.inner").count(), 1u);
    EXPECT_EQ(registry.histogram("test.span.outer").count(), 0u);
  }
  const telemetry::Snapshot snap = registry.snapshot();
  bool outer_seen = false;
  bool inner_seen = false;
  for (const auto& hist : snap.histograms) {
    if (hist.name == "test.span.outer") {
      outer_seen = true;
      EXPECT_EQ(hist.count, 1u);
    }
    if (hist.name == "test.span.inner") {
      inner_seen = true;
      EXPECT_EQ(hist.count, 1u);
    }
  }
  EXPECT_TRUE(outer_seen);
  EXPECT_TRUE(inner_seen);
}

/// Minimal JSON string unescaper (enough for what append_json_string emits)
/// so the hostile-name test below can check a true round trip.
std::string json_unescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        out += static_cast<char>(std::stoi(s.substr(i + 1, 4), nullptr, 16));
        i += 4;
        break;
      }
      default: out += s[i]; break;
    }
  }
  return out;
}

TEST_F(TelemetryTest, JsonExportEscapesHostileNames) {
  // Quotes, backslashes, newlines, and raw control bytes in instrument names
  // must not be able to break the exported JSON.
  const std::string hostile = "evil\"name\\with\nnewline\ttab\x01" "ctl";
  MetricsRegistry::instance().counter(hostile).add(3);
  const std::string json = telemetry::snapshot_json();

  // No raw control characters survive in the document.
  for (const char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  const std::string escaped =
      "\"evil\\\"name\\\\with\\nnewline\\ttab\\u0001ctl\"";
  const std::size_t pos = json.find(escaped);
  ASSERT_NE(pos, std::string::npos) << json;
  // Round trip: unescaping the emitted key recovers the original name.
  EXPECT_EQ(json_unescape(escaped.substr(1, escaped.size() - 2)), hostile);

  // The string-level helper agrees on a pure control-character torture case.
  std::ostringstream oss;
  telemetry::append_json_string(oss, std::string_view("\x02\x1f\x7f"));
  EXPECT_EQ(oss.str(), "\"\\u0002\\u001f\x7f\"");  // 0x7f is legal raw JSON
}

TEST_F(TelemetryTest, JsonAndTableExports) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("export.events").add(5);
  registry.gauge("export.level").set(2.5);
  registry.histogram("export.lat", std::vector<double>{10.0}).record(3.0);

  const std::string json = telemetry::snapshot_json();
  EXPECT_NE(json.find("\"export.events\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":5"), std::string::npos);
  EXPECT_NE(json.find("\"deterministic\":true"), std::string::npos);
  EXPECT_NE(json.find("\"export.level\""), std::string::npos);
  EXPECT_NE(json.find("\"export.lat\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);

  const std::string table = telemetry::snapshot_table();
  EXPECT_NE(table.find("export.events"), std::string::npos);
  EXPECT_NE(table.find("export.level"), std::string::npos);
  EXPECT_NE(table.find("export.lat"), std::string::npos);
}

TEST_F(TelemetryTest, JsonExportMapsNonFiniteValuesToNull) {
  auto& registry = MetricsRegistry::instance();
  registry.gauge("bad.nn").set(std::numeric_limits<double>::quiet_NaN());
  registry.gauge("bad.pos").set(std::numeric_limits<double>::infinity());
  registry.gauge("bad.neg").set(-std::numeric_limits<double>::infinity());
  registry.gauge("good.value").set(1.5);
  registry.histogram("bad.hist", std::vector<double>{1.0})
      .record(std::numeric_limits<double>::infinity());  // poisons the sum

  const std::string json = telemetry::snapshot_json();
  // JSON has no nan/inf literals; emitting them would make the whole
  // document unparseable. Every non-finite value must become null.
  for (const char* forbidden : {"nan", "inf", "NaN", "Infinity"}) {
    EXPECT_EQ(json.find(forbidden), std::string::npos) << forbidden;
  }
  EXPECT_NE(json.find("\"bad.nn\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bad.pos\":null"), std::string::npos);
  EXPECT_NE(json.find("\"bad.neg\":null"), std::string::npos);
  EXPECT_NE(json.find("\"good.value\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":null"), std::string::npos);
  // The poisoned histogram's overflow bucket bound also renders as null.
  EXPECT_NE(json.find("[null,1]"), std::string::npos);

  // Round trip: the document stays structurally valid JSON — balanced
  // braces/brackets outside strings from start to finish.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

// --- Recorder pagination under wraparound ------------------------------------

TEST_F(TelemetryTest, EventsAfterSurvivesRingWraparoundMidStream) {
  telemetry::Recorder recorder(/*capacity=*/64, /*stripes=*/1);
  const auto record_span = [&recorder](std::uint64_t i) {
    telemetry::TraceEvent event;
    event.trace_id = 0x7000 + i;
    event.span_id = i;
    event.name = "wrap.span";
    event.ts_ns = i * 1000;
    event.dur_ns = 10;
    recorder.record(event);
  };

  for (std::uint64_t i = 1; i <= 48; ++i) record_span(i);

  // First page of 16 from a zero cursor.
  auto sorted = recorder.events();
  auto page = telemetry::events_after(sorted, 0, 0, 16);
  ASSERT_EQ(page.size(), 16u);
  std::set<std::uint64_t> delivered;
  for (const auto& event : page) delivered.insert(event.span_id);
  std::uint64_t cursor_ts = page.back().ts_ns;
  std::uint64_t cursor_span = page.back().span_id;
  EXPECT_EQ(cursor_span, 16u);

  // The ring wraps mid-stream: 40 more events evict spans 1..24 — of which
  // 17..24 were never delivered. Exact accounting: the recorder knows it
  // overwrote 24, and the cursor skips the evicted gap without ever
  // duplicating or tearing an event.
  for (std::uint64_t i = 49; i <= 88; ++i) record_span(i);
  EXPECT_EQ(recorder.dropped(), 24u);

  bool done = false;
  while (!done) {
    sorted = recorder.events();
    page = telemetry::events_after(sorted, cursor_ts, cursor_span, 16);
    done = page.size() < 16;
    for (const auto& event : page) {
      EXPECT_TRUE(delivered.insert(event.span_id).second)
          << "duplicate span " << event.span_id;
      EXPECT_EQ(event.dur_ns, 10u);  // never torn
    }
    if (!page.empty()) {
      cursor_ts = page.back().ts_ns;
      cursor_span = page.back().span_id;
    }
  }

  // Delivered = the first page + everything that survived the wrap; the
  // evicted-but-never-delivered gap is exactly spans 17..24.
  EXPECT_EQ(delivered.size(), 16u + 64u);
  for (std::uint64_t span = 17; span <= 24; ++span) {
    EXPECT_EQ(delivered.count(span), 0u) << span;
  }
  for (std::uint64_t span = 25; span <= 88; ++span) {
    EXPECT_EQ(delivered.count(span), 1u) << span;
  }
}

// --- System-level contracts --------------------------------------------------

/// One full control-plane scenario: facade bring-up, a datasheet install, a
/// broker utterance, a direct service call, and two steps (the second
/// exercising the plan cache). Exercises counters in every layer.
void run_scenario() {
  sim::CoverageRoomScenario scene = sim::make_coverage_room(/*grid_n=*/4);
  SurfOS os(scene.environment.get(), scene.ap(), scene.band, scene.budget);
  const surface::Catalog catalog = surface::Catalog::standard();
  os.install_programmable(*catalog.find("NR-Surface"), scene.surface_pose, 10,
                          10, "wall");
  EXPECT_TRUE(os.install_from_datasheet(
                    "model: Acme\nfrequency: 28 GHz\nmode: reflective\n"
                    "reconfigurable: yes\nelements: 8x8\nmystery: value\n",
                    scene.surface_pose, "acme")
                  .ok());
  os.register_endpoint("laptop", hal::EndpointKind::kClient, {1.2, 2.4, 1.0});
  os.broker().add_region("this_room",
                         geom::SampleGrid(0.8, 2.8, 0.5, 2.5, 1.0, 3, 3));
  os.broker().handle_utterance("stream a movie on my laptop");
  os.orchestrator().enhance_link({"laptop", 10.0, 50.0});
  os.step();
  os.step();  // second step reuses cached plans
}

TEST_F(TelemetryTest, CounterSnapshotIdenticalAcrossThreadCounts) {
  auto& registry = MetricsRegistry::instance();

  // Each run starts from a cold precompute store: cross-run artifact
  // sharing would legitimately skip traces/fills the fingerprint counts.
  sim::PrecomputeStore::instance().clear();
  util::reset_global_pool(1);
  run_scenario();
  const std::string serial = registry.counters_fingerprint();

  registry.reset();
  sim::PrecomputeStore::instance().clear();
  util::reset_global_pool(4);
  run_scenario();
  const std::string threaded = registry.counters_fingerprint();

  util::reset_global_pool(0);  // back to hardware default
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded);
  // The fingerprint really covers the whole stack.
  for (const char* name :
       {"orch.steps", "orch.tasks.admitted", "opt.objective.evaluations",
        "hal.driver.config_writes", "sim.channel.precomputes",
        "broker.utterances", "core.surfaces.installed"}) {
    EXPECT_NE(serial.find(name), std::string::npos) << name;
  }
}

TEST_F(TelemetryTest, TaskHandleTracksTaskState) {
  sim::CoverageRoomScenario scene = sim::make_coverage_room(/*grid_n=*/4);
  SurfOS os(scene.environment.get(), scene.ap(), scene.band, scene.budget);
  // Element-wise hardware: a 10 dB link target is comfortably achievable
  // (the same setup test_integration's datasheet workflow relies on).
  EXPECT_TRUE(os.install_from_datasheet(
                    "model: Handle\nfrequency: 28 GHz\nmode: reflective\n"
                    "reconfigurable: yes\nelements: 12x12\n",
                    scene.surface_pose, "wall")
                  .ok());
  os.register_endpoint("laptop", hal::EndpointKind::kClient, {1.2, 2.4, 1.0});

  const orch::TaskHandle handle =
      os.orchestrator().enhance_link({"laptop", 10.0, 50.0});
  EXPECT_TRUE(handle.valid());
  EXPECT_EQ(handle.status(), orch::TaskState::kPending);
  EXPECT_FALSE(handle.last_metric().has_value());

  os.step();
  EXPECT_EQ(handle.status(), orch::TaskState::kRunning);
  EXPECT_TRUE(handle.goal_met());
  EXPECT_TRUE(handle.last_metric().has_value());

  // The handle still converts to a bare TaskId for the pre-redesign API.
  const orch::TaskId id = handle;
  EXPECT_EQ(id, handle.id());
  EXPECT_NE(os.orchestrator().find_task(handle), nullptr);

  const orch::TaskHandle invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_THROW(invalid.status(), std::invalid_argument);
  EXPECT_THROW(invalid.goal_met(), std::invalid_argument);
  EXPECT_THROW(invalid.last_metric(), std::invalid_argument);
}

}  // namespace
}  // namespace surfos
