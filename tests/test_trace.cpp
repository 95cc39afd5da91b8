// Tracing subsystem: deterministic trace ids, ambient context propagation
// (including across thread-pool workers), the flight recorder's ring
// semantics, both exporters, crash dumps, and the end-to-end causal chain
// intent -> broker.translate -> orch.schedule -> optimizer -> hal config
// write that the observability story promises.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/surfos.hpp"
#include "daemon/daemon.hpp"
#include "sim/floorplan.hpp"
#include "surface/catalog.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace surfos {
namespace {

using telemetry::Recorder;
using telemetry::TraceContext;
using telemetry::TraceEvent;

/// Every test starts with tracing ON and an empty ring, and restores the
/// default (off) plus an empty ring for whoever runs next in this binary.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_trace_enabled(true);
    Recorder::instance().clear();
  }
  void TearDown() override {
    telemetry::set_trace_enabled(false);
    Recorder::instance().clear();
    telemetry::MetricsRegistry::instance().reset();
    util::reset_global_pool(0);
  }

  static std::vector<TraceEvent> events_named(const char* name) {
    std::vector<TraceEvent> out;
    for (const TraceEvent& event : Recorder::instance().events()) {
      if (std::string(event.name) == name) out.push_back(event);
    }
    return out;
  }
};

TEST_F(TraceTest, TraceIdsAreDeterministicAndNonZero) {
  const std::uint64_t domain = telemetry::trace_domain("broker.intent");
  EXPECT_EQ(domain, telemetry::trace_domain("broker.intent"));
  EXPECT_NE(domain, telemetry::trace_domain("orch.task"));
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    const telemetry::TraceId id = telemetry::make_trace_id(domain, seq);
    EXPECT_NE(id, 0u);
    EXPECT_EQ(id, telemetry::make_trace_id(domain, seq));
    EXPECT_NE(id, telemetry::make_trace_id(domain, seq + 1));
    EXPECT_NE(id,
              telemetry::make_trace_id(telemetry::trace_domain("orch.task"),
                                       seq));
  }
}

TEST_F(TraceTest, TraceScopeInstallsEvenWhileTracingOff) {
  // The determinism contract: ambient ids are identical whether or not
  // SURFOS_TRACE is on, so ids derived from them never depend on the switch.
  telemetry::set_trace_enabled(false);
  EXPECT_FALSE(telemetry::current_trace().valid());
  const TraceContext context{0xabcdu, 7u};
  {
    telemetry::TraceScope scope(context);
    EXPECT_EQ(telemetry::current_trace(), context);
    {
      telemetry::TraceScope inner(TraceContext{0x1234u, 0u});
      EXPECT_EQ(telemetry::current_trace().trace_id, 0x1234u);
    }
    EXPECT_EQ(telemetry::current_trace(), context);
  }
  EXPECT_FALSE(telemetry::current_trace().valid());
  EXPECT_TRUE(Recorder::instance().events().empty());
}

TEST_F(TraceTest, TraceSpanRecordsNestedEventsWithParents) {
  const TraceContext root{telemetry::make_trace_id(1, 1), 0};
  {
    telemetry::TraceScope scope(root);
    telemetry::TraceSpan outer(SURFOS_SPAN_SITE("test.trace.outer"));
    EXPECT_EQ(outer.context().trace_id, root.trace_id);
    EXPECT_NE(outer.context().span_id, 0u);
    {
      telemetry::TraceSpan inner(SURFOS_SPAN_SITE("test.trace.inner"));
      EXPECT_EQ(inner.context().trace_id, root.trace_id);
      SURFOS_TRACE_INSTANT("test.trace.mark");
    }
  }
  const auto outer_events = events_named("test.trace.outer");
  const auto inner_events = events_named("test.trace.inner");
  const auto marks = events_named("test.trace.mark");
  ASSERT_EQ(outer_events.size(), 1u);
  ASSERT_EQ(inner_events.size(), 1u);
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_EQ(outer_events[0].trace_id, root.trace_id);
  EXPECT_EQ(outer_events[0].parent_span_id, 0u);
  EXPECT_EQ(outer_events[0].kind, TraceEvent::Kind::kSpan);
  // inner nests under outer; the instant nests under inner.
  EXPECT_EQ(inner_events[0].parent_span_id, outer_events[0].span_id);
  EXPECT_EQ(marks[0].parent_span_id, inner_events[0].span_id);
  EXPECT_EQ(marks[0].kind, TraceEvent::Kind::kInstant);
  EXPECT_EQ(marks[0].dur_ns, 0u);
  // Span end >= inner end >= mark.
  EXPECT_GE(outer_events[0].ts_ns + outer_events[0].dur_ns,
            inner_events[0].ts_ns + inner_events[0].dur_ns);
}

TEST_F(TraceTest, TraceSpanHistogramCountsIgnoreTracingSwitch) {
  // SURFOS_TRACE decides only whether a span reaches the flight recorder:
  // a span records into its same-named latency histogram either way.
  telemetry::MetricsRegistry::instance().reset();
  telemetry::set_trace_enabled(false);
  { telemetry::TraceSpan span(SURFOS_SPAN_SITE("test.trace.histogram")); }
  telemetry::set_trace_enabled(true);
  { telemetry::TraceSpan span(SURFOS_SPAN_SITE("test.trace.histogram")); }
  for (const auto& hist :
       telemetry::MetricsRegistry::instance().snapshot().histograms) {
    if (hist.name == "test.trace.histogram") {
      EXPECT_EQ(hist.count, 2u);
      return;
    }
  }
  FAIL() << "histogram not found";
}

TEST_F(TraceTest, TracingOffRecordsNothing) {
  telemetry::set_trace_enabled(false);
  {
    telemetry::TraceScope scope(TraceContext{123u, 0u});
    telemetry::TraceSpan span(SURFOS_SPAN_SITE("test.trace.muted"));
    SURFOS_TRACE_INSTANT("test.trace.muted_mark");
    EXPECT_FALSE(span.context().valid());  // no span id consumed
  }
  EXPECT_TRUE(Recorder::instance().events().empty());
  EXPECT_EQ(Recorder::instance().recorded(), 0u);
}

TEST_F(TraceTest, RingBufferKeepsNewestAndCountsDrops) {
  Recorder recorder(/*capacity=*/64, /*stripes=*/1);
  for (std::uint64_t i = 0; i < 200; ++i) {
    TraceEvent event;
    event.name = "ring";
    event.trace_id = 1;
    event.span_id = i + 1;
    event.ts_ns = i;
    recorder.record(event);
  }
  EXPECT_EQ(recorder.capacity(), 64u);
  EXPECT_EQ(recorder.recorded(), 200u);
  EXPECT_EQ(recorder.dropped(), 136u);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 64u);
  // Flight-recorder semantics: the newest events survive, oldest are gone.
  EXPECT_EQ(events.front().ts_ns, 136u);
  EXPECT_EQ(events.back().ts_ns, 199u);

  recorder.clear();
  EXPECT_TRUE(recorder.events().empty());
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST_F(TraceTest, BufferCapacityRespectsEnvKnob) {
  // SURFOS_TRACE_BUFFER sizes the global instance once (its registry row
  // rejects values below 64); direct construction rounds up to whole
  // stripes.
  Recorder tiny(/*capacity=*/1, /*stripes=*/8);
  EXPECT_GE(tiny.capacity(), 8u);
  EXPECT_EQ(tiny.capacity() % 8, 0u);
}

TEST_F(TraceTest, ThreadPoolWorkersInheritAmbientContext) {
  util::reset_global_pool(4);
  const TraceContext root{telemetry::make_trace_id(2, 9), 0};
  {
    telemetry::TraceScope scope(root);
    // Each iteration sleeps so the submitting thread cannot drain every
    // chunk before the workers wake, even on a single-core machine.
    util::parallel_for(0, 64, [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      SURFOS_TRACE_INSTANT("test.trace.worker_mark");
    });
  }
  const auto marks = events_named("test.trace.worker_mark");
  ASSERT_EQ(marks.size(), 64u);
  std::set<std::uint32_t> threads;
  for (const TraceEvent& mark : marks) {
    EXPECT_EQ(mark.trace_id, root.trace_id) << "worker lost the trace id";
    threads.insert(mark.thread_index);
  }
  // The loop really ran on more than the submitting thread.
  EXPECT_GT(threads.size(), 1u);
}

TEST_F(TraceTest, ChromeTraceJsonShape) {
  {
    telemetry::TraceScope scope(TraceContext{telemetry::make_trace_id(3, 3), 0});
    telemetry::TraceSpan span(SURFOS_SPAN_SITE("test.trace.json_span"));
    SURFOS_TRACE_INSTANT("test.trace.json_mark");
  }
  const std::string json = telemetry::chrome_trace_json();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"test.trace.json_span\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\":\"0x"), std::string::npos);
  // Balanced document (cheap structural sanity without a JSON parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(json.back(), '\n');

  const std::string table = telemetry::trace_table();
  EXPECT_NE(table.find("test.trace.json_span"), std::string::npos);
  EXPECT_NE(table.find("test.trace.json_mark"), std::string::npos);
  EXPECT_NE(table.find("[i]"), std::string::npos);
}

TEST_F(TraceTest, DumpWritesLoadableFile) {
  { telemetry::TraceSpan span(SURFOS_SPAN_SITE("test.trace.dump_span")); }
  const std::string path = ::testing::TempDir() + "surfos_trace_dump.json";
  ASSERT_TRUE(Recorder::instance().dump(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(buffer.str().find("test.trace.dump_span"), std::string::npos);
  std::remove(path.c_str());
  EXPECT_FALSE(Recorder::instance().dump("/nonexistent-dir/x/y.json"));
}

TEST_F(TraceTest, CrashHandlerDumpsRingBeforeDying) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = ::testing::TempDir() + "surfos_crash_dump.json";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        telemetry::set_trace_enabled(true);
        Recorder::install_crash_handlers(path);
        { telemetry::TraceSpan span(SURFOS_SPAN_SITE("test.trace.pre_crash")); }
        std::abort();
      },
      "");
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "crash handler did not write " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(buffer.str().find("test.trace.pre_crash"), std::string::npos);
  std::remove(path.c_str());
}

// --- End-to-end causal chain -------------------------------------------------

/// Full-stack scenario under tracing: one utterance-admitted intent plus one
/// direct service call, then a control-plane step.
orch::StepReport traced_scenario(SurfOS& os) {
  os.broker().handle_utterance("stream a movie on my laptop");
  os.orchestrator().enhance_link({"laptop", 10.0, 50.0});
  return os.step();
}

std::unique_ptr<SurfOS> make_os(const sim::CoverageRoomScenario& scene) {
  auto os = std::make_unique<SurfOS>(scene.environment.get(), scene.ap(),
                                     scene.band, scene.budget);
  const surface::Catalog catalog = surface::Catalog::standard();
  os->install_programmable(*catalog.find("NR-Surface"), scene.surface_pose, 10,
                           10, "wall");
  os->register_endpoint("laptop", hal::EndpointKind::kClient, {1.2, 2.4, 1.0});
  return os;
}

TEST_F(TraceTest, EndToEndCausalChainSharesOneTraceId) {
  sim::CoverageRoomScenario scene = sim::make_coverage_room(/*grid_n=*/4);
  auto os = make_os(scene);
  const orch::StepReport report = traced_scenario(*os);
  ASSERT_FALSE(report.trace.trace_ids.empty());

  // The utterance-admitted task carries the broker's intent trace id; the
  // directly-admitted one minted its own from the task id. Both are valid
  // and distinct.
  std::set<telemetry::TraceId> task_traces;
  for (const auto* task : os->orchestrator().tasks()) {
    EXPECT_TRUE(task->trace.valid());
    task_traces.insert(task->trace.trace_id);
  }
  EXPECT_GE(task_traces.size(), 2u);

  // Acceptance criterion: one intent's id links the whole chain
  // broker.translate -> orch.schedule.assign -> orch.step.optimize ->
  // opt.objective.* -> hal.driver.write_config in the recorded events.
  const auto translate = events_named("broker.translate");
  ASSERT_EQ(translate.size(), 1u);
  const telemetry::TraceId intent = translate[0].trace_id;
  EXPECT_TRUE(task_traces.count(intent));
  for (const char* stage :
       {"orch.schedule.assign", "orch.step.optimize", "opt.minimize",
        "sim.channel.precompute", "hal.driver.write_config"}) {
    bool found = false;
    for (const TraceEvent& event : events_named(stage)) {
      if (event.trace_id == intent) found = true;
    }
    EXPECT_TRUE(found) << stage << " missing an event with the intent's id";
  }
  // The per-assignment ids surfaced in the report all belong to known tasks.
  for (const telemetry::TraceId id : report.trace.trace_ids) {
    EXPECT_TRUE(task_traces.count(id));
  }
}

TEST_F(TraceTest, StepPhaseSpansAreChildrenOfTheStepSpan) {
  // The per-assignment trace scope swaps in the intent's trace id but must
  // keep the enclosing orch.step span as the parent, so a recording folds
  // back into one tree per step.
  sim::CoverageRoomScenario scene = sim::make_coverage_room(/*grid_n=*/4);
  auto os = make_os(scene);
  os->broker().handle_utterance("stream a movie on my laptop");
  os->orchestrator().enhance_link({"laptop", 10.0, 50.0});
  Recorder::instance().clear();
  os->step();

  const auto steps = events_named("orch.step");
  ASSERT_EQ(steps.size(), 1u);
  const telemetry::SpanId step_span = steps[0].span_id;
  std::size_t children = 0;
  for (const TraceEvent& event : Recorder::instance().events()) {
    const std::string name = event.name;
    if (name.rfind("orch.step.", 0) != 0 && name != "sim.channel.precompute") {
      continue;
    }
    EXPECT_EQ(event.parent_span_id, step_span) << name;
    ++children;
  }
  // schedule, precompute, optimize, actuate, flush and measure at least.
  EXPECT_GE(children, 6u);
  for (const char* phase :
       {"orch.step.optimize", "orch.step.actuate", "orch.step.measure",
        "sim.channel.precompute"}) {
    EXPECT_FALSE(events_named(phase).empty()) << phase;
  }
}

TEST_F(TraceTest, StepReportTraceIdsIdenticalAcrossTraceModes) {
  sim::CoverageRoomScenario scene = sim::make_coverage_room(/*grid_n=*/4);

  telemetry::set_trace_enabled(true);
  auto os_on = make_os(scene);
  const orch::StepReport on = traced_scenario(*os_on);

  telemetry::set_trace_enabled(false);
  auto os_off = make_os(scene);
  const orch::StepReport off = traced_scenario(*os_off);

  ASSERT_FALSE(on.trace.trace_ids.empty());
  EXPECT_EQ(on.trace.trace_ids, off.trace.trace_ids);
  EXPECT_EQ(on.assignment_count, off.assignment_count);
  // And the handles agree.
  const auto handle_on =
      os_on->orchestrator().enhance_link({"laptop", 10.0, 50.0});
  const auto handle_off =
      os_off->orchestrator().enhance_link({"laptop", 10.0, 50.0});
  EXPECT_EQ(handle_on.trace().trace_id, handle_off.trace().trace_id);
  EXPECT_TRUE(handle_on.trace().valid());
}

TEST_F(TraceTest, EscalationKeepsTheIntentTraceId) {
  sim::CoverageRoomScenario scene = sim::make_coverage_room(/*grid_n=*/4);
  auto os = make_os(scene);
  // An unreachable SNR target so the goal stays unmet and escalation fires.
  broker::AppDemand demand;
  demand.app_class = broker::AppClass::kVideoStreaming;
  demand.endpoint_id = "laptop";
  demand.throughput_mbps = 1e9;  // impossible -> unsatisfied
  ASSERT_TRUE(os->broker().start_app("stubborn", demand).ok());
  os->step();

  const auto& session = os->broker().sessions().at("stubborn");
  ASSERT_FALSE(session.tasks.empty());
  const orch::Task* before = os->orchestrator().find_task(session.tasks[0]);
  ASSERT_NE(before, nullptr);
  const telemetry::TraceId intent = before->trace.trace_id;

  if (os->broker().escalate_unsatisfied() > 0) {
    const auto& bumped = os->broker().sessions().at("stubborn");
    const orch::Task* after = os->orchestrator().find_task(bumped.tasks[0]);
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after->trace.trace_id, intent)
        << "escalated replacement task lost the intent's trace";
  }
}

TEST_F(TraceTest, DaemonEpochPhaseSpansAreChildrenOfTheEpochSpan) {
  daemon::DaemonOptions options;
  options.ticker = false;
  options.epoch_ms = 20;
  options.grid_n = 2;
  daemon::Daemon daemon(options);
  daemon.run_epoch();
  Recorder::instance().clear();
  daemon.run_epoch();

  const auto epochs = events_named("surfosd.epoch");
  ASSERT_EQ(epochs.size(), 1u);
  const telemetry::SpanId epoch_span = epochs[0].span_id;
  for (const char* phase :
       {"surfosd.epoch.advance", "surfosd.epoch.escalate_gc",
        "surfosd.epoch.serialize", "surfosd.epoch.slo",
        "surfosd.epoch.publish", "core.fleet.step_all"}) {
    const auto events = events_named(phase);
    ASSERT_EQ(events.size(), 1u) << phase;
    EXPECT_EQ(events[0].parent_span_id, epoch_span) << phase;
  }
}

}  // namespace
}  // namespace surfos
