// Wire-protocol codec tests (proto/wire.hpp, proto/serialize.hpp): frame
// round trips, version negotiation failures, unknown-tag skipping, and a
// deterministic fuzz pass with truncated and garbage frames — the parsers
// face socket input and must never throw.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "proto/serialize.hpp"
#include "proto/wire.hpp"

namespace surfos::proto {
namespace {

// --- Frames ------------------------------------------------------------------

TEST(WireFrame, EncodeDecodeRoundTrip) {
  WireFrame frame;
  frame.type = MsgType::kSubmitDemand;
  frame.trace_id = 0xdeadbeefcafe1234ull;
  frame.payload = {1, 2, 3, 4, 5};
  const auto encoded = encode_frame(frame);
  ASSERT_TRUE(encoded.ok());
  ASSERT_EQ(encoded.value().size(), kFrameHeaderSize + 5);

  const FrameDecode decode = try_decode_frame(encoded.value());
  ASSERT_TRUE(decode.frame.has_value());
  EXPECT_FALSE(decode.error.has_value());
  EXPECT_EQ(decode.consumed, encoded.value().size());
  EXPECT_EQ(decode.frame->type, MsgType::kSubmitDemand);
  EXPECT_EQ(decode.frame->trace_id, frame.trace_id);
  EXPECT_EQ(decode.frame->payload, frame.payload);
}

TEST(WireFrame, PartialFrameAsksForMoreBytes) {
  WireFrame frame;
  frame.type = MsgType::kGetStatus;
  frame.payload.assign(100, 7);
  const auto encoded = encode_frame(frame);
  ASSERT_TRUE(encoded.ok());
  for (std::size_t cut = 0; cut < encoded.value().size(); ++cut) {
    const std::span<const std::uint8_t> head(encoded.value().data(), cut);
    const FrameDecode decode = try_decode_frame(head);
    EXPECT_FALSE(decode.frame.has_value()) << "cut=" << cut;
    EXPECT_FALSE(decode.error.has_value()) << "cut=" << cut;
    EXPECT_EQ(decode.consumed, 0u) << "cut=" << cut;
  }
}

TEST(WireFrame, OversizedDeclaredLengthFailsImmediately) {
  std::vector<std::uint8_t> bytes(kFrameHeaderSize, 0);
  const std::uint32_t huge = kMaxFramePayload + 1;
  bytes[0] = static_cast<std::uint8_t>(huge & 0xff);
  bytes[1] = static_cast<std::uint8_t>((huge >> 8) & 0xff);
  bytes[2] = static_cast<std::uint8_t>((huge >> 16) & 0xff);
  bytes[3] = static_cast<std::uint8_t>((huge >> 24) & 0xff);
  bytes[4] = kProtoVersion;
  bytes[5] = static_cast<std::uint8_t>(MsgType::kHello);
  const FrameDecode decode = try_decode_frame(bytes);
  ASSERT_TRUE(decode.error.has_value());
  EXPECT_EQ(decode.error->code, ErrorCode::kOutOfRange);
}

TEST(WireFrame, UnsupportedVersionStillConsumesTheFrame) {
  WireFrame frame;
  frame.type = MsgType::kHello;
  auto encoded = encode_frame(frame);
  ASSERT_TRUE(encoded.ok());
  encoded.value()[4] = 99;  // a future protocol version
  const FrameDecode decode = try_decode_frame(encoded.value());
  ASSERT_TRUE(decode.error.has_value());
  EXPECT_EQ(decode.error->code, ErrorCode::kUnsupportedVersion);
  // Consuming the frame lets the server answer with a proper error reply.
  EXPECT_EQ(decode.consumed, encoded.value().size());
}

TEST(WireFrame, UnknownMessageTypeIsRejected) {
  WireFrame frame;
  frame.type = MsgType::kHello;
  auto encoded = encode_frame(frame);
  ASSERT_TRUE(encoded.ok());
  encoded.value()[5] = 200;  // no such MsgType
  const FrameDecode decode = try_decode_frame(encoded.value());
  ASSERT_TRUE(decode.error.has_value());
  EXPECT_EQ(decode.error->code, ErrorCode::kUnknownCommand);
}

TEST(WireFrame, EncodeRejectsOversizedPayload) {
  WireFrame frame;
  frame.payload.assign(kMaxFramePayload + 1, 0);
  EXPECT_EQ(encode_frame(frame).code(), ErrorCode::kOutOfRange);
}

// --- TLV ---------------------------------------------------------------------

TEST(Tlv, WriterReaderRoundTrip) {
  std::vector<std::uint8_t> buffer;
  TlvWriter w(buffer);
  w.put_u8(1, 0xab);
  w.put_u16(2, 0xbeef);
  w.put_u32(3, 0xdeadbeef);
  w.put_u64(4, 0x0123456789abcdefull);
  w.put_f64(5, -1234.5e-7);
  w.put_string(6, "hello");
  const std::vector<std::uint64_t> ids = {1, 2, 3};
  w.put_u64s(7, ids);

  TlvReader r(buffer);
  auto t = r.next();
  ASSERT_TRUE(t);
  EXPECT_EQ(tlv_u8(*t), 0xab);
  t = r.next();
  EXPECT_EQ(tlv_u16(*t), 0xbeef);
  t = r.next();
  EXPECT_EQ(tlv_u32(*t), 0xdeadbeefu);
  t = r.next();
  EXPECT_EQ(tlv_u64(*t), 0x0123456789abcdefull);
  t = r.next();
  EXPECT_EQ(tlv_f64(*t), -1234.5e-7);
  t = r.next();
  EXPECT_EQ(tlv_string(*t), "hello");
  t = r.next();
  EXPECT_EQ(tlv_u64s(*t), ids);
  EXPECT_FALSE(r.next());
  EXPECT_FALSE(r.truncated());
}

TEST(Tlv, SizeMismatchYieldsNullopt) {
  std::vector<std::uint8_t> buffer;
  TlvWriter w(buffer);
  w.put_u16(1, 7);
  TlvReader r(buffer);
  const auto t = r.next();
  ASSERT_TRUE(t);
  EXPECT_FALSE(tlv_u64(*t).has_value());
  EXPECT_FALSE(tlv_u8(*t).has_value());
}

TEST(Tlv, TruncatedRecordStopsWithFlag) {
  std::vector<std::uint8_t> buffer;
  TlvWriter w(buffer);
  w.put_string(1, "truncate me");
  buffer.resize(buffer.size() - 4);
  TlvReader r(buffer);
  EXPECT_FALSE(r.next());
  EXPECT_TRUE(r.truncated());
}

// --- Struct serialization ----------------------------------------------------

orch::StepTrace sample_trace() {
  orch::StepTrace trace;
  trace.schedule_us = 12.5;
  trace.optimize_us = 340.25;
  trace.actuate_us = 7.0;
  trace.measure_us = 3.5;
  trace.total_us = 363.25;
  trace.plans_fresh = 2;
  trace.plans_reused = 9;
  trace.objective_evaluations = 4096;
  trace.config_writes = 3;
  trace.element_updates = 768;
  trace.writes_staged = 5;
  trace.writes_coalesced = 2;
  trace.writes_elided = 1;
  trace.trace_ids = {0x1111, 0x2222};
  trace.task_trace_ids = {0x1111, 0x2222, 0x3333};
  return trace;
}

TEST(Serialize, StepTraceRoundTrip) {
  const orch::StepTrace trace = sample_trace();
  const auto bytes = to_wire(trace);
  orch::StepTrace out;
  ASSERT_TRUE(from_wire(bytes, out).ok());
  EXPECT_EQ(out.optimize_us, trace.optimize_us);
  EXPECT_EQ(out.objective_evaluations, trace.objective_evaluations);
  EXPECT_EQ(out.writes_coalesced, trace.writes_coalesced);
  EXPECT_EQ(out.trace_ids, trace.trace_ids);
  EXPECT_EQ(out.task_trace_ids, trace.task_trace_ids);
  // Deterministic encoding: re-serializing the parse is byte-identical.
  EXPECT_EQ(to_wire(out), bytes);
}

TEST(Serialize, FleetReportRoundTrip) {
  FleetReport report;
  report.total_assignments = 5;
  report.total_optimizations = 3;
  report.total_starved = 1;
  report.trace = sample_trace();
  SiteReport site;
  site.site_id = "apartment-3b";
  site.step.assignment_count = 2;
  site.step.optimizations_run = 1;
  site.step.starved = {7, 9};
  orch::TaskReport task;
  task.id = 42;
  task.type = orch::ServiceType::kSensing;
  task.state = orch::TaskState::kRunning;
  task.achieved = -41.25;
  task.goal_met = true;
  site.step.tasks.push_back(task);
  site.step.trace = sample_trace();
  report.sites.push_back(site);

  const auto bytes = to_wire(report);
  FleetReport out;
  ASSERT_TRUE(from_wire(bytes, out).ok());
  ASSERT_EQ(out.sites.size(), 1u);
  EXPECT_EQ(out.sites[0].site_id, "apartment-3b");
  ASSERT_EQ(out.sites[0].step.tasks.size(), 1u);
  EXPECT_EQ(out.sites[0].step.tasks[0].id, 42u);
  EXPECT_EQ(out.sites[0].step.tasks[0].type, orch::ServiceType::kSensing);
  EXPECT_EQ(out.sites[0].step.tasks[0].achieved, -41.25);
  EXPECT_TRUE(out.sites[0].step.tasks[0].goal_met);
  EXPECT_EQ(out.sites[0].step.starved, (std::vector<orch::TaskId>{7, 9}));
  EXPECT_EQ(out.total_assignments, 5u);
  EXPECT_EQ(to_wire(out), bytes);
}

TEST(Serialize, InstallReportRoundTrip) {
  InstallReport report;
  report.device_id = "east-wall";
  report.warnings = {"unknown unit", "assumed 1-bit"};
  const auto bytes = to_wire(report);
  InstallReport out;
  ASSERT_TRUE(from_wire(bytes, out).ok());
  EXPECT_EQ(out.device_id, report.device_id);
  EXPECT_EQ(out.warnings, report.warnings);
}

TEST(Serialize, AppDemandRoundTripAllFields) {
  broker::AppDemand demand;
  demand.app_class = broker::AppClass::kSensitiveData;
  demand.endpoint_id = "laptop-9";
  demand.region_id = "meeting-room";
  demand.throughput_mbps = 125.5;
  demand.max_latency_ms = 8.0;
  demand.needs_sensing = true;
  demand.needs_security = true;
  demand.needs_power = false;
  demand.duration_s = 300.0;
  const auto bytes = to_wire(demand);
  broker::AppDemand out;
  ASSERT_TRUE(from_wire(bytes, out).ok());
  EXPECT_EQ(out.app_class, demand.app_class);
  EXPECT_EQ(out.endpoint_id, demand.endpoint_id);
  EXPECT_EQ(out.region_id, demand.region_id);
  EXPECT_EQ(out.throughput_mbps, demand.throughput_mbps);
  EXPECT_EQ(out.max_latency_ms, demand.max_latency_ms);
  EXPECT_TRUE(out.needs_sensing);
  EXPECT_TRUE(out.needs_security);
  EXPECT_FALSE(out.needs_power);
  EXPECT_EQ(out.duration_s, demand.duration_s);
}

TEST(Serialize, AppDemandOptionalsStayUnsetWhenAbsent) {
  broker::AppDemand demand;  // all defaults, optionals empty
  broker::AppDemand out;
  out.throughput_mbps = 999.0;  // must be cleared by from_wire
  ASSERT_TRUE(from_wire(to_wire(demand), out).ok());
  EXPECT_FALSE(out.throughput_mbps.has_value());
  EXPECT_FALSE(out.max_latency_ms.has_value());
  EXPECT_FALSE(out.duration_s.has_value());
}

TEST(Serialize, AppStatusAndInventoryRoundTrip) {
  broker::AppStatus status;
  status.known = true;
  status.running = true;
  status.satisfied = false;
  status.tasks_total = 4;
  status.tasks_met = 3;
  broker::AppStatus status_out;
  ASSERT_TRUE(from_wire(to_wire(status), status_out).ok());
  EXPECT_TRUE(status_out.known);
  EXPECT_TRUE(status_out.running);
  EXPECT_FALSE(status_out.satisfied);
  EXPECT_EQ(status_out.tasks_total, 4u);
  EXPECT_EQ(status_out.tasks_met, 3u);

  FleetInventory inventory{3, 7, 12, 9, 8};
  FleetInventory inventory_out;
  ASSERT_TRUE(from_wire(to_wire(inventory), inventory_out).ok());
  EXPECT_EQ(inventory_out.sites, 3u);
  EXPECT_EQ(inventory_out.tasks_meeting_goals, 8u);
}

TEST(Serialize, UnknownTagsAreSkipped) {
  // A "newer daemon" appends a tag this parser has never heard of; an old
  // client must read everything it knows and ignore the rest.
  broker::AppDemand demand;
  demand.endpoint_id = "tv";
  std::vector<std::uint8_t> bytes = to_wire(demand);
  TlvWriter w(bytes);
  w.put_string(999, "field from the future");
  w.put_u64(1000, 12345);
  broker::AppDemand out;
  ASSERT_TRUE(from_wire(bytes, out).ok());
  EXPECT_EQ(out.endpoint_id, "tv");
}

TEST(Serialize, MissingVersionTagIsMalformed) {
  std::vector<std::uint8_t> bytes;
  TlvWriter w(bytes);
  w.put_string(2, "no version tag first");
  broker::AppDemand out;
  EXPECT_EQ(from_wire(bytes, out).code(), ErrorCode::kMalformedFrame);
}

TEST(Serialize, TaskStateAcceptsExactlyItsPinnedWireValues) {
  for (const std::uint8_t value : {0, 1, 2, 3, 4, 5}) {
    orch::TaskReport report;
    report.id = 7;
    report.state = static_cast<orch::TaskState>(value);
    std::vector<std::uint8_t> bytes;
    to_wire(report, bytes);
    orch::TaskReport out;
    const auto decoded = from_wire(bytes, out);
    if (value == 2 || value == 5) {
      EXPECT_EQ(decoded.code(), ErrorCode::kMalformedFrame) << int{value};
      continue;
    }
    ASSERT_TRUE(decoded.ok()) << int{value};
    EXPECT_EQ(static_cast<std::uint8_t>(out.state), value);
  }
}

// --- Fuzz-style robustness ---------------------------------------------------

/// Deterministic LCG so the "fuzz" is reproducible in CI.
struct Lcg {
  std::uint64_t state = 0x853c49e6748fea9bull;
  std::uint8_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint8_t>(state >> 33);
  }
};

TEST(SerializeFuzz, TruncationNeverThrows) {
  const auto bytes = to_wire(sample_trace());
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::span<const std::uint8_t> head(bytes.data(), cut);
    orch::StepTrace out;
    EXPECT_NO_THROW((void)from_wire(head, out)) << "cut=" << cut;
  }
  const auto demand_bytes = to_wire(broker::AppDemand{});
  for (std::size_t cut = 0; cut <= demand_bytes.size(); ++cut) {
    broker::AppDemand out;
    EXPECT_NO_THROW((void)from_wire(
        std::span<const std::uint8_t>(demand_bytes.data(), cut), out));
  }
}

TEST(SerializeFuzz, GarbageBytesNeverThrow) {
  Lcg rng;
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> garbage(static_cast<std::size_t>(round) * 3);
    for (auto& b : garbage) b = rng.next();
    orch::StepTrace trace;
    FleetReport report;
    broker::AppDemand demand;
    EXPECT_NO_THROW((void)from_wire(garbage, trace));
    EXPECT_NO_THROW((void)from_wire(garbage, report));
    EXPECT_NO_THROW((void)from_wire(garbage, demand));
  }
}

TEST(SerializeFuzz, BitFlippedFramesNeverThrow) {
  WireFrame frame;
  frame.type = MsgType::kSubmitDemand;
  frame.trace_id = 42;
  frame.payload = to_wire(broker::AppDemand{});
  const auto encoded = encode_frame(frame);
  ASSERT_TRUE(encoded.ok());
  Lcg rng;
  for (int round = 0; round < 500; ++round) {
    std::vector<std::uint8_t> bytes = encoded.value();
    bytes[rng.next() % bytes.size()] ^=
        static_cast<std::uint8_t>(1u << (rng.next() % 8));
    const FrameDecode decode = try_decode_frame(bytes);
    if (decode.frame) {
      // A frame that still decodes must hand a parseable-or-rejected payload
      // to the TLV layer without throwing.
      broker::AppDemand out;
      EXPECT_NO_THROW((void)from_wire(decode.frame->payload, out));
    }
  }
}

}  // namespace
}  // namespace surfos::proto
