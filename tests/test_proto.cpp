// Wire-protocol codec tests (proto/wire.hpp, proto/serialize.hpp,
// daemon/messages.hpp): frame round trips, version negotiation failures,
// unknown-tag skipping, in-place nesting, golden bytes for every surfosd
// message, and a deterministic fuzz pass with truncated and garbage frames —
// the parsers face socket input and must never throw.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "daemon/messages.hpp"
#include "daemon/subscription.hpp"
#include "daemon/tags.hpp"
#include "proto/serialize.hpp"
#include "proto/wire.hpp"
#include "telemetry/metrics.hpp"

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
  const auto next = [&r](auto value) {
    const auto t = r.next();
    EXPECT_TRUE(t && read_field(*t, value));
    return value;
  };
  EXPECT_EQ(next(std::uint8_t{}), 0xab);
  EXPECT_EQ(next(std::uint16_t{}), 0xbeef);
  EXPECT_EQ(next(std::uint32_t{}), 0xdeadbeefu);
  EXPECT_EQ(next(std::uint64_t{}), 0x0123456789abcdefull);
  EXPECT_EQ(next(0.0), -1234.5e-7);
  EXPECT_EQ(next(std::string()), "hello");
  EXPECT_EQ(next(std::vector<std::uint64_t>()), ids);
  EXPECT_FALSE(r.next());
  EXPECT_FALSE(r.truncated());
}

TEST(Tlv, NestWritesTheBytesOfAPrebuiltRecord) {
  // In-place nesting back-patches the length: the bytes equal put_bytes of
  // the same body built in its own buffer, at any depth.
  std::vector<std::uint8_t> inner;
  TlvWriter(inner).put_u64(3, 42);
  std::vector<std::uint8_t> middle;
  TlvWriter mw(middle);
  mw.put_string(2, "mid");
  mw.put_bytes(4, inner);
  std::vector<std::uint8_t> expected;
  TlvWriter ew(expected);
  ew.put_u8(1, 7);
  ew.put_bytes(5, middle);
  ew.put_bytes(6, {});

  std::vector<std::uint8_t> nested;
  TlvWriter w(nested);
  w.put_u8(1, 7);
  w.nest(5, [](std::vector<std::uint8_t>& body) {
    TlvWriter bw(body);
    bw.put_string(2, "mid");
    bw.nest(4, [](std::vector<std::uint8_t>& leaf) {
      TlvWriter(leaf).put_u64(3, 42);
    });
  });
  w.nest(6, [](std::vector<std::uint8_t>&) {});
  EXPECT_EQ(nested, expected);
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

// --- surfosd messages (daemon/messages.hpp) ----------------------------------

namespace surfos::daemon {
namespace {

using proto::TlvWriter;

std::vector<std::uint8_t> encode(const auto& msg) {
  std::vector<std::uint8_t> out;
  to_wire(msg, out);
  return out;
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

SiteHealth sample_health() { return {"s", SloState::kDegraded, 5, "q"}; }

TraceRecord sample_record() {
  return {1, 2, 3, 4, 5, "n", telemetry::TraceEvent::Kind::kInstant, 6, 7};
}

// One sample per message, returning its golden bytes: the payload that the
// hand-written encoders these codecs replaced wrote for exactly these values.
const char* sample(HelloRequest& m) {
  m.max_version = 1;
  return "0200020000000100";
}
const char* sample(SubmitRequest& m) {
  broker::AppDemand demand;
  demand.endpoint_id = "h";
  m = {"vr", "site1", demand, 3};
  return "02000200000076720300050000007369746531040031000000010002000000010002"
         "0001000000030300010000006804000000000007000100000000080001000000000900"
         "01000000000500080000000300000000000000";
}
const char* sample(AppRequest& m) {
  m = {"vr", "s1"};
  return "02000200000076720300020000007331";
}
const char* sample(TracesRequest& m) {
  m = {5, 6, 7};
  return "0200080000000500000000000000030008000000060000000000000004000400000007"
         "000000";
}
const char* sample(SetKnobRequest& m) {
  m = {"K", 9};
  return "0200010000004b0300080000000900000000000000";
}
const char* sample(SubscriptionSpec& m) {
  m = {SubTopic::kHealth, 2, "s", "p"};
  return "02000100000003030004000000020000000400010000007305000100000070";
}
const char* sample(UnsubscribeRequest& m) {
  m.sub_id = 4;
  return "0600080000000400000000000000";
}
const char* sample(HelloAck& m) {
  m = {1, "surfosd"};
  return "0200020000000100030007000000737572666f7364";
}
const char* sample(SubmitAck& m) {
  m.queue_depth = 2;
  return "0300080000000200000000000000";
}
const char* sample(StatusReply& m) {
  m.sessions = {{"a", "s", true, 0x11, false, 2, 1}};
  m.queue_depth = 3;
  m.epochs = 4;
  m.health = {sample_health()};
  m.fleet_health = SloState::kDegraded;
  return "02004e0000000100020000000100020001000000610300010000007304000100000001"
         "0500080000001100000000000000060001000000000700080000000200000000000000"
         "0800080000000100000000000000030008000000030000000000000004000800000004"
         "0000000000000005002300000002000100000073030001000000010400080000000500"
         "0000000000000500010000007106000100000001";
}
const char* sample(MetricsReply& m) {
  m = {{1, 2, 3}, 4, 5, 1.5, 6, 7, 8, 9, 10};
  return "0200030000000102030300080000000400000000000000040008000000050000000000"
         "0000050008000000000000000000f83f06000800000006000000000000000700080000"
         "0007000000000000000800080000000800000000000000090008000000090000000000"
         "00000a00080000000a00000000000000";
}
const char* sample(TraceChunk& m) {
  m = {{sample_record()}, 8, 9, true};
  return "04006c0000000200080000000100000000000000030008000000020000000000000004"
         "0008000000030000000000000005000800000004000000000000000600080000000500"
         "0000000000000700010000006e0800010000000109000800000006000000000000000a"
         "0004000000070000000300080000000100000000000000050008000000080000000000"
         "0000060008000000090000000000000007000100000001";
}
const char* sample(SnapshotAck& m) {
  m = {"p", 11};
  return "020001000000700300080000000b00000000000000";
}
const char* sample(KnobsReply& m) {
  m.knobs = {{"K", 1, "d"}};
  return "02002400000001000200000001000200010000004b0300080000000100000000000000"
         "05000100000064";
}
const char* sample(SubscribeAck& m) {
  m = {3, SubTopic::kTraces, 2};
  return "06000800000003000000000000000200010000000203000400000002000000";
}
const char* sample(Error& m) {
  m = {ErrorCode::kNotFound, "m"};
  return "020004000000020000000300010000006d";
}
const char* sample(Event& m) {  // the metrics topic; the others are below
  m.sub_id = 1;
  m.epoch = 2;
  m.baseline = true;
  m.epoch_ms = 1.25;
  m.flush_us = 2.5;
  m.counters = {{"c", 4, true}};
  m.gauges = {{"g", 0.5}};
  m.seq = 1;
  return "0600080000000100000000000000020001000000010700080000000200000000000000"
         "09000800000000000000000000000a0001000000010b0008000000000000000000f43f"
         "0c000800000000000000000004400d0015000000020001000000630300080000000400"
         "0000000000000e001500000002000100000067040008000000000000000000e03f0800"
         "080000000100000000000000";
}

template <typename T>
class MessageCodec : public ::testing::Test {};

using MessageTypes =
    ::testing::Types<HelloRequest, SubmitRequest, AppRequest, TracesRequest,
                     SetKnobRequest, SubscriptionSpec, UnsubscribeRequest,
                     HelloAck, SubmitAck, StatusReply, MetricsReply,
                     TraceChunk, SnapshotAck, KnobsReply, SubscribeAck, Error,
                     Event>;

struct MessageName {
  template <typename T>
  static std::string GetName(int) {
    const std::string name = ::testing::internal::GetTypeName<T>();
    return name.substr(name.rfind(':') + 1);
  }
};

TYPED_TEST_SUITE(MessageCodec, MessageTypes, MessageName);

// Old clients and epochbench read these bytes: the codec must reproduce the
// layout of the encoders it replaced, field order included.
TYPED_TEST(MessageCodec, MatchesGoldenBytes) {
  TypeParam msg;
  const char* golden = sample(msg);
  EXPECT_EQ(hex(encode(msg)), golden);
}

TYPED_TEST(MessageCodec, RoundTrips) {
  TypeParam msg;
  (void)sample(msg);
  const auto bytes = encode(msg);
  TypeParam out;
  (void)sample(out);  // from_wire must reset, not merge
  ASSERT_TRUE(from_wire(bytes, out).ok());
  EXPECT_EQ(encode(out), bytes);
  // An unknown tag from a newer peer is skipped.
  auto extended = bytes;
  TlvWriter(extended).put_string(999, "field from the future");
  ASSERT_TRUE(from_wire(extended, out).ok());
  EXPECT_EQ(encode(out), bytes);
}

// The daemon decodes requests from any client: truncation, garbage and bit
// flips give an error or a value, never an exception.
TYPED_TEST(MessageCodec, DamagedBytesNeverThrow) {
  TypeParam msg;
  (void)sample(msg);
  const auto bytes = encode(msg);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    TypeParam out;
    EXPECT_NO_THROW((void)from_wire(
        std::span<const std::uint8_t>(bytes.data(), cut), out));
  }
  proto::Lcg rng;
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> garbage(static_cast<std::size_t>(round) * 3);
    for (auto& b : garbage) b = rng.next();
    std::vector<std::uint8_t> flipped = bytes;
    flipped[rng.next() % flipped.size()] ^=
        static_cast<std::uint8_t>(1u << (rng.next() % 8));
    TypeParam out;
    EXPECT_NO_THROW((void)from_wire(garbage, out));
    EXPECT_NO_THROW((void)from_wire(flipped, out));
  }
}

TEST(Messages, WrongWidthOrTruncationIsMalformed) {
  std::vector<std::uint8_t> wide;
  TlvWriter(wide).put_u32(tag::kQueueDepth, 2);  // a u64 field
  SubmitAck ack;
  EXPECT_EQ(from_wire(wide, ack).code(), ErrorCode::kMalformedFrame);
  const auto bytes = encode(SubmitAck{2});
  EXPECT_EQ(from_wire(std::span<const std::uint8_t>(bytes.data(), 9), ack)
                .code(),
            ErrorCode::kMalformedFrame);
  // Enum fields outside their wire values are malformed too.
  std::vector<std::uint8_t> topic;
  TlvWriter(topic).put_u8(tag::kSubTopic, 200);
  SubscriptionSpec spec;
  EXPECT_EQ(from_wire(topic, spec).code(), ErrorCode::kMalformedFrame);
}

TEST(Messages, UnversionedRecordsNeedNoVersionTag) {
  // Site health, trace events and metric samples never carried tag 1.
  SiteHealth health;
  ASSERT_TRUE(from_wire(encode(sample_health()), health).ok());
  EXPECT_EQ(health.reason, "q");
  TraceRecord record;
  ASSERT_TRUE(from_wire(encode(sample_record()), record).ok());
  EXPECT_EQ(record.name, "n");
  telemetry::GaugeSample gauge;
  ASSERT_TRUE(from_wire(encode(telemetry::GaugeSample{"g", 0.5}), gauge).ok());
  EXPECT_EQ(gauge.value, 0.5);
  // The session and knob rows did, and still require it.
  SessionRow row;
  std::vector<std::uint8_t> bare;
  TlvWriter(bare).put_string(tag::kSessionApp, "a");
  EXPECT_EQ(from_wire(bare, row).code(), ErrorCode::kMalformedFrame);
}

TEST(Messages, PublisherEventsMatchGoldenBytes) {
  // Each topic's kEvent payload as the subscription publisher writes it:
  // kEventSeq after the body, and the metrics-only fields only on metrics.
  SubscriptionRegistry registry;
  registry.add_connection(7);
  for (const SubTopic topic :
       {SubTopic::kMetrics, SubTopic::kTraces, SubTopic::kHealth}) {
    SubscriptionSpec spec;
    spec.topic = topic;
    ASSERT_TRUE(registry.subscribe(7, spec).ok());
  }
  auto snap = std::make_shared<telemetry::Snapshot>();
  snap->counters.push_back({"c", 4, true});
  snap->gauges.push_back({"g", 0.5});
  const telemetry::TraceEvent trace{
      3, 4, 5, "n", 1, 2, 6, 7, telemetry::TraceEvent::Kind::kInstant};
  const std::vector<telemetry::TraceEvent> traces{trace};
  const std::vector<SiteHealth> health{sample_health()};
  SubscriptionRegistry::EpochContext ctx;
  ctx.epoch = 2;
  ctx.metrics = std::move(snap);
  ctx.epoch_ms = 1.25;
  ctx.flush_us = 2.5;
  ctx.health = &health;
  ctx.trace_events = &traces;
  registry.publish(ctx);

  Event metrics;
  const char* expected[] = {
      sample(metrics),
      "060008000000020000000000000002000100000002070008000000020000000000000009"
      "000800000000000000000000000f006c00000002000800000001000000000000000300"
      "0800000002000000000000000400080000000300000000000000050008000000040000"
      "000000000006000800000005000000000000000700010000006e080001000000010900"
      "0800000006000000000000000a0004000000070000000800080000000100000000000000",
      "060008000000030000000000000002000100000003070008000000020000000000000009"
      "0008000000000000000000000010002300000002000100000073030001000000010400"
      "080000000500000000000000050001000000710800080000000100000000000000",
  };
  const auto frames = registry.take_output(7);
  ASSERT_EQ(frames.size(), 3u);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const proto::FrameDecode decode = proto::try_decode_frame(frames[i]);
    ASSERT_TRUE(decode.frame.has_value());
    EXPECT_EQ(hex(decode.frame->payload), expected[i]) << "topic " << i + 1;
  }
}

}  // namespace
}  // namespace surfos::daemon
