// The payloads of surfosd's wire protocol (proto/wire.hpp frames them): one
// plain struct per request, reply, event and nested record, each with one
// append encoder and one decoder. The daemon's handlers, the subscription
// publisher, the CLI tools and the tests all read and write the protocol
// through these, so the format of each message is written down once.
//
// Written in proto/serialize.hpp's idiom:
//   - to_wire(msg, out) appends the payload's TLV stream to `out`, nesting
//     records in place; proto::to_wire(msg) returns a fresh buffer.
//   - from_wire(bytes, msg) resets `msg` and fills it, skipping unknown
//     tags; a wrong field width, an out-of-range enum value or a truncated
//     TLV gives kMalformedFrame and never throws.
//   - Field order is fixed, so equal structs encode to identical bytes.
//
// Tags come from daemon/tags.hpp. The session and knob rows open with a u16
// version tag, like the proto structs; the site-health, trace-event and
// metric records and the top-level payloads carry none. Requests whose
// payload is empty (kGetMetrics, kSnapshot, kRestore, kGetKnobs, kShutdown)
// and the empty kOk replies have no struct.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "broker/demand.hpp"
#include "core/status.hpp"
#include "daemon/slo.hpp"
#include "proto/wire.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"

namespace surfos::daemon {

/// Wire-stable subscription topics (kSubTopic tag): append only.
enum class SubTopic : std::uint8_t {
  kMetrics = 1,  ///< Delta-encoded counter/gauge changes per interval.
  kTraces = 2,   ///< New flight-recorder events since the last event.
  kHealth = 3,   ///< Per-site SLO watchdog verdicts.
};

const char* sub_topic_name(SubTopic topic) noexcept;
/// Parses "metrics" / "traces" / "health" (CLI spelling). 0 on no match.
std::uint8_t parse_sub_topic(const std::string& name) noexcept;

// --- Nested records ----------------------------------------------------------

/// One app session (kStatusReply kSession). Versioned.
struct SessionRow {
  std::string app_id;
  std::string site_id;
  bool running = false;
  std::uint64_t trace_id = 0;
  bool satisfied = false;
  std::uint64_t tasks_total = 0;
  std::uint64_t tasks_met = 0;
};

/// One flight-recorder event (kTraceChunk kTraceEvent, kEvent kEventTrace).
struct TraceRecord {
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::string name;
  telemetry::TraceEvent::Kind kind = telemetry::TraceEvent::Kind::kSpan;
  std::uint64_t arg = 0;
  std::uint32_t thread_index = 0;

  static TraceRecord from_event(const telemetry::TraceEvent& event);
};

/// One knob row (kKnobsReply kKnob). Versioned.
struct KnobRow {
  std::string name;
  std::uint64_t value = 0;
  std::string doc;
};

// SiteHealth (daemon/slo.hpp) is the site-health record (kStatusReply
// kSiteHealth, kEvent kEventSiteHealth); telemetry::CounterSample and
// GaugeSample are the metric records (kEvent kEventCounter / kEventGauge,
// name plus value; `deterministic` is not on the wire).

// --- Requests ----------------------------------------------------------------

/// kHello.
struct HelloRequest {
  std::uint16_t max_version = proto::kProtoVersion;
};

/// kSubmitDemand.
struct SubmitRequest {
  std::string app_id;
  std::string site_id;  ///< Empty = the first site.
  std::optional<broker::AppDemand> demand;
  std::optional<std::uint64_t> priority;  ///< orch::Priority value.
};

/// kStopApp and kResumeApp (which app), kGetStatus (filters; empty = all).
struct AppRequest {
  std::string app_id;
  std::string site_id;
};

/// kStreamTraces: the page after (cursor_ts, cursor_span), at most `limit`
/// events. A payload without these tags asks for the first page.
struct TracesRequest {
  std::uint64_t cursor_ts = 0;
  std::uint64_t cursor_span = 0;
  std::uint32_t limit = 512;
};

/// kSetKnob.
struct SetKnobRequest {
  std::string name;
  std::optional<std::uint64_t> value;
};

/// kSubscribe. The decoder requires a known topic.
struct SubscriptionSpec {
  SubTopic topic = SubTopic::kMetrics;
  std::uint32_t interval = 1;  ///< Epochs between events (clamped >= 1).
  std::string site_filter;     ///< Health topic: only this site.
  std::string prefix;          ///< Metrics/traces: only names with prefix.
};

/// kUnsubscribe. Subscription ids start at 1; 0 = none given.
struct UnsubscribeRequest {
  std::uint64_t sub_id = 0;
};

// --- Replies -----------------------------------------------------------------
//
// Each reply struct (and Event) names its frame type in kType: make_frame()
// stamps it, Client::request() refuses a reply of any other type.

/// kHelloAck.
struct HelloAck {
  static constexpr proto::MsgType kType = proto::MsgType::kHelloAck;
  std::uint16_t chosen_version = 0;
  std::string server_name;
};

/// kOk reply to kSubmitDemand.
struct SubmitAck {
  static constexpr proto::MsgType kType = proto::MsgType::kOk;
  std::uint64_t queue_depth = 0;
};

/// kStatusReply.
struct StatusReply {
  static constexpr proto::MsgType kType = proto::MsgType::kStatusReply;
  std::vector<SessionRow> sessions;
  std::uint64_t queue_depth = 0;
  std::uint64_t epochs = 0;
  std::vector<SiteHealth> health;
  SloState fleet_health = SloState::kHealthy;  ///< Worst site.
};

/// kMetricsReply.
struct MetricsReply {
  static constexpr proto::MsgType kType = proto::MsgType::kMetricsReply;
  /// The last epoch's serialized FleetReport, served verbatim (empty before
  /// the first epoch); decode it with proto::from_wire.
  std::vector<std::uint8_t> report;
  std::uint64_t epochs = 0;
  std::uint64_t env_rebuilds = 0;
  double last_epoch_ms = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t precompute_hits = 0;
  std::uint64_t precompute_misses = 0;
  std::uint64_t precompute_bytes = 0;  ///< Resident.
  std::uint64_t precompute_evictions = 0;
};

/// kTraceChunk: one page and the cursor of the next.
struct TraceChunk {
  static constexpr proto::MsgType kType = proto::MsgType::kTraceChunk;
  std::vector<TraceRecord> events;
  std::uint64_t next_ts = 0;
  std::uint64_t next_span = 0;
  bool done = false;  ///< The recorder is drained.
};

/// kOk reply to kSnapshot.
struct SnapshotAck {
  static constexpr proto::MsgType kType = proto::MsgType::kOk;
  std::string path;
  std::uint64_t bytes = 0;
};

/// kKnobsReply.
struct KnobsReply {
  static constexpr proto::MsgType kType = proto::MsgType::kKnobsReply;
  std::vector<KnobRow> knobs;
};

/// kSubscribeAck.
struct SubscribeAck {
  static constexpr proto::MsgType kType = proto::MsgType::kSubscribeAck;
  std::uint64_t sub_id = 0;
  SubTopic topic = SubTopic::kMetrics;
  std::uint32_t interval = 1;
};

// surfos::Error (core/status.hpp) is the kError payload: u32 code, message.

/// kEvent: one topic's update for one subscription. The metrics fields
/// (baseline, epoch_ms, flush_us) are on the wire only for the metrics
/// topic; kEventSeq is written last.
struct Event {
  static constexpr proto::MsgType kType = proto::MsgType::kEvent;
  std::uint64_t sub_id = 0;
  SubTopic topic = SubTopic::kMetrics;
  std::uint64_t epoch = 0;
  std::uint64_t dropped = 0;  ///< Cumulative events dropped for this sub.
  bool baseline = false;      ///< Full snapshot, not a delta.
  double epoch_ms = 0.0;
  double flush_us = 0.0;
  std::vector<telemetry::CounterSample> counters;
  std::vector<telemetry::GaugeSample> gauges;
  std::vector<TraceRecord> traces;
  std::vector<SiteHealth> health;
  std::uint64_t seq = 0;  ///< Per-subscription sequence number.
};

// --- Codecs ------------------------------------------------------------------

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;

void to_wire(const SessionRow& row, Bytes& out);
Result<void> from_wire(ByteSpan bytes, SessionRow& out);
void to_wire(const SiteHealth& health, Bytes& out);
Result<void> from_wire(ByteSpan bytes, SiteHealth& out);
void to_wire(const TraceRecord& record, Bytes& out);
Result<void> from_wire(ByteSpan bytes, TraceRecord& out);
void to_wire(const telemetry::CounterSample& sample, Bytes& out);
Result<void> from_wire(ByteSpan bytes, telemetry::CounterSample& out);
void to_wire(const telemetry::GaugeSample& sample, Bytes& out);
Result<void> from_wire(ByteSpan bytes, telemetry::GaugeSample& out);
void to_wire(const KnobRow& row, Bytes& out);
Result<void> from_wire(ByteSpan bytes, KnobRow& out);

void to_wire(const HelloRequest& request, Bytes& out);
Result<void> from_wire(ByteSpan bytes, HelloRequest& out);
void to_wire(const SubmitRequest& request, Bytes& out);
Result<void> from_wire(ByteSpan bytes, SubmitRequest& out);
void to_wire(const AppRequest& request, Bytes& out);
Result<void> from_wire(ByteSpan bytes, AppRequest& out);
void to_wire(const TracesRequest& request, Bytes& out);
Result<void> from_wire(ByteSpan bytes, TracesRequest& out);
void to_wire(const SetKnobRequest& request, Bytes& out);
Result<void> from_wire(ByteSpan bytes, SetKnobRequest& out);
void to_wire(const SubscriptionSpec& spec, Bytes& out);
Result<void> from_wire(ByteSpan bytes, SubscriptionSpec& out);
void to_wire(const UnsubscribeRequest& request, Bytes& out);
Result<void> from_wire(ByteSpan bytes, UnsubscribeRequest& out);

void to_wire(const HelloAck& reply, Bytes& out);
Result<void> from_wire(ByteSpan bytes, HelloAck& out);
void to_wire(const SubmitAck& reply, Bytes& out);
Result<void> from_wire(ByteSpan bytes, SubmitAck& out);
void to_wire(const StatusReply& reply, Bytes& out);
Result<void> from_wire(ByteSpan bytes, StatusReply& out);
void to_wire(const MetricsReply& reply, Bytes& out);
Result<void> from_wire(ByteSpan bytes, MetricsReply& out);
void to_wire(const TraceChunk& reply, Bytes& out);
Result<void> from_wire(ByteSpan bytes, TraceChunk& out);
void to_wire(const SnapshotAck& reply, Bytes& out);
Result<void> from_wire(ByteSpan bytes, SnapshotAck& out);
void to_wire(const KnobsReply& reply, Bytes& out);
Result<void> from_wire(ByteSpan bytes, KnobsReply& out);
void to_wire(const SubscribeAck& reply, Bytes& out);
Result<void> from_wire(ByteSpan bytes, SubscribeAck& out);
void to_wire(const Error& error, Bytes& out);
Result<void> from_wire(ByteSpan bytes, Error& out);
void to_wire(const Event& event, Bytes& out);
Result<void> from_wire(ByteSpan bytes, Event& out);

/// A frame of type Msg::kType answering `trace_id`, its payload encoded
/// from `msg`.
template <typename Msg>
proto::WireFrame make_frame(std::uint64_t trace_id, const Msg& msg) {
  proto::WireFrame frame;
  frame.type = Msg::kType;
  frame.trace_id = trace_id;
  to_wire(msg, frame.payload);
  return frame;
}

}  // namespace surfos::daemon
