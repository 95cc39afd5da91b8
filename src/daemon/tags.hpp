// Payload TLV tags of the surfosd request/reply messages (proto/wire.hpp
// frames them; these are the per-message tag namespaces inside the payload).
// Shared by the daemon's handlers and the CLI clients. Wire-stable: append
// only, never renumber; readers skip unknown tags.
#pragma once

#include <cstdint>

namespace surfos::daemon::tag {

// Requests (kSubmitDemand / kStopApp / kResumeApp / kGetStatus): which app,
// where, what demand.
inline constexpr std::uint16_t kAppId = 2;
inline constexpr std::uint16_t kSiteId = 3;
inline constexpr std::uint16_t kDemand = 4;  ///< Nested AppDemand TLVs.
inline constexpr std::uint16_t kPriority = 5;

// kError replies.
inline constexpr std::uint16_t kErrorCode = 2;
inline constexpr std::uint16_t kErrorMessage = 3;

// kHello / kHelloAck.
inline constexpr std::uint16_t kMaxVersion = 2;
inline constexpr std::uint16_t kChosenVersion = 2;
inline constexpr std::uint16_t kServerName = 3;

// kStatusReply.
inline constexpr std::uint16_t kSession = 2;  ///< Repeated, nested (below).
inline constexpr std::uint16_t kQueueDepth = 3;
inline constexpr std::uint16_t kStatusEpochs = 4;
inline constexpr std::uint16_t kSiteHealth = 5;   ///< Repeated, nested (below).
inline constexpr std::uint16_t kFleetHealth = 6;  ///< u8 SloState (worst site).
// ... nested session record:
inline constexpr std::uint16_t kSessionApp = 2;
inline constexpr std::uint16_t kSessionSite = 3;
inline constexpr std::uint16_t kSessionRunning = 4;
inline constexpr std::uint16_t kSessionTrace = 5;
inline constexpr std::uint16_t kSessionSatisfied = 6;
inline constexpr std::uint16_t kSessionTasksTotal = 7;
inline constexpr std::uint16_t kSessionTasksMet = 8;

// kMetricsReply.
inline constexpr std::uint16_t kReport = 2;  ///< Serialized FleetReport.
inline constexpr std::uint16_t kEpochs = 3;
inline constexpr std::uint16_t kRebuilds = 4;
inline constexpr std::uint16_t kLastEpochMs = 5;
inline constexpr std::uint16_t kRequests = 6;
// Precompute-store snapshot (appended in PR 10; old clients skip unknown
// tags, old servers simply omit them).
inline constexpr std::uint16_t kPrecomputeHits = 7;       ///< u64.
inline constexpr std::uint16_t kPrecomputeMisses = 8;     ///< u64.
inline constexpr std::uint16_t kPrecomputeBytes = 9;      ///< u64 resident.
inline constexpr std::uint16_t kPrecomputeEvictions = 10; ///< u64.

// kStreamTraces request: cursor-based pagination (see proto/wire.hpp for
// the semantics). A request with none of these tags gets the first page.
inline constexpr std::uint16_t kTraceCursorTs = 2;    ///< u64 ts_ns.
inline constexpr std::uint16_t kTraceCursorSpan = 3;  ///< u64 span id.
inline constexpr std::uint16_t kTraceLimit = 4;       ///< u32 page size.

// kTraceChunk. Tag 2 (kTraceJson, the retired one-shot Chrome-JSON reply)
// is reserved and never reused.
inline constexpr std::uint16_t kEventCount = 3;
inline constexpr std::uint16_t kTraceEvent = 4;   ///< Repeated, nested (below).
inline constexpr std::uint16_t kTraceNextTs = 5;  ///< Cursor for next page.
inline constexpr std::uint16_t kTraceNextSpan = 6;
inline constexpr std::uint16_t kTraceDone = 7;  ///< u8: 1 = buffer drained.
// ... nested trace-event record (kTraceChunk pages and kEvent trace topic):
inline constexpr std::uint16_t kEvTs = 2;
inline constexpr std::uint16_t kEvDur = 3;
inline constexpr std::uint16_t kEvTrace = 4;
inline constexpr std::uint16_t kEvSpan = 5;
inline constexpr std::uint16_t kEvParent = 6;
inline constexpr std::uint16_t kEvName = 7;
inline constexpr std::uint16_t kEvKind = 8;  ///< u8 TraceEvent::Kind.
inline constexpr std::uint16_t kEvArg = 9;
inline constexpr std::uint16_t kEvTid = 10;

// kSnapshot success payload.
inline constexpr std::uint16_t kPath = 2;
inline constexpr std::uint16_t kBytes = 3;

// kSetKnob request / kKnobsReply.
inline constexpr std::uint16_t kKnobName = 2;
inline constexpr std::uint16_t kKnobValue = 3;
inline constexpr std::uint16_t kKnob = 2;  ///< Repeated nested in kKnobsReply.
// Nested tag 4 (kKnobHasValue) is reserved: every row carries a value.
inline constexpr std::uint16_t kKnobDoc = 5;

// kSubscribe / kSubscribeAck / kUnsubscribe / kEvent (one shared
// subscription namespace; kEvent frames always carry kSubId + kSubTopic so
// a client multiplexing several subscriptions on one connection can route).
inline constexpr std::uint16_t kSubTopic = 2;     ///< u8 SubTopic.
inline constexpr std::uint16_t kSubInterval = 3;  ///< u32 epochs between events.
inline constexpr std::uint16_t kSubSite = 4;      ///< Site filter (health).
inline constexpr std::uint16_t kSubPrefix = 5;    ///< Name-prefix filter.
inline constexpr std::uint16_t kSubId = 6;        ///< u64 subscription id.
inline constexpr std::uint16_t kEventEpoch = 7;   ///< Epoch of this event.
inline constexpr std::uint16_t kEventSeq = 8;     ///< Per-sub sequence number.
inline constexpr std::uint16_t kDroppedEvents = 9;  ///< Cumulative drops.
inline constexpr std::uint16_t kEventBaseline = 10;  ///< u8: full resync.
inline constexpr std::uint16_t kEventEpochMs = 11;   ///< f64 epoch wall ms.
inline constexpr std::uint16_t kEventFlushUs = 12;   ///< f64 HAL actuate us.
inline constexpr std::uint16_t kEventCounter = 13;  ///< Repeated, nested.
inline constexpr std::uint16_t kEventGauge = 14;    ///< Repeated, nested.
inline constexpr std::uint16_t kEventTrace = 15;  ///< Nested trace-event rec.
inline constexpr std::uint16_t kEventSiteHealth = 16;  ///< Nested (below).
// ... nested metric record (kEventCounter / kEventGauge):
inline constexpr std::uint16_t kMetricName = 2;
inline constexpr std::uint16_t kMetricU64 = 3;  ///< Counter value.
inline constexpr std::uint16_t kMetricF64 = 4;  ///< Gauge value (bit pattern).
// ... nested site-health record (kEventSiteHealth and kStatusReply's
// kSiteHealth):
inline constexpr std::uint16_t kHealthSite = 2;
inline constexpr std::uint16_t kHealthState = 3;   ///< u8 SloState.
inline constexpr std::uint16_t kHealthEpochs = 4;  ///< Epochs in this state.
inline constexpr std::uint16_t kHealthReason = 5;

}  // namespace surfos::daemon::tag
