#include "daemon/messages.hpp"

#include "daemon/tags.hpp"
#include "proto/serialize.hpp"

namespace surfos::daemon {

namespace {

using proto::read_field;
using proto::read_record;
using proto::Tlv;
using proto::TlvWriter;

constexpr std::uint16_t kVersionTag = 1;

/// Reads a u8 enum whose wire values run from `first` to `last`.
template <typename Enum>
bool read_enum(const Tlv& tlv, Enum& out, Enum first, Enum last) {
  std::uint8_t v = 0;
  if (!read_field(tlv, v) || v < static_cast<std::uint8_t>(first) ||
      v > static_cast<std::uint8_t>(last)) {
    return false;
  }
  out = static_cast<Enum>(v);
  return true;
}

bool read_topic(const Tlv& tlv, SubTopic& out) {
  return read_enum(tlv, out, SubTopic::kMetrics, SubTopic::kHealth);
}

/// The overloaded to_wire as one callable, for TlvWriter::nest_each.
constexpr auto kToWire = [](const auto& item, Bytes& out) {
  to_wire(item, out);
};

/// Decodes one nested record and appends it to `items`.
template <typename T>
bool read_nested(const Tlv& tlv, std::vector<T>& items) {
  return from_wire(tlv.value, items.emplace_back()).ok();
}

}  // namespace

const char* sub_topic_name(SubTopic topic) noexcept {
  switch (topic) {
    case SubTopic::kMetrics: return "metrics";
    case SubTopic::kTraces: return "traces";
    case SubTopic::kHealth: return "health";
  }
  return "?";
}

std::uint8_t parse_sub_topic(const std::string& name) noexcept {
  if (name == "metrics") return static_cast<std::uint8_t>(SubTopic::kMetrics);
  if (name == "traces") return static_cast<std::uint8_t>(SubTopic::kTraces);
  if (name == "health") return static_cast<std::uint8_t>(SubTopic::kHealth);
  return 0;
}

// --- Nested records ----------------------------------------------------------

void to_wire(const SessionRow& row, Bytes& out) {
  TlvWriter w(out);
  w.put_u16(kVersionTag, proto::kStructVersion);
  w.put_string(tag::kSessionApp, row.app_id);
  w.put_string(tag::kSessionSite, row.site_id);
  w.put_u8(tag::kSessionRunning, row.running ? 1 : 0);
  w.put_u64(tag::kSessionTrace, row.trace_id);
  w.put_u8(tag::kSessionSatisfied, row.satisfied ? 1 : 0);
  w.put_u64(tag::kSessionTasksTotal, row.tasks_total);
  w.put_u64(tag::kSessionTasksMet, row.tasks_met);
}

Result<void> from_wire(ByteSpan bytes, SessionRow& out) {
  return read_record(bytes, out, "SessionRow", true, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kSessionApp: return read_field(tlv, out.app_id);
      case tag::kSessionSite: return read_field(tlv, out.site_id);
      case tag::kSessionRunning: return read_field(tlv, out.running);
      case tag::kSessionTrace: return read_field(tlv, out.trace_id);
      case tag::kSessionSatisfied: return read_field(tlv, out.satisfied);
      case tag::kSessionTasksTotal: return read_field(tlv, out.tasks_total);
      case tag::kSessionTasksMet: return read_field(tlv, out.tasks_met);
      default: return true;
    }
  });
}

void to_wire(const SiteHealth& health, Bytes& out) {
  TlvWriter w(out);
  w.put_string(tag::kHealthSite, health.site_id);
  w.put_u8(tag::kHealthState, static_cast<std::uint8_t>(health.state));
  w.put_u64(tag::kHealthEpochs, health.epochs_in_state);
  w.put_string(tag::kHealthReason, health.reason);
}

Result<void> from_wire(ByteSpan bytes, SiteHealth& out) {
  return read_record(bytes, out, "SiteHealth", false, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kHealthSite: return read_field(tlv, out.site_id);
      case tag::kHealthState:
        return read_enum(tlv, out.state, SloState::kHealthy,
                         SloState::kUnhealthy);
      case tag::kHealthEpochs: return read_field(tlv, out.epochs_in_state);
      case tag::kHealthReason: return read_field(tlv, out.reason);
      default: return true;
    }
  });
}

TraceRecord TraceRecord::from_event(const telemetry::TraceEvent& e) {
  return {e.ts_ns, e.dur_ns, e.trace_id, e.span_id, e.parent_span_id,
          e.name != nullptr ? e.name : "", e.kind, e.arg, e.thread_index};
}

void to_wire(const TraceRecord& record, Bytes& out) {
  TlvWriter w(out);
  w.put_u64(tag::kEvTs, record.ts_ns);
  w.put_u64(tag::kEvDur, record.dur_ns);
  w.put_u64(tag::kEvTrace, record.trace_id);
  w.put_u64(tag::kEvSpan, record.span_id);
  w.put_u64(tag::kEvParent, record.parent_span_id);
  w.put_string(tag::kEvName, record.name);
  w.put_u8(tag::kEvKind, static_cast<std::uint8_t>(record.kind));
  w.put_u64(tag::kEvArg, record.arg);
  w.put_u32(tag::kEvTid, record.thread_index);
}

Result<void> from_wire(ByteSpan bytes, TraceRecord& out) {
  using Kind = telemetry::TraceEvent::Kind;
  return read_record(bytes, out, "TraceRecord", false, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kEvTs: return read_field(tlv, out.ts_ns);
      case tag::kEvDur: return read_field(tlv, out.dur_ns);
      case tag::kEvTrace: return read_field(tlv, out.trace_id);
      case tag::kEvSpan: return read_field(tlv, out.span_id);
      case tag::kEvParent: return read_field(tlv, out.parent_span_id);
      case tag::kEvName: return read_field(tlv, out.name);
      case tag::kEvKind:
        return read_enum(tlv, out.kind, Kind::kSpan, Kind::kInstant);
      case tag::kEvArg: return read_field(tlv, out.arg);
      case tag::kEvTid: return read_field(tlv, out.thread_index);
      default: return true;
    }
  });
}

void to_wire(const telemetry::CounterSample& sample, Bytes& out) {
  TlvWriter w(out);
  w.put_string(tag::kMetricName, sample.name);
  w.put_u64(tag::kMetricU64, sample.value);
}

Result<void> from_wire(ByteSpan bytes, telemetry::CounterSample& out) {
  return read_record(bytes, out, "CounterSample", false, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kMetricName: return read_field(tlv, out.name);
      case tag::kMetricU64: return read_field(tlv, out.value);
      default: return true;
    }
  });
}

void to_wire(const telemetry::GaugeSample& sample, Bytes& out) {
  TlvWriter w(out);
  w.put_string(tag::kMetricName, sample.name);
  w.put_f64(tag::kMetricF64, sample.value);
}

Result<void> from_wire(ByteSpan bytes, telemetry::GaugeSample& out) {
  return read_record(bytes, out, "GaugeSample", false, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kMetricName: return read_field(tlv, out.name);
      case tag::kMetricF64: return read_field(tlv, out.value);
      default: return true;
    }
  });
}

void to_wire(const KnobRow& row, Bytes& out) {
  TlvWriter w(out);
  w.put_u16(kVersionTag, proto::kStructVersion);
  w.put_string(tag::kKnobName, row.name);
  w.put_u64(tag::kKnobValue, row.value);
  w.put_string(tag::kKnobDoc, row.doc);
}

Result<void> from_wire(ByteSpan bytes, KnobRow& out) {
  return read_record(bytes, out, "KnobRow", true, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kKnobName: return read_field(tlv, out.name);
      case tag::kKnobValue: return read_field(tlv, out.value);
      case tag::kKnobDoc: return read_field(tlv, out.doc);
      default: return true;
    }
  });
}

// --- Requests ----------------------------------------------------------------

void to_wire(const HelloRequest& request, Bytes& out) {
  TlvWriter(out).put_u16(tag::kMaxVersion, request.max_version);
}

Result<void> from_wire(ByteSpan bytes, HelloRequest& out) {
  return read_record(bytes, out, "HelloRequest", false, [&](const Tlv& tlv) {
    return tlv.tag != tag::kMaxVersion || read_field(tlv, out.max_version);
  });
}

void to_wire(const SubmitRequest& request, Bytes& out) {
  TlvWriter w(out);
  if (!request.app_id.empty()) w.put_string(tag::kAppId, request.app_id);
  if (!request.site_id.empty()) w.put_string(tag::kSiteId, request.site_id);
  if (request.demand) {
    w.nest(tag::kDemand,
           [&](Bytes& body) { proto::to_wire(*request.demand, body); });
  }
  if (request.priority) w.put_u64(tag::kPriority, *request.priority);
}

Result<void> from_wire(ByteSpan bytes, SubmitRequest& out) {
  return read_record(bytes, out, "SubmitRequest", false, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kAppId: return read_field(tlv, out.app_id);
      case tag::kSiteId: return read_field(tlv, out.site_id);
      case tag::kDemand:
        return proto::from_wire(tlv.value, out.demand.emplace()).ok();
      case tag::kPriority: return read_field(tlv, out.priority);
      default: return true;
    }
  });
}

void to_wire(const AppRequest& request, Bytes& out) {
  TlvWriter w(out);
  if (!request.app_id.empty()) w.put_string(tag::kAppId, request.app_id);
  if (!request.site_id.empty()) w.put_string(tag::kSiteId, request.site_id);
}

Result<void> from_wire(ByteSpan bytes, AppRequest& out) {
  return read_record(bytes, out, "AppRequest", false, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kAppId: return read_field(tlv, out.app_id);
      case tag::kSiteId: return read_field(tlv, out.site_id);
      default: return true;
    }
  });
}

void to_wire(const TracesRequest& request, Bytes& out) {
  TlvWriter w(out);
  w.put_u64(tag::kTraceCursorTs, request.cursor_ts);
  w.put_u64(tag::kTraceCursorSpan, request.cursor_span);
  w.put_u32(tag::kTraceLimit, request.limit);
}

Result<void> from_wire(ByteSpan bytes, TracesRequest& out) {
  return read_record(bytes, out, "TracesRequest", false, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kTraceCursorTs: return read_field(tlv, out.cursor_ts);
      case tag::kTraceCursorSpan: return read_field(tlv, out.cursor_span);
      case tag::kTraceLimit: return read_field(tlv, out.limit);
      default: return true;
    }
  });
}

void to_wire(const SetKnobRequest& request, Bytes& out) {
  TlvWriter w(out);
  w.put_string(tag::kKnobName, request.name);
  if (request.value) w.put_u64(tag::kKnobValue, *request.value);
}

Result<void> from_wire(ByteSpan bytes, SetKnobRequest& out) {
  return read_record(bytes, out, "SetKnobRequest", false, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kKnobName: return read_field(tlv, out.name);
      case tag::kKnobValue: return read_field(tlv, out.value);
      default: return true;
    }
  });
}

void to_wire(const SubscriptionSpec& spec, Bytes& out) {
  TlvWriter w(out);
  w.put_u8(tag::kSubTopic, static_cast<std::uint8_t>(spec.topic));
  w.put_u32(tag::kSubInterval, spec.interval);
  if (!spec.site_filter.empty()) w.put_string(tag::kSubSite, spec.site_filter);
  if (!spec.prefix.empty()) w.put_string(tag::kSubPrefix, spec.prefix);
}

Result<void> from_wire(ByteSpan bytes, SubscriptionSpec& out) {
  bool have_topic = false;
  Result<void> read =
      read_record(bytes, out, "SubscriptionSpec", false, [&](const Tlv& tlv) {
        switch (tlv.tag) {
          case tag::kSubTopic: return have_topic = read_topic(tlv, out.topic);
          case tag::kSubInterval: return read_field(tlv, out.interval);
          case tag::kSubSite: return read_field(tlv, out.site_filter);
          case tag::kSubPrefix: return read_field(tlv, out.prefix);
          default: return true;
        }
      });
  if (read.ok() && !have_topic) {
    return make_error(ErrorCode::kMalformedFrame,
                      "subscribe needs a topic (metrics|traces|health)");
  }
  return read;
}

void to_wire(const UnsubscribeRequest& request, Bytes& out) {
  TlvWriter(out).put_u64(tag::kSubId, request.sub_id);
}

Result<void> from_wire(ByteSpan bytes, UnsubscribeRequest& out) {
  const auto field = [&](const Tlv& tlv) {
    return tlv.tag != tag::kSubId || read_field(tlv, out.sub_id);
  };
  return read_record(bytes, out, "UnsubscribeRequest", false, field);
}

// --- Replies -----------------------------------------------------------------

void to_wire(const HelloAck& reply, Bytes& out) {
  TlvWriter w(out);
  w.put_u16(tag::kChosenVersion, reply.chosen_version);
  w.put_string(tag::kServerName, reply.server_name);
}

Result<void> from_wire(ByteSpan bytes, HelloAck& out) {
  return read_record(bytes, out, "HelloAck", false, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kChosenVersion: return read_field(tlv, out.chosen_version);
      case tag::kServerName: return read_field(tlv, out.server_name);
      default: return true;
    }
  });
}

void to_wire(const SubmitAck& reply, Bytes& out) {
  TlvWriter(out).put_u64(tag::kQueueDepth, reply.queue_depth);
}

Result<void> from_wire(ByteSpan bytes, SubmitAck& out) {
  return read_record(bytes, out, "SubmitAck", false, [&](const Tlv& tlv) {
    return tlv.tag != tag::kQueueDepth || read_field(tlv, out.queue_depth);
  });
}

void to_wire(const StatusReply& reply, Bytes& out) {
  TlvWriter w(out);
  w.nest_each(tag::kSession, reply.sessions, kToWire);
  w.put_u64(tag::kQueueDepth, reply.queue_depth);
  w.put_u64(tag::kStatusEpochs, reply.epochs);
  w.nest_each(tag::kSiteHealth, reply.health, kToWire);
  w.put_u8(tag::kFleetHealth, static_cast<std::uint8_t>(reply.fleet_health));
}

Result<void> from_wire(ByteSpan bytes, StatusReply& out) {
  return read_record(bytes, out, "StatusReply", false, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kSession: return read_nested(tlv, out.sessions);
      case tag::kQueueDepth: return read_field(tlv, out.queue_depth);
      case tag::kStatusEpochs: return read_field(tlv, out.epochs);
      case tag::kSiteHealth: return read_nested(tlv, out.health);
      case tag::kFleetHealth:
        return read_enum(tlv, out.fleet_health, SloState::kHealthy,
                         SloState::kUnhealthy);
      default: return true;
    }
  });
}

void to_wire(const MetricsReply& reply, Bytes& out) {
  TlvWriter w(out);
  w.put_bytes(tag::kReport, reply.report);
  w.put_u64(tag::kEpochs, reply.epochs);
  w.put_u64(tag::kRebuilds, reply.env_rebuilds);
  w.put_f64(tag::kLastEpochMs, reply.last_epoch_ms);
  w.put_u64(tag::kRequests, reply.requests);
  w.put_u64(tag::kPrecomputeHits, reply.precompute_hits);
  w.put_u64(tag::kPrecomputeMisses, reply.precompute_misses);
  w.put_u64(tag::kPrecomputeBytes, reply.precompute_bytes);
  w.put_u64(tag::kPrecomputeEvictions, reply.precompute_evictions);
}

Result<void> from_wire(ByteSpan bytes, MetricsReply& out) {
  return read_record(bytes, out, "MetricsReply", false, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kReport:
        out.report.assign(tlv.value.begin(), tlv.value.end());
        return true;
      case tag::kEpochs: return read_field(tlv, out.epochs);
      case tag::kRebuilds: return read_field(tlv, out.env_rebuilds);
      case tag::kLastEpochMs: return read_field(tlv, out.last_epoch_ms);
      case tag::kRequests: return read_field(tlv, out.requests);
      case tag::kPrecomputeHits: return read_field(tlv, out.precompute_hits);
      case tag::kPrecomputeMisses:
        return read_field(tlv, out.precompute_misses);
      case tag::kPrecomputeBytes: return read_field(tlv, out.precompute_bytes);
      case tag::kPrecomputeEvictions:
        return read_field(tlv, out.precompute_evictions);
      default: return true;
    }
  });
}

void to_wire(const TraceChunk& reply, Bytes& out) {
  TlvWriter w(out);
  w.nest_each(tag::kTraceEvent, reply.events, kToWire);
  w.put_u64(tag::kEventCount, reply.events.size());  // decoders skip it
  w.put_u64(tag::kTraceNextTs, reply.next_ts);
  w.put_u64(tag::kTraceNextSpan, reply.next_span);
  w.put_u8(tag::kTraceDone, reply.done ? 1 : 0);
}

Result<void> from_wire(ByteSpan bytes, TraceChunk& out) {
  return read_record(bytes, out, "TraceChunk", false, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kTraceEvent: return read_nested(tlv, out.events);
      case tag::kTraceNextTs: return read_field(tlv, out.next_ts);
      case tag::kTraceNextSpan: return read_field(tlv, out.next_span);
      case tag::kTraceDone: return read_field(tlv, out.done);
      default: return true;
    }
  });
}

void to_wire(const SnapshotAck& reply, Bytes& out) {
  TlvWriter w(out);
  w.put_string(tag::kPath, reply.path);
  w.put_u64(tag::kBytes, reply.bytes);
}

Result<void> from_wire(ByteSpan bytes, SnapshotAck& out) {
  return read_record(bytes, out, "SnapshotAck", false, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kPath: return read_field(tlv, out.path);
      case tag::kBytes: return read_field(tlv, out.bytes);
      default: return true;
    }
  });
}

void to_wire(const KnobsReply& reply, Bytes& out) {
  TlvWriter w(out);
  w.nest_each(tag::kKnob, reply.knobs, kToWire);
}

Result<void> from_wire(ByteSpan bytes, KnobsReply& out) {
  return read_record(bytes, out, "KnobsReply", false, [&](const Tlv& tlv) {
    return tlv.tag != tag::kKnob || read_nested(tlv, out.knobs);
  });
}

void to_wire(const SubscribeAck& reply, Bytes& out) {
  TlvWriter w(out);
  w.put_u64(tag::kSubId, reply.sub_id);
  w.put_u8(tag::kSubTopic, static_cast<std::uint8_t>(reply.topic));
  w.put_u32(tag::kSubInterval, reply.interval);
}

Result<void> from_wire(ByteSpan bytes, SubscribeAck& out) {
  return read_record(bytes, out, "SubscribeAck", false, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kSubId: return read_field(tlv, out.sub_id);
      case tag::kSubTopic: return read_topic(tlv, out.topic);
      case tag::kSubInterval: return read_field(tlv, out.interval);
      default: return true;
    }
  });
}

void to_wire(const Error& error, Bytes& out) {
  TlvWriter w(out);
  w.put_u32(tag::kErrorCode, static_cast<std::uint32_t>(error.code));
  w.put_string(tag::kErrorMessage, error.message);
}

Result<void> from_wire(ByteSpan bytes, Error& out) {
  return read_record(bytes, out, "Error", false, [&](const Tlv& tlv) {
    std::uint32_t code = 0;
    switch (tlv.tag) {
      case tag::kErrorCode:
        if (!read_field(tlv, code)) return false;
        out.code = static_cast<ErrorCode>(code);
        return true;
      case tag::kErrorMessage: return read_field(tlv, out.message);
      default: return true;
    }
  });
}

void to_wire(const Event& event, Bytes& out) {
  TlvWriter w(out);
  w.put_u64(tag::kSubId, event.sub_id);
  w.put_u8(tag::kSubTopic, static_cast<std::uint8_t>(event.topic));
  w.put_u64(tag::kEventEpoch, event.epoch);
  w.put_u64(tag::kDroppedEvents, event.dropped);
  if (event.topic == SubTopic::kMetrics) {
    w.put_u8(tag::kEventBaseline, event.baseline ? 1 : 0);
    w.put_f64(tag::kEventEpochMs, event.epoch_ms);
    w.put_f64(tag::kEventFlushUs, event.flush_us);
  }
  w.nest_each(tag::kEventCounter, event.counters, kToWire);
  w.nest_each(tag::kEventGauge, event.gauges, kToWire);
  w.nest_each(tag::kEventTrace, event.traces, kToWire);
  w.nest_each(tag::kEventSiteHealth, event.health, kToWire);
  w.put_u64(tag::kEventSeq, event.seq);
}

Result<void> from_wire(ByteSpan bytes, Event& out) {
  return read_record(bytes, out, "Event", false, [&](const Tlv& tlv) {
    switch (tlv.tag) {
      case tag::kSubId: return read_field(tlv, out.sub_id);
      case tag::kSubTopic: return read_topic(tlv, out.topic);
      case tag::kEventEpoch: return read_field(tlv, out.epoch);
      case tag::kDroppedEvents: return read_field(tlv, out.dropped);
      case tag::kEventBaseline: return read_field(tlv, out.baseline);
      case tag::kEventEpochMs: return read_field(tlv, out.epoch_ms);
      case tag::kEventFlushUs: return read_field(tlv, out.flush_us);
      case tag::kEventCounter: return read_nested(tlv, out.counters);
      case tag::kEventGauge: return read_nested(tlv, out.gauges);
      case tag::kEventTrace: return read_nested(tlv, out.traces);
      case tag::kEventSiteHealth: return read_nested(tlv, out.health);
      case tag::kEventSeq: return read_field(tlv, out.seq);
      default: return true;
    }
  });
}

}  // namespace surfos::daemon
