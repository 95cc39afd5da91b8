// surfosd wire protocol: versioned, length-prefixed frames of TLV records.
//
// The daemon control channel (ROADMAP item 1, ka9q-radio's status/command
// packet architecture) runs over a byte stream — a Unix-domain socket today,
// UDP-sized frames by construction (every frame fits one datagram under the
// 1 MiB cap). Layout, all integers little-endian:
//
//   0..3   u32 payload length N (bytes after the 8-byte fixed header)
//   4      u8  protocol version (kProtoVersion)
//   5      u8  message type (MsgType)
//   6..7   u16 reserved (0)
//   8..15  u64 trace id — request: minted by the client (or 0 = "daemon
//          mints"); reply: ALWAYS the request's id echoed back, so the
//          PR 4/7 admit->applied trace join extends across the process
//          boundary (the daemon handles the request under a TraceScope of
//          this id, so its flight-recorder spans carry it too)
//   16..   N bytes of TLV records
//
// TLV record: u16 tag | u32 length | `length` value bytes. Tags are
// per-message (and per-struct, see proto/serialize.hpp) namespaces; readers
// MUST skip unknown tags, which is what lets an old client talk to a new
// daemon and vice versa. Compound values nest another TLV stream inside a
// record.
//
// Error handling is Result-based end to end (core/status.hpp): a malformed
// frame can never throw across the socket boundary, and decode errors carry
// the wire-stable codes kMalformedFrame / kUnsupportedVersion / kOutOfRange.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.hpp"

namespace surfos::proto {

inline constexpr std::uint8_t kProtoVersion = 1;
/// Fixed header: length + version + type + reserved + trace id.
inline constexpr std::size_t kFrameHeaderSize = 16;
/// Hard cap on a frame's TLV payload: anything larger is a malformed or
/// hostile peer, not a real control message.
inline constexpr std::size_t kMaxFramePayload = 1u << 20;

/// Message types. Wire-stable: append only, never renumber.
enum class MsgType : std::uint8_t {
  kHello = 1,         ///< Version negotiation; payload: client max version.
  kHelloAck = 2,      ///< Chosen version + daemon identity.
  kSubmitDemand = 3,  ///< Queue an AppDemand through the admission queue.
  kStopApp = 4,
  kResumeApp = 5,
  kGetStatus = 6,
  kStatusReply = 7,
  kGetMetrics = 8,
  kMetricsReply = 9,
  // kStreamTraces pulls flight-recorder events with cursor-based
  // pagination. The recorder ring holds a bounded window, so a request
  // carries a cursor — the (ts_ns, span_id) pair of the last event the
  // client has seen, plus a page limit — and the reply returns events
  // strictly after that position in the recorder's (ts_ns, span_id) sort
  // order, the cursor for the next page, and a "done" flag once the buffer
  // is drained. Clients loop until done; events evicted by ring wraparound
  // between pages are simply skipped (never duplicated or torn) and show up
  // in the recorder's dropped() count. A request without cursor/limit tags
  // gets the first page (cursor 0, limit 512).
  kStreamTraces = 10,  ///< Pull flight-recorder events (cursor-paginated).
  kTraceChunk = 11,
  kSnapshot = 12,  ///< Write a state snapshot to the daemon's snapshot path.
  kRestore = 13,   ///< Re-load state from the snapshot path.
  kSetKnob = 14,
  kGetKnobs = 15,
  kKnobsReply = 16,
  kShutdown = 17,
  kOk = 18,     ///< Generic success reply (payload per request type).
  kError = 19,  ///< Payload: u16 ErrorCode + string message.
  // Streaming subscriptions (PR 9). A client subscribes to a topic
  // (metrics | traces | health) at an epoch interval; the daemon pushes
  // kEvent frames from then on — the only server-initiated frames in the
  // protocol. Event payloads are delta-encoded against the subscriber's
  // last delivered epoch; a gap in the per-subscription sequence number
  // means the daemon dropped events for a slow reader (counted in the
  // kDroppedEvents tag) and the next metrics event is a full baseline.
  kSubscribe = 20,     ///< Open a subscription: topic, interval, filters.
  kSubscribeAck = 21,  ///< Subscription id + effective interval.
  kEvent = 22,         ///< Server-pushed topic event (delta payload).
  kUnsubscribe = 23,   ///< Close one subscription by id.
};

struct WireFrame {
  std::uint8_t version = kProtoVersion;
  MsgType type = MsgType::kHello;
  std::uint64_t trace_id = 0;
  std::vector<std::uint8_t> payload;  ///< TLV records.
};

/// Serializes a frame. Truncates nothing: payloads over kMaxFramePayload are
/// a caller bug and reported as kOutOfRange.
Result<std::vector<std::uint8_t>> encode_frame(const WireFrame& frame);

struct FrameDecode {
  std::optional<WireFrame> frame;  ///< Set on success.
  std::optional<Error> error;      ///< Set on a fatal (close-worthy) frame.
  /// Bytes consumed from the buffer; 0 means "incomplete, read more".
  std::size_t consumed = 0;
};

/// Attempts to decode one frame from the head of `bytes`. A frame whose
/// declared length exceeds kMaxFramePayload fails immediately (kOutOfRange)
/// without waiting for the bytes; a version we do not speak fails with
/// kUnsupportedVersion but still consumes the frame so the connection can
/// answer with a proper error reply.
FrameDecode try_decode_frame(std::span<const std::uint8_t> bytes);

// --- TLV records -------------------------------------------------------------

class TlvWriter {
 public:
  /// Appends into an external buffer (nested writers share one allocation).
  explicit TlvWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  void put_u8(std::uint16_t tag, std::uint8_t v) { put(tag, &v, 1); }
  void put_u16(std::uint16_t tag, std::uint16_t v);
  void put_u32(std::uint16_t tag, std::uint32_t v);
  void put_u64(std::uint16_t tag, std::uint64_t v);
  /// IEEE-754 bit pattern as u64 — byte-exact round-trip, no printf detour.
  void put_f64(std::uint16_t tag, double v);
  void put_string(std::uint16_t tag, std::string_view v) {
    put(tag, reinterpret_cast<const std::uint8_t*>(v.data()), v.size());
  }
  void put_bytes(std::uint16_t tag, std::span<const std::uint8_t> v) {
    put(tag, v.data(), v.size());
  }
  /// Packed vector of u64 (trace-id lists): 8 bytes per element.
  void put_u64s(std::uint16_t tag, std::span<const std::uint64_t> v);

 private:
  void put(std::uint16_t tag, const std::uint8_t* data, std::size_t size);

  std::vector<std::uint8_t>* out_;
};

struct Tlv {
  std::uint16_t tag = 0;
  std::span<const std::uint8_t> value;
};

/// Forward iterator over a TLV stream. A record whose declared length
/// overruns the buffer stops iteration with truncated() set — the caller
/// maps that to kMalformedFrame.
class TlvReader {
 public:
  explicit TlvReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Next record, or nullopt at end-of-stream / on truncation.
  std::optional<Tlv> next();
  bool truncated() const noexcept { return truncated_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t at_ = 0;
  bool truncated_ = false;
};

// Typed value parsers: exact-size checks, nullopt on mismatch (callers map
// to kMalformedFrame). Integers little-endian, f64 via u64 bit pattern.
std::optional<std::uint8_t> tlv_u8(const Tlv& tlv) noexcept;
std::optional<std::uint16_t> tlv_u16(const Tlv& tlv) noexcept;
std::optional<std::uint32_t> tlv_u32(const Tlv& tlv) noexcept;
std::optional<std::uint64_t> tlv_u64(const Tlv& tlv) noexcept;
std::optional<double> tlv_f64(const Tlv& tlv) noexcept;
std::string tlv_string(const Tlv& tlv);
std::optional<std::vector<std::uint64_t>> tlv_u64s(const Tlv& tlv);

}  // namespace surfos::proto
