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
// per-message (daemon/tags.hpp, daemon/messages.hpp) and per-struct (see
// proto/serialize.hpp) namespaces; readers MUST skip unknown tags, which is
// what lets an old client talk to a new daemon and vice versa. Compound
// values nest another TLV stream inside a record, written in place
// (TlvWriter::nest).
//
// The codec is inline and runs at memory speed: a field write grows the
// buffer once and stores header and value through a pointer, and a field
// read is one fixed-width load (store_le/load_le below). The daemon's
// biggest payload, the FleetReport, is written per site on the pool
// (proto/serialize.hpp).
//
// Error handling is Result-based end to end (core/status.hpp): a malformed
// frame can never throw across the socket boundary, and decode errors carry
// the wire-stable codes kMalformedFrame / kUnsupportedVersion / kOutOfRange.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
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

// The little-endian fixed-width integer codec of the frame header, the TLV
// fields and the snapshot file header. Every write grows its buffer once
// and then stores through a pointer; a fixed width folds to one store or
// load.

/// Stores the low N bytes of `v` at `p`, little-endian.
template <std::size_t N>
inline void store_le(std::uint8_t* p, std::uint64_t v) noexcept {
  static_assert(N >= 1 && N <= 8);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, N);
  } else {
    for (std::size_t i = 0; i < N; ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

/// Reads N little-endian bytes at `p` (the caller checks bounds).
template <std::size_t N>
inline std::uint64_t load_le(const std::uint8_t* p) noexcept {
  static_assert(N >= 1 && N <= 8);
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, N);
  } else {
    for (std::size_t i = 0; i < N; ++i) {
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
  }
  return v;
}

/// Grows `out` by `n` bytes (one resize) and returns the first new byte.
inline std::uint8_t* grow(std::vector<std::uint8_t>& out, std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + n);
  return out.data() + at;
}

/// Appends the low `bytes` bytes of `v`, or reads `bytes` bytes at `at`
/// (the caller checks bounds); `bytes` is 1..8.
inline void append_le(std::vector<std::uint8_t>& out, std::uint64_t v,
                      int bytes) {
  std::uint8_t* p = grow(out, static_cast<std::size_t>(bytes));
  for (int i = 0; i < bytes; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}
inline std::uint64_t read_le(std::span<const std::uint8_t> in,
                             std::size_t at, int bytes) {
  const std::uint8_t* p = in.data() + at;
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

/// Serializes a frame. Truncates nothing: payloads over kMaxFramePayload are
/// a caller bug and reported as kOutOfRange.
Result<std::vector<std::uint8_t>> encode_frame(const WireFrame& frame);
/// The first kFrameHeaderSize bytes of encode_frame(frame): the frame's
/// bytes are these followed by frame.payload.
Result<std::vector<std::uint8_t>> encode_frame_header(const WireFrame& frame);

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

/// TLV record header: u16 tag + u32 length.
inline constexpr std::size_t kTlvHeaderSize = 6;

/// Every put_* grows the buffer once, by header + value, and stores both
/// through a pointer.
class TlvWriter {
 public:
  /// Appends into an external buffer (nested writers share one allocation).
  explicit TlvWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  void put_u8(std::uint16_t tag, std::uint8_t v) { *field(tag, 1) = v; }
  void put_u16(std::uint16_t tag, std::uint16_t v) {
    store_le<2>(field(tag, 2), v);
  }
  void put_u32(std::uint16_t tag, std::uint32_t v) {
    store_le<4>(field(tag, 4), v);
  }
  void put_u64(std::uint16_t tag, std::uint64_t v) {
    store_le<8>(field(tag, 8), v);
  }
  /// IEEE-754 bit pattern as u64 — byte-exact round-trip, no printf detour.
  void put_f64(std::uint16_t tag, double v) {
    put_u64(tag, std::bit_cast<std::uint64_t>(v));
  }
  void put_string(std::uint16_t tag, std::string_view v) {
    put(tag, reinterpret_cast<const std::uint8_t*>(v.data()), v.size());
  }
  void put_bytes(std::uint16_t tag, std::span<const std::uint8_t> v) {
    put(tag, v.data(), v.size());
  }
  /// Packed vector of u64 (trace-id lists): 8 bytes per element.
  void put_u64s(std::uint16_t tag, std::span<const std::uint64_t> v) {
    std::uint8_t* p = field(tag, v.size() * 8);
    for (const std::uint64_t x : v) {
      store_le<8>(p, x);
      p += 8;
    }
  }

  /// Writes a nested record in place: reserves the u32 length, lets `body`
  /// append the record's TLV stream to the same buffer, then back-patches
  /// the length. The bytes equal put_bytes of the body built on its own.
  template <typename Body>
  void nest(std::uint16_t tag, Body&& body) {
    const std::size_t header_at = out_->size();
    field(tag, 0);  // length, patched below
    body(*out_);
    store_le<4>(out_->data() + header_at + 2,
                out_->size() - header_at - kTlvHeaderSize);
  }

  /// One nested record under `tag` per element of `items`, each written
  /// by `encode(item, buffer)`.
  template <typename Items, typename Encode>
  void nest_each(std::uint16_t tag, const Items& items, Encode&& encode) {
    for (const auto& item : items) {
      nest(tag, [&](std::vector<std::uint8_t>& body) { encode(item, body); });
    }
  }

 private:
  /// Grows the buffer by one record of `size` value bytes, writes its
  /// header and returns where the value goes.
  std::uint8_t* field(std::uint16_t tag, std::size_t size) {
    std::uint8_t* p = grow(*out_, kTlvHeaderSize + size);
    store_le<2>(p, tag);
    store_le<4>(p + 2, size);
    return p + kTlvHeaderSize;
  }
  void put(std::uint16_t tag, const std::uint8_t* data, std::size_t size) {
    std::uint8_t* p = field(tag, size);
    if (size != 0) std::memcpy(p, data, size);
  }

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
  std::optional<Tlv> next() noexcept {
    if (truncated_ || at_ >= bytes_.size()) return std::nullopt;
    const std::size_t left = bytes_.size() - at_;
    const std::uint8_t* p = bytes_.data() + at_;
    // The length is read only once the 6 header bytes are known to exist.
    if (left < kTlvHeaderSize || left - kTlvHeaderSize < load_le<4>(p + 2)) {
      truncated_ = true;
      return std::nullopt;
    }
    const std::size_t length = static_cast<std::size_t>(load_le<4>(p + 2));
    const Tlv tlv{static_cast<std::uint16_t>(load_le<2>(p)),
                  bytes_.subspan(at_ + kTlvHeaderSize, length)};
    at_ += kTlvHeaderSize + length;
    return tlv;
  }
  bool truncated() const noexcept { return truncated_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t at_ = 0;
  bool truncated_ = false;
};

// Typed field reads: exact-width checks, false (and `out` untouched) on a
// mismatch, which callers map to kMalformedFrame. Integers little-endian, a
// bool a u8 (nonzero = true), f64 via its u64 bit pattern, a u64 list 8
// bytes per element; a string takes any width.
namespace detail {
/// A little-endian unsigned of exactly sizeof(T) bytes.
template <typename T>
inline bool read_exact(const Tlv& tlv, T& out) noexcept {
  if (tlv.value.size() != sizeof(T)) return false;
  out = static_cast<T>(load_le<sizeof(T)>(tlv.value.data()));
  return true;
}
}  // namespace detail

inline bool read_field(const Tlv& tlv, bool& out) noexcept {
  std::uint8_t v = 0;
  if (!detail::read_exact(tlv, v)) return false;
  out = v != 0;
  return true;
}
inline bool read_field(const Tlv& tlv, std::uint8_t& out) noexcept {
  return detail::read_exact(tlv, out);
}
inline bool read_field(const Tlv& tlv, std::uint16_t& out) noexcept {
  return detail::read_exact(tlv, out);
}
inline bool read_field(const Tlv& tlv, std::uint32_t& out) noexcept {
  return detail::read_exact(tlv, out);
}
inline bool read_field(const Tlv& tlv, std::uint64_t& out) noexcept {
  return detail::read_exact(tlv, out);
}
inline bool read_field(const Tlv& tlv, double& out) noexcept {
  std::uint64_t bits = 0;
  if (!detail::read_exact(tlv, bits)) return false;
  out = std::bit_cast<double>(bits);
  return true;
}
bool read_field(const Tlv& tlv, std::string& out);
bool read_field(const Tlv& tlv, std::vector<std::uint64_t>& out);
template <typename T>
bool read_field(const Tlv& tlv, std::optional<T>& out) {
  T value{};
  if (!read_field(tlv, value)) return false;
  out = std::move(value);
  return true;
}

// The same reads as values, nullopt on a width mismatch.
std::optional<std::uint8_t> tlv_u8(const Tlv& tlv) noexcept;
std::optional<std::uint64_t> tlv_u64(const Tlv& tlv) noexcept;
std::string tlv_string(const Tlv& tlv);

/// Decodes one record's TLV stream into `out`, the one loop behind every
/// from_wire. `out` is reset first. A versioned record must open with tag
/// 1, a u16 version >= 1. Every other TLV goes to `field`, which stores the
/// tags it knows into `out`, returns true for tags it does not (a newer
/// peer's field, skipped), and returns false on a bad value. A missing
/// version, a bad value or a truncated TLV give kMalformedFrame naming
/// `what`.
template <typename T, typename Field>
Result<void> read_record(std::span<const std::uint8_t> bytes, T& out,
                         const char* what, bool versioned, Field&& field) {
  out = T{};
  TlvReader r(bytes);
  if (versioned) {
    const std::optional<Tlv> first = r.next();
    std::uint16_t version = 0;
    if (!first || first->tag != 1 || !read_field(*first, version) ||
        version == 0) {
      return make_error(ErrorCode::kMalformedFrame,
                        std::string(what) + ": missing version");
    }
  }
  while (const std::optional<Tlv> tlv = r.next()) {
    if (!field(*tlv)) {
      return make_error(ErrorCode::kMalformedFrame,
                        std::string(what) + ": bad field " +
                            std::to_string(tlv->tag));
    }
  }
  if (r.truncated()) {
    return make_error(ErrorCode::kMalformedFrame,
                      std::string(what) + ": truncated record");
  }
  return {};
}

}  // namespace surfos::proto
