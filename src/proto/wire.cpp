#include "proto/wire.hpp"

namespace surfos::proto {

namespace {

/// The frame's header bytes, in a vector with room for `capacity` bytes.
Result<std::vector<std::uint8_t>> encode_header(const WireFrame& frame,
                                                std::size_t capacity) {
  if (frame.payload.size() > kMaxFramePayload) {
    return {ErrorCode::kOutOfRange,
            "frame payload " + std::to_string(frame.payload.size()) +
                " exceeds cap " + std::to_string(kMaxFramePayload)};
  }
  std::vector<std::uint8_t> out;
  out.reserve(capacity);
  append_le(out, frame.payload.size(), 4);
  out.push_back(frame.version);
  out.push_back(static_cast<std::uint8_t>(frame.type));
  append_le(out, 0, 2);  // reserved
  append_le(out, frame.trace_id, 8);
  return out;
}

}  // namespace

Result<std::vector<std::uint8_t>> encode_frame_header(const WireFrame& frame) {
  return encode_header(frame, kFrameHeaderSize);
}

Result<std::vector<std::uint8_t>> encode_frame(const WireFrame& frame) {
  auto out = encode_header(frame, kFrameHeaderSize + frame.payload.size());
  if (out.ok()) {
    out.value().insert(out.value().end(), frame.payload.begin(),
                       frame.payload.end());
  }
  return out;
}

FrameDecode try_decode_frame(std::span<const std::uint8_t> bytes) {
  FrameDecode result;
  if (bytes.size() < kFrameHeaderSize) return result;  // need more
  const std::uint64_t length = read_le(bytes, 0, 4);
  if (length > kMaxFramePayload) {
    // Never wait for (or allocate) a hostile length; the connection is done.
    result.error = make_error(
        ErrorCode::kOutOfRange,
        "declared payload " + std::to_string(length) + " exceeds cap");
    result.consumed = bytes.size();
    return result;
  }
  if (bytes.size() < kFrameHeaderSize + length) return result;  // need more

  WireFrame frame;
  frame.version = bytes[4];
  const std::uint8_t type = bytes[5];
  frame.trace_id = read_le(bytes, 8, 8);
  result.consumed = kFrameHeaderSize + static_cast<std::size_t>(length);
  if (frame.version != kProtoVersion) {
    // Consume the whole frame: the server can still send a typed error
    // reply echoing the trace id instead of dropping the connection cold.
    result.error = make_error(ErrorCode::kUnsupportedVersion,
                              "protocol version " +
                                  std::to_string(frame.version) +
                                  " not supported (speak " +
                                  std::to_string(kProtoVersion) + ")");
    return result;
  }
  if (type < static_cast<std::uint8_t>(MsgType::kHello) ||
      type > static_cast<std::uint8_t>(MsgType::kUnsubscribe)) {
    result.error = make_error(ErrorCode::kUnknownCommand,
                              "unknown message type " + std::to_string(type));
    return result;
  }
  frame.type = static_cast<MsgType>(type);
  frame.payload.assign(bytes.begin() + kFrameHeaderSize,
                       bytes.begin() + static_cast<std::ptrdiff_t>(
                                           kFrameHeaderSize + length));
  result.frame = std::move(frame);
  return result;
}

// --- Typed value parsers ---------------------------------------------------

bool read_field(const Tlv& tlv, std::string& out) {
  out.assign(reinterpret_cast<const char*>(tlv.value.data()),
             tlv.value.size());
  return true;
}
bool read_field(const Tlv& tlv, std::vector<std::uint64_t>& out) {
  if (tlv.value.size() % 8 != 0) return false;
  out.resize(tlv.value.size() / 8);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = load_le<8>(tlv.value.data() + i * 8);
  }
  return true;
}

std::optional<std::uint8_t> tlv_u8(const Tlv& tlv) noexcept {
  std::uint8_t v = 0;
  return read_field(tlv, v) ? std::optional(v) : std::nullopt;
}

std::optional<std::uint64_t> tlv_u64(const Tlv& tlv) noexcept {
  std::uint64_t v = 0;
  return read_field(tlv, v) ? std::optional(v) : std::nullopt;
}

std::string tlv_string(const Tlv& tlv) {
  std::string out;
  read_field(tlv, out);
  return out;
}

}  // namespace surfos::proto
