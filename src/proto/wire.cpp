#include "proto/wire.hpp"

#include <bit>
#include <cstring>

namespace surfos::proto {

void append_le(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

std::uint64_t read_le(std::span<const std::uint8_t> in, std::size_t at,
                      int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(in[at + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

Result<std::vector<std::uint8_t>> encode_frame(const WireFrame& frame) {
  if (frame.payload.size() > kMaxFramePayload) {
    return {ErrorCode::kOutOfRange,
            "frame payload " + std::to_string(frame.payload.size()) +
                " exceeds cap " + std::to_string(kMaxFramePayload)};
  }
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderSize + frame.payload.size());
  append_le(out, frame.payload.size(), 4);
  out.push_back(frame.version);
  out.push_back(static_cast<std::uint8_t>(frame.type));
  append_le(out, 0, 2);  // reserved
  append_le(out, frame.trace_id, 8);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
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

// --- TlvWriter ---------------------------------------------------------------

void TlvWriter::put(std::uint16_t tag, const std::uint8_t* data,
                    std::size_t size) {
  append_le(*out_, tag, 2);
  append_le(*out_, size, 4);
  out_->insert(out_->end(), data, data + size);
}

void TlvWriter::put_u16(std::uint16_t tag, std::uint16_t v) {
  append_le(*out_, tag, 2);
  append_le(*out_, 2, 4);
  append_le(*out_, v, 2);
}

void TlvWriter::put_u32(std::uint16_t tag, std::uint32_t v) {
  append_le(*out_, tag, 2);
  append_le(*out_, 4, 4);
  append_le(*out_, v, 4);
}

void TlvWriter::put_u64(std::uint16_t tag, std::uint64_t v) {
  append_le(*out_, tag, 2);
  append_le(*out_, 8, 4);
  append_le(*out_, v, 8);
}

void TlvWriter::put_f64(std::uint16_t tag, double v) {
  put_u64(tag, std::bit_cast<std::uint64_t>(v));
}

void TlvWriter::put_u64s(std::uint16_t tag,
                         std::span<const std::uint64_t> v) {
  append_le(*out_, tag, 2);
  append_le(*out_, v.size() * 8, 4);
  for (const std::uint64_t x : v) append_le(*out_, x, 8);
}

std::size_t TlvWriter::begin_nested(std::uint16_t tag) {
  const std::size_t header_at = out_->size();
  append_le(*out_, tag, 2);
  append_le(*out_, 0, 4);  // length, patched by end_nested
  return header_at;
}

void TlvWriter::end_nested(std::size_t header_at) {
  const std::size_t length = out_->size() - header_at - 6;
  for (int i = 0; i < 4; ++i) {
    (*out_)[header_at + 2 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((length >> (8 * i)) & 0xFF);
  }
}

// --- TlvReader ---------------------------------------------------------------

std::optional<Tlv> TlvReader::next() {
  if (truncated_ || at_ >= bytes_.size()) return std::nullopt;
  if (bytes_.size() - at_ < 6) {
    truncated_ = true;
    return std::nullopt;
  }
  Tlv tlv;
  tlv.tag = static_cast<std::uint16_t>(read_le(bytes_, at_, 2));
  const std::uint64_t length = read_le(bytes_, at_ + 2, 4);
  at_ += 6;
  if (bytes_.size() - at_ < length) {
    truncated_ = true;
    return std::nullopt;
  }
  tlv.value = bytes_.subspan(at_, static_cast<std::size_t>(length));
  at_ += static_cast<std::size_t>(length);
  return tlv;
}

// --- Typed value parsers ---------------------------------------------------

namespace {

/// A little-endian unsigned of exactly sizeof(T) bytes.
template <typename T>
bool read_exact(const Tlv& tlv, T& out) noexcept {
  if (tlv.value.size() != sizeof(T)) return false;
  out = static_cast<T>(read_le(tlv.value, 0, sizeof(T)));
  return true;
}

}  // namespace

bool read_field(const Tlv& tlv, bool& out) noexcept {
  std::uint8_t v = 0;
  if (!read_exact(tlv, v)) return false;
  out = v != 0;
  return true;
}
bool read_field(const Tlv& tlv, std::uint8_t& out) noexcept {
  return read_exact(tlv, out);
}
bool read_field(const Tlv& tlv, std::uint16_t& out) noexcept {
  return read_exact(tlv, out);
}
bool read_field(const Tlv& tlv, std::uint32_t& out) noexcept {
  return read_exact(tlv, out);
}
bool read_field(const Tlv& tlv, std::uint64_t& out) noexcept {
  return read_exact(tlv, out);
}
bool read_field(const Tlv& tlv, double& out) noexcept {
  std::uint64_t bits = 0;
  if (!read_exact(tlv, bits)) return false;
  out = std::bit_cast<double>(bits);
  return true;
}
bool read_field(const Tlv& tlv, std::string& out) {
  out.assign(reinterpret_cast<const char*>(tlv.value.data()),
             tlv.value.size());
  return true;
}
bool read_field(const Tlv& tlv, std::vector<std::uint64_t>& out) {
  if (tlv.value.size() % 8 != 0) return false;
  out.resize(tlv.value.size() / 8);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = read_le(tlv.value, i * 8, 8);
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
