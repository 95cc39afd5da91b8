#include "hal/protocol.hpp"

#include "hal/crc32.hpp"

namespace surfos::hal {

namespace {
constexpr std::uint8_t kMagic0 = 0x5F;
constexpr std::uint8_t kMagic1 = 0x05;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[at + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

bool valid_type(std::uint8_t t) {
  switch (static_cast<MessageType>(t)) {
    case MessageType::kWriteConfig:
    case MessageType::kSelectConfig:
    case MessageType::kAck:
      return true;
  }
  return false;
}
}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + frame.payload.size() + kCrcSize);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kProtocolVersion);
  out.push_back(static_cast<std::uint8_t>(frame.type));
  put_u32(out, frame.sequence);
  out.push_back(static_cast<std::uint8_t>(frame.slot & 0xFF));
  out.push_back(static_cast<std::uint8_t>(frame.slot >> 8));
  put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  put_u32(out, crc32(out));
  return out;
}

DecodeResult decode_frame(std::span<const std::uint8_t> bytes) {
  DecodeResult result;
  if (bytes.size() < kHeaderSize + kCrcSize) {
    result.error = DecodeError::kTruncated;
    return result;
  }
  if (bytes[0] != kMagic0 || bytes[1] != kMagic1) {
    // Resynchronize: skip one byte so the caller can scan forward.
    result.error = DecodeError::kBadMagic;
    result.consumed = 1;
    return result;
  }
  const std::uint32_t payload_len = get_u32(bytes, 10);
  const std::size_t total = kHeaderSize + payload_len + kCrcSize;
  if (bytes.size() < total) {
    result.error = DecodeError::kTruncated;
    return result;
  }
  result.consumed = total;
  if (bytes[2] != kProtocolVersion) {
    result.error = DecodeError::kBadVersion;
    return result;
  }
  if (!valid_type(bytes[3])) {
    result.error = DecodeError::kBadType;
    return result;
  }
  const std::uint32_t expected = get_u32(bytes, total - kCrcSize);
  if (crc32(bytes.subspan(0, total - kCrcSize)) != expected) {
    result.error = DecodeError::kBadCrc;
    return result;
  }
  Frame frame;
  frame.type = static_cast<MessageType>(bytes[3]);
  frame.sequence = get_u32(bytes, 4);
  frame.slot = static_cast<std::uint16_t>(
      bytes[8] | (static_cast<std::uint16_t>(bytes[9]) << 8));
  frame.payload.assign(bytes.begin() + kHeaderSize,
                       bytes.begin() + static_cast<std::ptrdiff_t>(
                                           kHeaderSize + payload_len));
  result.frame = std::move(frame);
  return result;
}

}  // namespace surfos::hal
