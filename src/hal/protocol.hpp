// Surface control-plane wire protocol.
//
// SurfOS talks to (possibly remote) surface controllers over a byte
// transport. Frames are explicit and checksummed so that the control plane
// can run at the edge or in the cloud (paper Section 1) with real link
// semantics: loss, delay, and corruption are survivable, and drivers only
// apply updates acknowledged end-to-end. A controller is programmed with
// whole configurations only: kWriteConfig stores one in a slot and
// kSelectConfig activates a slot.
//
// Frame layout (little-endian):
//   0..1   magic 0x5F 0x05
//   2      version (1)
//   3      type (MessageType)
//   4..7   sequence number
//   8..9   slot (configuration slot index, when applicable)
//   10..13 payload length N
//   14..   payload (N bytes)
//   last 4 CRC-32 over bytes [0, 14 + N)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace surfos::hal {

/// One frame type per operation: write a stored slot, select one, and the
/// link's acknowledgement. Wire values are pinned, so the unused values 3, 5
/// and 6 decode as DecodeError::kBadType.
enum class MessageType : std::uint8_t {
  kWriteConfig = 1,   ///< Payload: serialized SurfaceConfig for a slot.
  kSelectConfig = 2,  ///< Activate a stored slot. No payload.
  kAck = 4,           ///< ReliableLink's cumulative ack: `sequence` is the
                      ///< highest in-order frame received. No payload.
};

struct Frame {
  MessageType type = MessageType::kWriteConfig;
  std::uint32_t sequence = 0;
  std::uint16_t slot = 0;
  std::vector<std::uint8_t> payload;
};

inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderSize = 14;
inline constexpr std::size_t kCrcSize = 4;

/// Serializes a frame (always succeeds).
std::vector<std::uint8_t> encode_frame(const Frame& frame);

enum class DecodeError {
  kTruncated,
  kBadMagic,
  kBadVersion,
  kBadType,
  kBadCrc,
};

struct DecodeResult {
  std::optional<Frame> frame;         ///< Set on success.
  std::optional<DecodeError> error;   ///< Set on failure.
  std::size_t consumed = 0;           ///< Bytes consumed from the buffer.
};

/// Attempts to decode one frame from the start of `bytes`. On kTruncated the
/// caller should wait for more bytes; other errors consume the bad frame's
/// bytes (or resynchronize past the bad magic).
DecodeResult decode_frame(std::span<const std::uint8_t> bytes);

}  // namespace surfos::hal
