// Client side of the surfosd wire protocol: a blocking connection over the
// daemon's Unix-domain socket.
//
// Used by the CLI tools (surfos-ctl, surfos-status, surfos-top) and the
// daemon tests. Two usage styles:
//
//   - call(): one request/reply round trip. The daemon's reply always
//     echoes the request's trace id, which call() verifies; server-pushed
//     kEvent frames that arrive interleaved (on a subscribed connection)
//     are NOT replies and are skipped — a subscriber that still issues
//     control requests never mistakes an event for its answer.
//   - send() + recv(): streaming. After a kSubscribe, recv() blocks for
//     the next frame — reply or pushed kEvent — in arrival order.
//
// The read buffer persists across calls (leftover bytes after one decoded
// frame belong to the next), which is what makes the two styles composable
// on one connection. Clients that do not mint their own trace ids get
// deterministic ones (domain "surfos.client", per-connection sequence).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/status.hpp"
#include "daemon/messages.hpp"
#include "proto/wire.hpp"

namespace surfos::daemon {

class Client {
 public:
  /// Connects to a surfosd socket. kIoError (with errno text) on failure.
  static Result<Client> connect(const std::string& socket_path);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// One request/reply round trip (skips interleaved kEvent pushes).
  /// `trace_id` 0 mints a deterministic client-side id; the returned frame
  /// is the daemon's reply (possibly a kError frame — protocol errors are
  /// data, not I/O failures).
  Result<proto::WireFrame> call(proto::MsgType type,
                                std::span<const std::uint8_t> payload,
                                std::uint64_t trace_id = 0);

  /// call() with the payloads decoded through daemon/messages.hpp: a kError
  /// reply comes back as its Error, a reply of type Reply::kType as `Reply`
  /// (a kOk reply, decoded to nothing, for void). A reply of any other type,
  /// or one that does not decode, is kMalformedFrame.
  template <typename Reply>
  Result<Reply> request(proto::MsgType type,
                        std::span<const std::uint8_t> payload);

  /// Writes one request frame without waiting for anything back. Returns
  /// the trace id actually sent (minted when `trace_id` is 0).
  Result<std::uint64_t> send(proto::MsgType type,
                             std::span<const std::uint8_t> payload,
                             std::uint64_t trace_id = 0);

  /// Blocks until the next complete frame — a reply or a pushed kEvent —
  /// and returns it in arrival order.
  Result<proto::WireFrame> recv();

  bool connected() const noexcept { return fd_ >= 0; }

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::uint64_t seq_ = 0;
  std::vector<std::uint8_t> buf_;  ///< Bytes read but not yet decoded.
};

template <typename Reply>
Result<Reply> Client::request(proto::MsgType type,
                              std::span<const std::uint8_t> payload) {
  auto reply = call(type, payload);
  if (!reply.ok()) return std::move(reply).error();
  const std::vector<std::uint8_t>& bytes = reply.value().payload;
  if (reply.value().type == proto::MsgType::kError) {
    Error error;
    (void)from_wire(bytes, error);  // undecodable: kInternal, no message
    return error;
  }
  proto::MsgType expected = proto::MsgType::kOk;
  if constexpr (!std::is_void_v<Reply>) expected = Reply::kType;
  if (reply.value().type != expected) {
    return Error{ErrorCode::kMalformedFrame,
                 "unexpected reply type " +
                     std::to_string(static_cast<int>(reply.value().type))};
  }
  if constexpr (std::is_void_v<Reply>) {
    return {};
  } else {
    Reply decoded;
    if (auto parsed = from_wire(bytes, decoded); !parsed.ok()) {
      return std::move(parsed).error();
    }
    return decoded;
  }
}

}  // namespace surfos::daemon
