// Helpers shared by the surfosd tests (test_daemon, test_streaming): unique
// socket paths, hand-driven daemon options, request frames and error codes.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "daemon/daemon.hpp"
#include "daemon/messages.hpp"
#include "proto/wire.hpp"

namespace surfos::daemon {

/// Unique short paths per test (sockaddr_un caps paths at ~107 bytes).
inline std::string temp_path(const char* stem, const char* ext = ".sock") {
  static int counter = 0;
  return "/tmp/sd_" + std::to_string(::getpid()) + "_" + stem +
         std::to_string(++counter) + ext;
}

inline DaemonOptions test_options(const std::string& socket,
                                  const std::string& snapshot = {}) {
  DaemonOptions options;
  options.socket_path = socket;
  options.snapshot_path = snapshot;
  options.epoch_ms = 20;
  options.ticker = false;  // epochs driven by hand
  options.grid_n = 2;      // small probe grid keeps construction fast
  return options;
}

inline proto::WireFrame make_request(proto::MsgType type,
                                     std::uint64_t trace_id,
                                     std::vector<std::uint8_t> payload = {}) {
  proto::WireFrame frame;
  frame.type = type;
  frame.trace_id = trace_id;
  frame.payload = std::move(payload);
  return frame;
}

inline ErrorCode error_code_of(const proto::WireFrame& reply) {
  EXPECT_EQ(reply.type, proto::MsgType::kError);
  Error error;
  EXPECT_TRUE(from_wire(reply.payload, error).ok());
  return error.code;
}

}  // namespace surfos::daemon
