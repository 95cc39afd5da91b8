// The control path to a surface controller.
//
// ControlLink is the simulated wire: a unidirectional byte pipe with
// latency, loss and bit-corruption knobs, which drives the protocol layer
// the way a serial/UDP controller link would and gives tests a place to
// inject failures. ReliableLink is the transport every programmable driver
// runs over: SurfOS may run at the edge or in the cloud (paper Section 1),
// so the path can lose or corrupt datagrams, and ReliableLink adds sequence
// numbers, cumulative acknowledgements and timer-driven retransmission on
// top of the protocol frames, over a forward and a reverse ControlLink.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "hal/clock.hpp"
#include "hal/protocol.hpp"
#include "util/rng.hpp"

namespace surfos::hal {

struct LinkOptions {
  Micros latency_us = 200;
  double loss_probability = 0.0;     ///< Whole-datagram drop probability.
  double corrupt_probability = 0.0;  ///< Single-bit-flip probability.
  std::uint64_t seed = 7;
};

class ControlLink {
 public:
  /// `clock` must outlive the link.
  ControlLink(const SimClock* clock, LinkOptions options = {});

  /// Enqueue a datagram; it becomes receivable after the link latency.
  void send(std::span<const std::uint8_t> datagram);

  /// Datagrams whose delivery time has arrived, in order. Lost datagrams
  /// simply never appear; corrupted ones appear with a flipped bit.
  std::vector<std::vector<std::uint8_t>> receive_ready();

  std::size_t in_flight() const noexcept { return queue_.size(); }
  const SimClock& clock() const noexcept { return *clock_; }

  std::size_t sent_count() const noexcept { return sent_; }
  std::size_t dropped_count() const noexcept { return dropped_; }
  std::size_t corrupted_count() const noexcept { return corrupted_; }

 private:
  struct Pending {
    Micros deliver_at;
    std::vector<std::uint8_t> bytes;
  };

  const SimClock* clock_;
  LinkOptions options_;
  util::Rng rng_;
  std::deque<Pending> queue_;
  std::size_t sent_ = 0;
  std::size_t dropped_ = 0;
  std::size_t corrupted_ = 0;
};

struct ReliableOptions {
  LinkOptions forward;   ///< Controller -> surface datagrams.
  LinkOptions reverse;   ///< Surface -> controller acknowledgements.
  Micros rto_us = 2000;  ///< Retransmission timeout.
  /// Per frame, before giving up. 0 is fire-and-forget: each frame is sent
  /// once, and since a gap is then never filled, the receiver skips it and
  /// delivers whatever arrives next. Above 0 the receiver buffers frames
  /// behind a gap and skips the gap once the sender's retransmissions of it
  /// must all have arrived (see ReliableLink::skip_dead_gap).
  std::size_t max_retransmissions = 16;
};

/// One direction of reliable frame delivery with an ack backchannel.
class ReliableLink {
 public:
  using DeliverFn = std::function<void(const Frame&)>;

  ReliableLink(const SimClock* clock, ReliableOptions options = {});

  /// Receiver callback, invoked in order, exactly once per frame.
  void set_receiver(DeliverFn deliver) { deliver_ = std::move(deliver); }

  /// Queues a frame for reliable delivery (sequence assigned internally;
  /// any sequence already present in the frame is overwritten).
  void send(Frame frame);

  /// Pumps both directions: delivers arrived frames (in order, deduplicated),
  /// emits acknowledgements, processes acks, and retransmits anything older
  /// than the RTO. Call whenever simulated time advances.
  void poll();

  std::size_t delivered_count() const noexcept { return delivered_; }
  /// Datagrams the receiver could not decode (CRC or framing); the sender's
  /// timer resends them.
  std::size_t rejected_count() const noexcept { return rejected_; }
  std::size_t retransmission_count() const noexcept { return retransmissions_; }
  std::size_t duplicate_count() const noexcept { return duplicates_; }
  std::size_t abandoned_count() const noexcept { return abandoned_; }
  std::size_t unacked_count() const noexcept { return in_flight_.size(); }
  /// True when every frame sent so far has reached the receiver or lies in
  /// a gap the receiver skipped because it can never be filled.
  bool all_delivered() const noexcept { return expected_seq_ == next_seq_; }

 private:
  struct Outstanding {
    std::vector<std::uint8_t> bytes;
    Micros last_sent = 0;
    std::size_t attempts = 0;
  };

  void deliver(const Frame& frame);
  void deliver_buffered();
  bool skip_dead_gap(bool same_gap);
  void emit_ack();

  const SimClock* clock_;
  ReliableOptions options_;
  ControlLink forward_;
  ControlLink reverse_;
  DeliverFn deliver_;

  std::uint32_t next_seq_ = 1;
  std::map<std::uint32_t, Outstanding> in_flight_;

  std::uint32_t expected_seq_ = 1;            ///< Receiver side.
  std::map<std::uint32_t, Frame> reorder_;    ///< Early (out-of-order) frames.
  /// The receiver's copy of the sender's retransmission timer for the gap
  /// in front of reorder_: RTO periods elapsed since the gap opened, counted
  /// at polls the way the sender counts them, and the last period's start.
  std::size_t gap_periods_ = 0;
  Micros gap_period_start_ = 0;
  /// Periods after which every copy of a missing frame has arrived.
  std::size_t dead_gap_periods_ = 0;

  std::size_t delivered_ = 0;
  std::size_t rejected_ = 0;
  std::size_t retransmissions_ = 0;
  std::size_t duplicates_ = 0;
  std::size_t abandoned_ = 0;
};

}  // namespace surfos::hal
