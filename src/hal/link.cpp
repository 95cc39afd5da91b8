#include "hal/link.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace surfos::hal {

ControlLink::ControlLink(const SimClock* clock, LinkOptions options)
    : clock_(clock), options_(options), rng_(options.seed) {
  if (clock_ == nullptr) throw std::invalid_argument("ControlLink: null clock");
}

void ControlLink::send(std::span<const std::uint8_t> datagram) {
  ++sent_;
  if (options_.loss_probability > 0.0 &&
      rng_.uniform() < options_.loss_probability) {
    ++dropped_;
    return;
  }
  Pending pending;
  pending.deliver_at = clock_->now() + options_.latency_us;
  pending.bytes.assign(datagram.begin(), datagram.end());
  if (!pending.bytes.empty() && options_.corrupt_probability > 0.0 &&
      rng_.uniform() < options_.corrupt_probability) {
    ++corrupted_;
    const std::size_t byte_index = rng_.below(pending.bytes.size());
    pending.bytes[byte_index] ^= static_cast<std::uint8_t>(1u << rng_.below(8));
  }
  queue_.push_back(std::move(pending));
}

std::vector<std::vector<std::uint8_t>> ControlLink::receive_ready() {
  std::vector<std::vector<std::uint8_t>> out;
  while (!queue_.empty() && queue_.front().deliver_at <= clock_->now()) {
    out.push_back(std::move(queue_.front().bytes));
    queue_.pop_front();
  }
  return out;
}

// --- ReliableLink -------------------------------------------------------------

ReliableLink::ReliableLink(const SimClock* clock, ReliableOptions options)
    : clock_(clock),
      options_(options),
      forward_(clock, options.forward),
      reverse_(clock, [&] {
        // The ack path shares the forward path's latency by default.
        LinkOptions reverse = options.reverse;
        if (reverse.latency_us == LinkOptions{}.latency_us &&
            options.forward.latency_us != LinkOptions{}.latency_us) {
          reverse.latency_us = options.forward.latency_us;
        }
        reverse.seed ^= 0x9E37u;  // decorrelate loss from the forward path
        return reverse;
      }()) {
  if (clock_ == nullptr) throw std::invalid_argument("ReliableLink: null clock");
  // The sender's last copy of a frame leaves within max_retransmissions
  // periods; at least one more period, and enough of them to cover the
  // forward latency, lets that copy arrive.
  const Micros rto = std::max<Micros>(options_.rto_us, 1);
  const Micros crossing =
      std::max<Micros>((options_.forward.latency_us + rto - 1) / rto, 1);
  dead_gap_periods_ = options_.max_retransmissions + crossing;
}

void ReliableLink::send(Frame frame) {
  frame.sequence = next_seq_++;
  Outstanding outstanding;
  outstanding.bytes = encode_frame(frame);
  outstanding.last_sent = clock_->now();
  outstanding.attempts = 1;
  forward_.send(outstanding.bytes);
  in_flight_.emplace(frame.sequence, std::move(outstanding));
}

void ReliableLink::deliver(const Frame& frame) {
  if (deliver_) deliver_(frame);
  ++delivered_;
  expected_seq_ = frame.sequence + 1;
}

void ReliableLink::deliver_buffered() {
  while (!reorder_.empty() && reorder_.begin()->first == expected_seq_) {
    deliver(reorder_.begin()->second);
    reorder_.erase(reorder_.begin());
  }
}

// A buffered frame proves that every frame of the gap in front of it was
// first sent no later than the poll that opened the gap. The sender re-arms
// a frame's timer at the first poll at least rto_us after its last copy and
// gives up after max_retransmissions copies; the receiver runs the same rule
// from a later start, so its periods never run ahead of the sender's. Once
// max_retransmissions periods have passed, no copy is left to send, and the
// further periods cover the forward latency: on a FIFO link with a fixed
// latency every copy has then been drained, so the gap can never be filled.
bool ReliableLink::skip_dead_gap(bool same_gap) {
  const Micros now = clock_->now();
  if (!same_gap) {
    gap_periods_ = 0;
    gap_period_start_ = now;
    return false;
  }
  if (now - gap_period_start_ < options_.rto_us) return false;
  gap_period_start_ = now;
  if (++gap_periods_ < dead_gap_periods_) return false;
  expected_seq_ = reorder_.begin()->first;
  deliver_buffered();
  gap_periods_ = 0;  // a later gap, if any, starts its own count now
  return true;
}

void ReliableLink::emit_ack() {
  Frame ack;
  ack.type = MessageType::kAck;
  ack.sequence = expected_seq_ - 1;  // highest in-order frame received
  reverse_.send(encode_frame(ack));
}

void ReliableLink::poll() {
  // Receiver side: drain arrived data frames. The next expected frame is
  // delivered straight from its datagram; only an early one is buffered.
  const std::uint32_t expected_before = expected_seq_;
  const bool gap_before = !reorder_.empty();
  bool received_any = false;
  for (const auto& datagram : forward_.receive_ready()) {
    DecodeResult decoded = decode_frame(datagram);
    if (!decoded.frame) {
      ++rejected_;  // the sender's timer will resend
      continue;
    }
    Frame& frame = *decoded.frame;
    received_any = true;
    if (frame.sequence < expected_seq_) {
      ++duplicates_;  // already delivered; re-ack below
      SURFOS_COUNT("hal.arq.duplicates");
      continue;
    }
    if (frame.sequence > expected_seq_ && options_.max_retransmissions > 0) {
      reorder_.emplace(frame.sequence, std::move(frame));
      continue;
    }
    deliver(frame);
    deliver_buffered();
  }
  bool skipped = false;
  if (!reorder_.empty()) {
    skipped = skip_dead_gap(gap_before && expected_seq_ == expected_before);
  }
  if (received_any || skipped) emit_ack();

  // Sender side: process acknowledgements.
  for (const auto& datagram : reverse_.receive_ready()) {
    const DecodeResult decoded = decode_frame(datagram);
    if (!decoded.frame || decoded.frame->type != MessageType::kAck) continue;
    const std::uint32_t acked = decoded.frame->sequence;
    for (auto it = in_flight_.begin();
         it != in_flight_.end() && it->first <= acked;) {
      it = in_flight_.erase(it);
    }
  }

  // Retransmit anything stale.
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    Outstanding& out = it->second;
    if (clock_->now() - out.last_sent >= options_.rto_us) {
      if (out.attempts > options_.max_retransmissions) {
        ++abandoned_;
        SURFOS_COUNT("hal.arq.abandoned");
        SURFOS_TRACE_INSTANT("hal.arq.abandon");
        it = in_flight_.erase(it);
        continue;
      }
      forward_.send(out.bytes);
      out.last_sent = clock_->now();
      ++out.attempts;
      ++retransmissions_;
      SURFOS_COUNT("hal.arq.retransmissions");
      SURFOS_TRACE_INSTANT("hal.arq.retransmit");
    }
    ++it;
  }
}

}  // namespace surfos::hal
