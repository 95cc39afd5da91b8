// Subscription registry + per-client outboxes for the streaming
// observability plane.
//
// The daemon's poll() server owns a set of client connections; each may
// hold any number of subscriptions (topic metrics | traces | health, an
// epoch interval, optional site / name-prefix filters). At the end of every
// control epoch the ticker thread calls publish(): for each due
// subscription it encodes one kEvent frame and appends it to the owning
// connection's outbox. Publish NEVER writes to a socket and never blocks —
// the poll() loop flushes outboxes with non-blocking writes when the fd is
// writable.
//
// Slow-subscriber policy: outboxes are bounded (SURFOS_SUB_OUTBOX event
// frames per connection, re-read every publish). When a new event would
// exceed the bound, the OLDEST queued event frame is dropped — a live
// dashboard wants now, not a backlog — and the owning subscription's
// dropped counter increments. A dropped metrics delta would leave the
// subscriber's counter view permanently stale, so a drop also forces the
// subscription's next event to be a full baseline (kEventBaseline = 1).
// Receivers detect the gap from the per-subscription kEventSeq sequence
// (every *published* event increments it, delivered or not).
//
// Metrics deltas: each metrics subscription holds the telemetry::Snapshot
// its last event was computed against (its anchor) and is sent only the
// counters and gauges that differ from it. A null anchor — a new
// subscription, or one whose event was just dropped — makes the next event
// a baseline carrying every counter and gauge. The daemon takes one
// Snapshot per epoch, and only while a metrics subscription exists; every
// subscription published that epoch shares it and keeps it as its next
// anchor. What is held is one snapshot per distinct anchor, however long
// the intervals, and no copy is made per subscriber.
//
// Request/reply frames enqueue through the same outboxes (enqueue_reply)
// but are never dropped; a connection whose un-flushed replies exceed
// kMaxOutboxBytes is declared dead instead (a peer that stops reading its
// own replies is gone, not slow).
//
// Locking: the registry has its own mutex and every public method is
// self-contained; the daemon's lock order is epoch mutex -> registry mutex
// (publish is called under the epoch mutex; flushes take only the registry
// mutex).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "daemon/messages.hpp"
#include "daemon/slo.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"

namespace surfos::daemon {

struct SubscriptionStats {
  std::uint64_t subscriptions = 0;  ///< Live subscriptions, all connections.
  std::uint64_t connections = 0;
  std::uint64_t published = 0;  ///< Event frames ever enqueued.
  std::uint64_t dropped = 0;    ///< Event frames dropped before delivery.
};

class SubscriptionRegistry {
 public:
  /// Replies outstanding beyond this many bytes mean the peer stopped
  /// reading: the connection is declared dead at the next flush.
  static constexpr std::size_t kMaxOutboxBytes = 8u << 20;

  // --- connection lifecycle (server thread) ---
  void add_connection(int fd);
  void drop_connection(int fd);

  // --- subscription control (request handlers, under the epoch mutex) ---
  /// Registers a subscription on `fd`; returns its id.
  Result<std::uint64_t> subscribe(int fd, SubscriptionSpec spec);
  Result<void> unsubscribe(int fd, std::uint64_t sub_id);

  // --- output path ---
  /// Appends an encoded reply frame (never dropped).
  void enqueue_reply(int fd, std::vector<std::uint8_t> bytes);
  /// True when the connection has unsent bytes (drives POLLOUT interest).
  bool has_output(int fd) const;
  /// Writes as much queued output as the socket accepts (non-blocking).
  /// Returns false when the connection is dead (fatal write error or the
  /// reply backlog exceeded kMaxOutboxBytes) and must be closed.
  bool flush_to_fd(int fd);
  /// Drains every queued frame without a socket (tests and benches drive
  /// the registry directly). Partial frames are returned whole.
  std::vector<std::vector<std::uint8_t>> take_output(int fd);

  // --- publication (ticker thread, under the epoch mutex) ---
  struct EpochContext {
    std::uint64_t epoch = 0;
    /// This epoch's metrics snapshot, shared by every metrics subscription
    /// published this epoch; nullptr when no metrics subscriber exists (the
    /// daemon skips the snapshot entirely).
    std::shared_ptr<const telemetry::Snapshot> metrics;
    double epoch_ms = 0.0;  ///< Wall-clock duration of this control epoch.
    double flush_us = 0.0;  ///< HAL actuation time within the epoch.
    const std::vector<SiteHealth>* health = nullptr;
    /// Sorted recorder events; nullptr when no traces subscriber exists
    /// (the daemon skips the copy entirely).
    const std::vector<telemetry::TraceEvent>* trace_events = nullptr;
  };
  /// Encodes and enqueues one kEvent frame per due subscription,
  /// applying the bounded-outbox drop policy. Enqueue-only: never blocks,
  /// never touches a socket.
  void publish(const EpochContext& ctx);

  /// True when any live subscription wants `topic` (lets the daemon skip
  /// the metrics snapshot or the recorder copy otherwise).
  bool wants(SubTopic topic) const;

  SubscriptionStats stats() const;

 private:
  struct Subscription {
    std::uint64_t id = 0;
    SubscriptionSpec spec;
    std::uint64_t last_pub_epoch = 0;  ///< 0 = never published.
    /// Snapshot the last metrics event was computed against; null = the
    /// next event is a baseline.
    std::shared_ptr<const telemetry::Snapshot> anchor;
    std::uint64_t seq = 0;
    std::uint64_t dropped = 0;    ///< Event frames dropped for this sub.
    std::uint64_t published = 0;  ///< Event frames enqueued for this sub.
    std::uint64_t trace_ts = 0;   ///< Traces cursor (last delivered event).
    std::uint64_t trace_span = 0;
  };

  struct Outgoing {
    std::vector<std::uint8_t> bytes;
    std::uint64_t sub_id = 0;  ///< 0 = reply frame (never dropped).
  };

  struct Connection {
    std::deque<Outgoing> outbox;
    std::size_t front_offset = 0;  ///< Bytes of outbox.front() already sent.
    std::size_t total_bytes = 0;
    bool dead = false;
    std::map<std::uint64_t, Subscription> subs;
  };

  /// Enqueues one event frame under the drop-oldest bound. Caller holds mu_.
  void enqueue_event(Connection& conn, Subscription& sub,
                     std::vector<std::uint8_t> bytes, std::size_t outbox_cap);

  mutable std::mutex mu_;
  std::map<int, Connection> conns_;
  std::uint64_t next_sub_id_ = 1;
  std::uint64_t published_total_ = 0;
  std::uint64_t dropped_total_ = 0;
};

}  // namespace surfos::daemon
