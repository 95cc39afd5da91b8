#include "daemon/subscription.hpp"

#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "core/config.hpp"
#include "telemetry/telemetry.hpp"

namespace surfos::daemon {

namespace {

bool has_prefix(std::string_view name, const std::string& prefix) {
  return prefix.empty() ||
         (name.size() >= prefix.size() &&
          name.compare(0, prefix.size(), prefix) == 0);
}

}  // namespace

void SubscriptionRegistry::add_connection(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  conns_[fd];  // default-constructed connection
}

void SubscriptionRegistry::drop_connection(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  conns_.erase(fd);
}

Result<std::uint64_t> SubscriptionRegistry::subscribe(int fd,
                                                      SubscriptionSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = conns_.find(fd);
  if (it == conns_.end()) {
    return {ErrorCode::kUnavailable,
            "subscriptions need a streaming connection"};
  }
  spec.interval = std::max<std::uint32_t>(1, spec.interval);
  Subscription sub;
  sub.id = next_sub_id_++;
  sub.spec = std::move(spec);
  const std::uint64_t id = sub.id;
  it->second.subs.emplace(id, std::move(sub));
  SURFOS_COUNT_SCHED("daemon.subs.opened", 1);
  return id;
}

Result<void> SubscriptionRegistry::unsubscribe(int fd, std::uint64_t sub_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = conns_.find(fd);
  if (it == conns_.end() || it->second.subs.erase(sub_id) == 0) {
    return {ErrorCode::kNotFound,
            "no subscription " + std::to_string(sub_id) +
                " on this connection"};
  }
  return {};
}

bool SubscriptionRegistry::enqueue_reply(int fd, proto::WireFrame frame) {
  auto head = proto::encode_frame_header(frame);
  if (!head.ok()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return true;
  Outgoing out{std::move(head).value(), std::move(frame.payload)};
  it->second.total_bytes += out.size();
  it->second.outbox.push_back(std::move(out));
  if (it->second.total_bytes > kMaxOutboxBytes) it->second.dead = true;
  return true;
}

bool SubscriptionRegistry::has_output(int fd) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = conns_.find(fd);
  return it != conns_.end() &&
         (!it->second.outbox.empty() || it->second.dead);
}

bool SubscriptionRegistry::flush_to_fd(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return false;
  Connection& conn = it->second;
  while (!conn.outbox.empty()) {
    const Outgoing& front = conn.outbox.front();
    // The unsent rest of the head, then of the payload, in one write.
    const std::size_t head_sent = std::min(conn.front_offset, front.head.size());
    const std::size_t payload_sent = conn.front_offset - head_sent;
    iovec parts[2] = {
        {const_cast<std::uint8_t*>(front.head.data()) + head_sent,
         front.head.size() - head_sent},
        {const_cast<std::uint8_t*>(front.payload.data()) + payload_sent,
         front.payload.size() - payload_sent}};
    const ssize_t n = ::writev(fd, parts, 2);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // socket full
      return false;  // peer gone
    }
    conn.front_offset += static_cast<std::size_t>(n);
    if (conn.front_offset == front.size()) {
      conn.total_bytes -= front.size();
      if (front.sub_id != 0) --conn.events_queued;
      conn.outbox.pop_front();
      conn.front_offset = 0;
    }
  }
  return !conn.dead;
}

std::vector<std::vector<std::uint8_t>> SubscriptionRegistry::take_output(
    int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::uint8_t>> out;
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return out;
  for (Outgoing& entry : it->second.outbox) {
    entry.head.insert(entry.head.end(), entry.payload.begin(),
                      entry.payload.end());
    out.push_back(std::move(entry.head));
  }
  it->second.outbox.clear();
  it->second.front_offset = 0;
  it->second.total_bytes = 0;
  it->second.events_queued = 0;
  return out;
}

bool SubscriptionRegistry::wants(SubTopic topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [fd, conn] : conns_) {
    for (const auto& [id, sub] : conn.subs) {
      if (sub.spec.topic == topic) return true;
    }
  }
  return false;
}

SubscriptionStats SubscriptionRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SubscriptionStats stats;
  stats.connections = conns_.size();
  for (const auto& [fd, conn] : conns_) {
    stats.subscriptions += conn.subs.size();
  }
  stats.published = published_total_;
  stats.dropped = dropped_total_;
  return stats;
}

void SubscriptionRegistry::enqueue_event(Connection& conn, Subscription& sub,
                                         Outgoing frame,
                                         std::size_t outbox_cap) {
  if (conn.events_queued >= outbox_cap) {
    // Drop the OLDEST queued event. A partially-written front frame is
    // already on the wire and cannot be torn — start past it.
    const std::size_t first =
        conn.front_offset > 0 && !conn.outbox.empty() ? 1 : 0;
    for (std::size_t i = first; i < conn.outbox.size(); ++i) {
      if (conn.outbox[i].sub_id == 0) continue;
      // The dropped frame's subscription now has a hole in its delivered
      // stream: force its next metrics event to resync from a baseline.
      const std::uint64_t victim_sub = conn.outbox[i].sub_id;
      if (const auto vit = conn.subs.find(victim_sub);
          vit != conn.subs.end()) {
        vit->second.dropped += 1;
        vit->second.anchor.reset();
      }
      conn.total_bytes -= conn.outbox[i].size();
      --conn.events_queued;
      conn.outbox.erase(conn.outbox.begin() +
                        static_cast<std::ptrdiff_t>(i));
      dropped_total_ += 1;
      SURFOS_COUNT_SCHED("daemon.subs.dropped_events", 1);
      break;
    }
  }
  frame.sub_id = sub.id;
  conn.total_bytes += frame.size();
  conn.outbox.push_back(std::move(frame));
  ++conn.events_queued;
  sub.published += 1;
  published_total_ += 1;
  SURFOS_COUNT_SCHED("daemon.subs.published_events", 1);
}

void SubscriptionRegistry::publish(const EpochContext& ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t outbox_cap = core::knob(core::Knob::kSubOutbox);
  // Metrics subscriptions published together last time share an anchor,
  // and so share its diff against this epoch: it is computed once.
  std::shared_ptr<const telemetry::Snapshot> diffed_anchor;
  std::vector<telemetry::CounterSample> changed_counters;
  std::vector<telemetry::GaugeSample> changed_gauges;
  for (auto& [fd, conn] : conns_) {
    if (conn.dead) continue;
    for (auto& [id, sub] : conn.subs) {
      if (sub.last_pub_epoch != 0 &&
          ctx.epoch < sub.last_pub_epoch + sub.spec.interval) {
        continue;  // not due yet
      }

      Event event;
      event.sub_id = sub.id;
      event.topic = sub.spec.topic;
      event.epoch = ctx.epoch;
      event.dropped = sub.dropped;

      bool emit = true;
      switch (sub.spec.topic) {
        case SubTopic::kMetrics: {
          if (ctx.metrics == nullptr) { emit = false; break; }
          const telemetry::Snapshot& now = *ctx.metrics;
          event.baseline = sub.anchor == nullptr;
          event.epoch_ms = ctx.epoch_ms;
          event.flush_us = ctx.flush_us;
          if (!event.baseline && sub.anchor != diffed_anchor) {
            diffed_anchor = sub.anchor;
            changed_counters =
                telemetry::diff_counters(sub.anchor->counters, now.counters);
            changed_gauges =
                telemetry::diff_gauges(sub.anchor->gauges, now.gauges);
          }
          event.counters = event.baseline ? now.counters : changed_counters;
          event.gauges = event.baseline ? now.gauges : changed_gauges;
          const auto filtered_out = [&sub](const auto& sample) {
            return !has_prefix(sample.name, sub.spec.prefix);
          };
          std::erase_if(event.counters, filtered_out);
          std::erase_if(event.gauges, filtered_out);
          sub.anchor = ctx.metrics;
          break;
        }
        case SubTopic::kTraces: {
          if (ctx.trace_events == nullptr) { emit = false; break; }
          // Per-frame page bound keeps any one event frame small enough
          // for the 1 MiB payload cap even on a busy recorder.
          constexpr std::size_t kPage = 512;
          const auto page = telemetry::events_after(
              *ctx.trace_events, sub.trace_ts, sub.trace_span, kPage);
          if (page.empty()) { emit = false; break; }
          for (const auto& trace : page) {
            if (has_prefix(trace.name != nullptr ? trace.name : "",
                           sub.spec.prefix)) {
              event.traces.push_back(TraceRecord::from_event(trace));
            }
          }
          sub.trace_ts = page.back().ts_ns;
          sub.trace_span = page.back().span_id;
          if (event.traces.empty()) emit = false;  // everything filtered out
          break;
        }
        case SubTopic::kHealth: {
          if (ctx.health == nullptr) { emit = false; break; }
          for (const SiteHealth& site : *ctx.health) {
            if (sub.spec.site_filter.empty() ||
                site.site_id == sub.spec.site_filter) {
              event.health.push_back(site);
            }
          }
          break;
        }
      }
      if (!emit) continue;
      sub.last_pub_epoch = ctx.epoch;
      sub.seq += 1;
      event.seq = sub.seq;

      // Events are not replies: there is no request trace id to echo.
      proto::WireFrame frame = make_frame(0, event);
      auto head = proto::encode_frame_header(frame);
      if (!head.ok()) continue;  // oversized event frame: skip, not fatal
      enqueue_event(conn, sub,
                    Outgoing{std::move(head).value(), std::move(frame.payload)},
                    outbox_cap);
    }
  }
}

}  // namespace surfos::daemon
