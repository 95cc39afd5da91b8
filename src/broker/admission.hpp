// Fleet-scale admission control for the service broker (paper 3.3).
//
// A single site serves a handful of apps and can start them synchronously;
// a fleet-scale control plane takes demand arrivals faster than the
// orchestrator can absorb them. AdmissionQueue decouples the two: demands
// are submitted with a priority class, wait in a bounded queue, and drain
// through a weighted-fair scheduler with per-app token budgets, so one
// chatty app cannot monopolize a control epoch and overload sheds only the
// lowest-priority work.
//
// Determinism contract: admission order and shed decisions are pure
// functions of the submission sequence — no wall clock, no randomness, no
// thread-count dependence — so a fleet run admits and sheds identically for
// any SURFOS_THREADS. (Each site's broker owns its own queue; the queue
// itself is not thread-safe.)
//
// Scheduling discipline, per pump():
//   1. Every app's token budget resets to `tokens_per_app` (the per-epoch
//      admission budget).
//   2. Classes drain in deficit-round-robin: each round credits a class by
//      its weight (1 + priority/10: background 1 ... critical 4), then
//      admits that many entries FIFO. Higher classes go first within a
//      round, lower classes still make progress every round — weighted
//      fairness without starvation.
//   3. An entry whose app is out of tokens is deferred in place (keeps its
//      FIFO position for the next pump) rather than shed.
//
// Capacity is the SURFOS_ADMIT_QUEUE knob, read through core::knob on every
// submit, so a daemon set-knob applies to the next submit.
//
// Shedding, on submit() to a full queue: the newest entry of the lowest
// present priority class is dropped to make room — unless the incoming
// demand itself is that lowest class, in which case it is refused. Either
// way only lowest-priority work is ever lost.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "broker/demand.hpp"
#include "orch/task.hpp"

namespace surfos::broker {

/// One queued demand: which app wants it and how urgent it is.
struct AdmissionRequest {
  std::string app_id;
  AppDemand demand;
  orch::Priority priority = orch::kPriorityNormal;
  std::uint64_t seq = 0;  ///< Submission sequence (assigned by the queue).
};

/// Canonical priority class for an application demand — the broker's
/// default when the submitter does not override it.
orch::Priority demand_priority(const AppDemand& demand) noexcept;

struct AdmissionOptions {
  /// Demands one app may admit per pump() (its token budget per epoch).
  std::size_t tokens_per_app = 4;
};

/// Cumulative admission telemetry (also mirrored to broker.admission.*
/// counters). Per-class maps are keyed by priority value.
struct AdmissionStats {
  std::size_t submitted = 0;
  std::size_t admitted = 0;
  std::size_t shed = 0;
  std::size_t deferred = 0;  ///< Token-starved head-of-class deferrals.
  std::map<orch::Priority, std::size_t> admitted_by_class;
  std::map<orch::Priority, std::size_t> shed_by_class;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionOptions options = {});

  /// Enqueues a demand. Returns false when the demand itself was shed
  /// (queue full of same-or-higher-priority work); a true return may still
  /// have shed the newest entry of a lower class to make room.
  bool submit(AdmissionRequest request);

  /// Drains up to `max_admissions` entries through `admit` under the
  /// weighted-fair / token-budget discipline above. Returns the number
  /// admitted. `admit` must not reenter the queue.
  std::size_t pump(
      std::size_t max_admissions,
      const std::function<void(const AdmissionRequest&)>& admit);

  /// The queued-but-not-yet-admitted demands in drain order (highest class
  /// first, FIFO within a class) — what a surfosd snapshot persists so a
  /// restart re-submits exactly the in-flight work.
  std::vector<AdmissionRequest> pending() const;

  std::size_t depth() const noexcept { return depth_; }
  bool empty() const noexcept { return depth_ == 0; }
  const AdmissionOptions& options() const noexcept { return options_; }
  /// The capacity submit() enforces: the SURFOS_ADMIT_QUEUE knob.
  static std::size_t capacity();
  const AdmissionStats& stats() const noexcept { return stats_; }

 private:
  /// DRR weight of a priority class (>= 1).
  static std::size_t weight(orch::Priority priority) noexcept;
  AdmissionOptions options_;
  AdmissionStats stats_;
  /// Per-class FIFO queues, highest priority first.
  std::map<orch::Priority, std::deque<AdmissionRequest>,
           std::greater<orch::Priority>>
      classes_;
  std::size_t depth_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace surfos::broker
