// Service broker: the daemon that serves surface-oblivious applications
// (paper 3.3). Applications declare demands (or the intent engine infers
// them from user text); the broker translates demands to service goals,
// invokes the orchestrator, tracks each app's tasks, cancels them when the
// app stops (resume re-translates the demand), and monitors satisfaction so
// unsatisfied apps can be escalated. The session is the one owner of an
// app's lifetime.
#pragma once

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "broker/admission.hpp"
#include "broker/demand.hpp"
#include "broker/intent.hpp"
#include "broker/monitor.hpp"
#include "broker/translate.hpp"
#include "core/status.hpp"
#include "orch/orchestrator.hpp"
#include "telemetry/trace.hpp"

namespace surfos::broker {

/// A stopped session is only its demand and trace id: `tasks` is empty and
/// none of its tasks remain in the orchestrator.
struct AppSession {
  std::string app_id;
  AppDemand demand;
  std::vector<orch::TaskId> tasks;
  bool running = false;
  /// The intent's deterministic trace id (every task the demand fanned out
  /// into carries it; join key into the flight recorder).
  telemetry::TraceId trace_id = 0;
};

struct AppStatus {
  bool known = false;
  bool running = false;
  bool satisfied = false;   ///< Every task's goal currently met.
  std::size_t tasks_total = 0;
  std::size_t tasks_met = 0;
};

class ServiceBroker {
 public:
  /// `orchestrator` must outlive the broker. `default_region` is the region
  /// grid used for region-scoped goals (sensing/security) when an app names
  /// a room the broker has no map for.
  ServiceBroker(orch::Orchestrator* orchestrator,
                geom::SampleGrid default_region,
                TranslationOptions translation = {});

  /// Registers a named region so utterances like "meeting room" resolve to
  /// real probe grids.
  void add_region(std::string region_id, geom::SampleGrid region);

  // --- Result-based service surface (the PR 8 API redesign) ---------------
  // Failures come back as surfos::Result errors with wire-stable ErrorCodes
  // (core/status.hpp) instead of exceptions, so the same contract holds
  // in-process and across the surfosd socket.

  /// Starts an application session synchronously: translates the demand and
  /// creates the orchestrator tasks. Returns the intent's deterministic
  /// trace id, or kAlreadyExists — naming the colliding session's task ids
  /// in the message — if the app id is already running.
  Result<telemetry::TraceId> start_app(std::string app_id, AppDemand demand);

  /// Queues a demand for admission instead of starting it synchronously
  /// (the fleet-scale path; see broker/admission.hpp for the fairness and
  /// shedding discipline). `priority` defaults to demand_priority(demand).
  /// kAdmissionShed when the demand itself was refused by the full queue.
  Result<void> submit_demand(
      std::string app_id, AppDemand demand,
      std::optional<orch::Priority> priority = std::nullopt);

  /// Drains up to `max_admissions` queued demands into running sessions
  /// under the admission queue's weighted-fair / token-budget discipline.
  /// Demands whose app id is already running are dropped with a
  /// broker.admission.duplicates count (never an error mid-drain). Returns
  /// the number of sessions started.
  std::size_t pump_admissions(
      std::size_t max_admissions = std::numeric_limits<std::size_t>::max());

  /// Stops an app: its tasks are cancelled (erased from the orchestrator,
  /// releasing their resources) and the session keeps only its demand and
  /// trace id, so status() reports tasks_total = 0. kNotFound on an unknown
  /// app id (same contract as resume_app).
  Result<void> stop_app(const std::string& app_id);

  /// Resumes a stopped app by re-translating its demand under the session's
  /// original trace id — the same path as start, so the app gets new task
  /// ids. A no-op on a running app; kNotFound on an unknown app id.
  Result<void> resume_app(const std::string& app_id);

  /// Re-creates a session from a surfosd snapshot under its *original*
  /// deterministic trace id (the snapshot stored it), so a restarted daemon
  /// mints byte-identical ids for the same intents. A stopped session is
  /// stored as its demand and trace id, untranslated, until resume_app.
  /// kAlreadyExists if the app id is already running.
  Result<telemetry::TraceId> restore_session(std::string app_id,
                                             AppDemand demand, bool running,
                                             telemetry::TraceId trace_id);

  /// The per-intent trace sequence counter — snapshotted by surfosd so a
  /// restart continues the id stream instead of reusing ids.
  std::uint64_t trace_seq() const noexcept { return trace_seq_; }
  void set_trace_seq(std::uint64_t seq) noexcept { trace_seq_ = seq; }

  AppStatus status(const std::string& app_id) const;

  /// Escalates every running-but-unsatisfied app by re-admitting its link
  /// goals at a higher priority. Returns the number escalated. (The broker's
  /// monitoring loop; call after orchestrator steps.)
  std::size_t escalate_unsatisfied();

  /// Full pipeline for user text: interpret -> start one app per detected
  /// activity. Returns the intent result (rendered calls included).
  IntentResult handle_utterance(const std::string& text);

  /// Acts on traffic-monitor output (paper 3.3: "monitor wireless traffic to
  /// understand user demands"): starts an app session for every suggested
  /// endpoint whose inferred application is not already being served, and
  /// stops previously auto-started sessions whose traffic disappeared.
  /// Returns the number of sessions started.
  std::size_t apply_traffic_suggestions(
      const std::vector<DemandSuggestion>& suggestions);

  const std::map<std::string, AppSession>& sessions() const noexcept {
    return sessions_;
  }
  orch::Orchestrator& orchestrator() noexcept { return *orchestrator_; }
  AdmissionQueue& admission() noexcept { return admission_; }
  const AdmissionQueue& admission() const noexcept { return admission_; }

 private:
  const geom::SampleGrid& region_for(const std::string& region_id) const;

  /// Shared body of start_app/resume_app/restore_session: translate +
  /// dispatch under an explicit trace id.
  Result<telemetry::TraceId> start_session(std::string app_id,
                                           AppDemand demand,
                                           telemetry::TraceId trace_id);

  orch::Orchestrator* orchestrator_;
  geom::SampleGrid default_region_;
  TranslationOptions translation_;
  IntentEngine intent_;
  std::map<std::string, geom::SampleGrid> regions_;
  std::map<std::string, AppSession> sessions_;
  AdmissionQueue admission_;
  std::size_t utterance_counter_ = 0;
  /// Monotone per-intent sequence — the `seq` of each admitted intent's
  /// deterministic trace id (see telemetry/trace.hpp).
  std::uint64_t trace_seq_ = 0;
};

}  // namespace surfos::broker
