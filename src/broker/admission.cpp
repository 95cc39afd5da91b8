#include "broker/admission.hpp"

#include <algorithm>

#include "core/config.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace surfos::broker {

namespace {
constexpr const char* kLog = "admission";
}

orch::Priority demand_priority(const AppDemand& demand) noexcept {
  switch (demand.app_class) {
    case AppClass::kSensitiveData:
      return orch::kPriorityCritical;
    case AppClass::kVrGaming:
    case AppClass::kVideoConference:
      return orch::kPriorityInteractive;
    case AppClass::kVideoStreaming:
    case AppClass::kFileTransfer:
    case AppClass::kSmartHome:
      return orch::kPriorityNormal;
    case AppClass::kWirelessCharging:
      return orch::kPriorityBackground;
  }
  return orch::kPriorityNormal;
}

AdmissionQueue::AdmissionQueue(AdmissionOptions options) : options_(options) {
  if (options_.tokens_per_app == 0) options_.tokens_per_app = 1;
}

std::size_t AdmissionQueue::weight(orch::Priority priority) noexcept {
  // Background 1, normal 2, interactive 3, critical 4 (and still >= 1 for
  // any out-of-tier priority value, e.g. escalation bumps).
  const orch::Priority tier = std::max<orch::Priority>(priority, 0) / 10;
  return static_cast<std::size_t>(tier) + 1;
}

std::size_t AdmissionQueue::capacity() {
  return core::knob(core::Knob::kAdmitQueue);
}

std::vector<AdmissionRequest> AdmissionQueue::pending() const {
  std::vector<AdmissionRequest> out;
  out.reserve(depth_);
  for (const auto& [priority, queue] : classes_) {
    out.insert(out.end(), queue.begin(), queue.end());
  }
  return out;
}

bool AdmissionQueue::submit(AdmissionRequest request) {
  ++stats_.submitted;
  SURFOS_COUNT("broker.admission.submitted");
  request.seq = next_seq_++;
  if (depth_ >= capacity()) {
    // Overload: only the lowest-priority work may be lost. The lowest
    // present class gives up its *newest* entry (oldest entries are closest
    // to admission and have waited longest); an incoming demand at or below
    // that class is refused outright.
    auto lowest = classes_.rbegin();
    while (lowest != classes_.rend() && lowest->second.empty()) ++lowest;
    if (lowest == classes_.rend() || request.priority <= lowest->first) {
      ++stats_.shed;
      ++stats_.shed_by_class[request.priority];
      SURFOS_COUNT("broker.admission.shed");
      SURFOS_WARN(kLog) << "queue full: shed incoming demand for app "
                        << request.app_id << " (priority "
                        << request.priority << ")";
      return false;
    }
    const AdmissionRequest& victim = lowest->second.back();
    ++stats_.shed;
    ++stats_.shed_by_class[victim.priority];
    SURFOS_COUNT("broker.admission.shed");
    SURFOS_WARN(kLog) << "queue full: shed queued demand for app "
                      << victim.app_id << " (priority " << victim.priority
                      << ") for incoming priority " << request.priority;
    lowest->second.pop_back();
    --depth_;
  }
  classes_[request.priority].push_back(std::move(request));
  ++depth_;
  SURFOS_GAUGE_SET("broker.admission.depth", static_cast<double>(depth_));
  return true;
}

std::size_t AdmissionQueue::pump(
    std::size_t max_admissions,
    const std::function<void(const AdmissionRequest&)>& admit) {
  // Per-epoch token budgets: reset for every app at pump start.
  std::map<std::string, std::size_t> tokens;
  std::map<orch::Priority, std::size_t> credit;
  std::size_t admitted = 0;

  bool progressed = true;
  while (progressed && admitted < max_admissions && depth_ > 0) {
    progressed = false;
    for (auto& [priority, queue] : classes_) {
      if (queue.empty()) continue;
      credit[priority] += weight(priority);
      std::size_t& budget = credit[priority];
      // Admit up to `budget` token-holding entries FIFO; token-starved
      // entries are deferred in place (they keep their queue position).
      std::deque<AdmissionRequest> deferred;
      while (budget > 0 && !queue.empty() && admitted < max_admissions) {
        AdmissionRequest& head = queue.front();
        auto [it, inserted] =
            tokens.try_emplace(head.app_id, options_.tokens_per_app);
        if (it->second == 0) {
          ++stats_.deferred;
          SURFOS_COUNT("broker.admission.deferred");
          deferred.push_back(std::move(head));
          queue.pop_front();
          continue;
        }
        --it->second;
        --budget;
        ++admitted;
        ++stats_.admitted;
        ++stats_.admitted_by_class[priority];
        SURFOS_COUNT("broker.admission.admitted");
        const AdmissionRequest request = std::move(head);
        queue.pop_front();
        --depth_;
        progressed = true;
        admit(request);
      }
      // Put deferred entries back at the front, original order preserved.
      for (auto it = deferred.rbegin(); it != deferred.rend(); ++it) {
        queue.push_front(std::move(*it));
      }
      if (admitted >= max_admissions) break;
    }
  }
  SURFOS_GAUGE_SET("broker.admission.depth", static_cast<double>(depth_));
  return admitted;
}

}  // namespace surfos::broker
