// Fleet-scale admission control: priority ordering, weighted-fair drain
// under saturation, per-app token budgets, bounded-queue shedding that only
// ever drops the lowest-priority work, determinism across thread counts,
// and the ServiceBroker submit/pump integration.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "broker/admission.hpp"
#include "broker/broker.hpp"
#include "core/config.hpp"
#include "core/surfos.hpp"
#include "sim/floorplan.hpp"
#include "surface/catalog.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace surfos::broker {
namespace {

AdmissionRequest request(std::string app_id, orch::Priority priority) {
  AdmissionRequest r;
  r.app_id = std::move(app_id);
  r.demand = demand_profile(AppClass::kFileTransfer, "ep");
  r.priority = priority;
  return r;
}

/// Installs a daemon config whose SURFOS_ADMIT_QUEUE is `capacity` for the
/// scope's lifetime: the queue reads its capacity on every submit.
class QueueCapacity {
 public:
  explicit QueueCapacity(std::size_t capacity) {
    core::Config config;
    EXPECT_TRUE(config.set("SURFOS_ADMIT_QUEUE", capacity).ok());
    core::install_config(config);
  }
  ~QueueCapacity() { core::clear_config(); }
};

std::vector<std::string> drain(AdmissionQueue& queue, std::size_t max) {
  std::vector<std::string> admitted;
  queue.pump(max, [&](const AdmissionRequest& r) {
    admitted.push_back(r.app_id);
  });
  return admitted;
}

TEST(AdmissionQueue, DemandPriorityMapsClassesToTiers) {
  EXPECT_EQ(demand_priority(demand_profile(AppClass::kSensitiveData, "e")),
            orch::kPriorityCritical);
  EXPECT_EQ(demand_priority(demand_profile(AppClass::kVrGaming, "e")),
            orch::kPriorityInteractive);
  EXPECT_EQ(demand_priority(demand_profile(AppClass::kFileTransfer, "e")),
            orch::kPriorityNormal);
  EXPECT_EQ(demand_priority(demand_profile(AppClass::kWirelessCharging, "e")),
            orch::kPriorityBackground);
}

TEST(AdmissionQueue, HigherPriorityClassesAdmitFirst) {
  AdmissionQueue queue;
  queue.submit(request("bg", orch::kPriorityBackground));
  queue.submit(request("norm", orch::kPriorityNormal));
  queue.submit(request("crit", orch::kPriorityCritical));
  queue.submit(request("inter", orch::kPriorityInteractive));
  const auto admitted = drain(queue, 100);
  const std::vector<std::string> expected{"crit", "inter", "norm", "bg"};
  EXPECT_EQ(admitted, expected);
  EXPECT_TRUE(queue.empty());
}

TEST(AdmissionQueue, WeightedFairShareUnderSaturation) {
  AdmissionQueue queue;
  // 20 distinct apps per class so token budgets never bind.
  for (int i = 0; i < 20; ++i) {
    const std::string n = std::to_string(i);
    queue.submit(request("c" + n, orch::kPriorityCritical));
    queue.submit(request("i" + n, orch::kPriorityInteractive));
    queue.submit(request("n" + n, orch::kPriorityNormal));
    queue.submit(request("b" + n, orch::kPriorityBackground));
  }
  // One DRR round admits weight(class) each: 4 + 3 + 2 + 1 = 10.
  const auto admitted = drain(queue, 10);
  std::size_t crit = 0, inter = 0, norm = 0, bg = 0;
  for (const std::string& app : admitted) {
    if (app[0] == 'c') ++crit;
    if (app[0] == 'i') ++inter;
    if (app[0] == 'n') ++norm;
    if (app[0] == 'b') ++bg;
  }
  EXPECT_EQ(crit, 4u);
  EXPECT_EQ(inter, 3u);
  EXPECT_EQ(norm, 2u);
  EXPECT_EQ(bg, 1u);  // background still progresses: no starvation
}

TEST(AdmissionQueue, TokenBudgetDefersAGreedyAppWithinOnePump) {
  AdmissionOptions options;
  options.tokens_per_app = 2;
  AdmissionQueue queue(options);
  for (int i = 0; i < 5; ++i) {
    queue.submit(request("greedy", orch::kPriorityNormal));
  }
  queue.submit(request("other", orch::kPriorityNormal));

  const auto first = drain(queue, 100);
  // Greedy is capped at its 2 tokens; "other" is not crowded out; the
  // rest stays queued (deferred, not shed) for the next epoch.
  const std::vector<std::string> expected{"greedy", "greedy", "other"};
  EXPECT_EQ(first, expected);
  EXPECT_EQ(queue.depth(), 3u);
  EXPECT_GT(queue.stats().deferred, 0u);
  EXPECT_EQ(queue.stats().shed, 0u);

  // Fresh epoch, fresh tokens: the deferred demands drain FIFO.
  const auto second = drain(queue, 100);
  EXPECT_EQ(second, (std::vector<std::string>{"greedy", "greedy"}));
  const auto third = drain(queue, 100);
  EXPECT_EQ(third, (std::vector<std::string>{"greedy"}));
  EXPECT_TRUE(queue.empty());
}

TEST(AdmissionQueue, FullQueueShedsOnlyLowestPriorityWork) {
  const QueueCapacity capacity(4);
  AdmissionQueue queue;
  ASSERT_TRUE(queue.submit(request("bg0", orch::kPriorityBackground)));
  ASSERT_TRUE(queue.submit(request("bg1", orch::kPriorityBackground)));
  ASSERT_TRUE(queue.submit(request("n0", orch::kPriorityNormal)));
  ASSERT_TRUE(queue.submit(request("n1", orch::kPriorityNormal)));

  // Higher-priority arrival evicts the *newest background* entry.
  EXPECT_TRUE(queue.submit(request("crit", orch::kPriorityCritical)));
  EXPECT_EQ(queue.depth(), 4u);
  EXPECT_EQ(queue.stats().shed_by_class.at(orch::kPriorityBackground), 1u);

  // An arrival at (or below) the lowest present class is refused instead.
  EXPECT_FALSE(queue.submit(request("bg2", orch::kPriorityBackground)));
  EXPECT_EQ(queue.stats().shed_by_class.at(orch::kPriorityBackground), 2u);

  const auto admitted = drain(queue, 100);
  const std::vector<std::string> expected{"crit", "n0", "n1", "bg0"};
  EXPECT_EQ(admitted, expected);  // bg1 (newest background) was the victim
}

TEST(AdmissionQueue, AdmissionAndShedIdenticalAcrossThreadCounts) {
  // The queue is pure sequential state; pin that no pool configuration can
  // leak into admission order or shed decisions.
  const QueueCapacity capacity(16);
  const auto run = [] {
    AdmissionOptions options;
    options.tokens_per_app = 2;
    AdmissionQueue queue(options);
    util::Rng rng(1234);
    std::ostringstream log;
    for (int i = 0; i < 200; ++i) {
      const auto priority =
          static_cast<orch::Priority>(10 * rng.below(4));
      const std::string app = "app" + std::to_string(rng.below(12));
      log << (queue.submit(request(app, priority)) ? '+' : '-');
      if (i % 7 == 0) {
        queue.pump(3, [&](const AdmissionRequest& r) {
          log << '[' << r.app_id << '@' << r.priority << ']';
        });
      }
    }
    queue.pump(1000, [&](const AdmissionRequest& r) {
      log << '[' << r.app_id << '@' << r.priority << ']';
    });
    log << "|shed=" << queue.stats().shed
        << "|admitted=" << queue.stats().admitted
        << "|deferred=" << queue.stats().deferred;
    return log.str();
  };
  util::reset_global_pool(1);
  const std::string serial = run();
  util::reset_global_pool(4);
  const std::string threaded = run();
  util::reset_global_pool(0);
  EXPECT_EQ(serial, threaded);
}

// --- broker integration ----------------------------------------------------------

class BrokerAdmissionTest : public ::testing::Test {
 protected:
  BrokerAdmissionTest() : scenario_(sim::make_coverage_room(/*grid_n=*/4)) {
    os_ = std::make_unique<SurfOS>(scenario_.environment.get(), scenario_.ap(),
                                   scenario_.band, scenario_.budget);
    const surface::Catalog catalog = surface::Catalog::standard();
    os_->install_programmable(*catalog.find("NR-Surface"),
                              scenario_.surface_pose, 8, 8, "wall");
    os_->register_endpoint("phone", hal::EndpointKind::kClient,
                           {1.0, 2.0, 1.0});
    os_->register_endpoint("laptop", hal::EndpointKind::kClient,
                           {1.2, 2.4, 1.0});
  }

  sim::CoverageRoomScenario scenario_;
  std::unique_ptr<SurfOS> os_;
};

TEST_F(BrokerAdmissionTest, SubmitThenPumpStartsSessionsWithTraceIds) {
  ServiceBroker& broker = os_->broker();
  EXPECT_TRUE(broker
                  .submit_demand("xfer", demand_profile(
                                             AppClass::kFileTransfer, "laptop"))
                  .ok());
  EXPECT_TRUE(broker
                  .submit_demand("charge",
                                 demand_profile(AppClass::kWirelessCharging,
                                                "phone"))
                  .ok());
  EXPECT_EQ(broker.admission().depth(), 2u);

  EXPECT_EQ(broker.pump_admissions(), 2u);
  EXPECT_TRUE(broker.admission().empty());
  ASSERT_EQ(broker.sessions().size(), 2u);
  for (const auto& [app_id, session] : broker.sessions()) {
    EXPECT_TRUE(session.running);
    EXPECT_NE(session.trace_id, 0u) << app_id;
    EXPECT_FALSE(session.tasks.empty()) << app_id;
  }
}

TEST_F(BrokerAdmissionTest, PumpDropsDuplicateRunningAppWithoutFailing) {
  ServiceBroker& broker = os_->broker();
  ASSERT_TRUE(broker
                  .start_app("xfer",
                             demand_profile(AppClass::kFileTransfer, "laptop"))
                  .ok());
  ASSERT_TRUE(broker
                  .submit_demand("xfer", demand_profile(
                                             AppClass::kFileTransfer, "laptop"))
                  .ok());
  EXPECT_EQ(broker.pump_admissions(), 0u);
  EXPECT_EQ(broker.sessions().size(), 1u);
}

TEST_F(BrokerAdmissionTest, StartAppCollisionNamesTheCollidingTasks) {
  ServiceBroker& broker = os_->broker();
  ASSERT_TRUE(broker
                  .start_app("xfer",
                             demand_profile(AppClass::kFileTransfer, "laptop"))
                  .ok());
  const auto& session = broker.sessions().at("xfer");
  ASSERT_FALSE(session.tasks.empty());
  const auto collision = broker.start_app(
      "xfer", demand_profile(AppClass::kFileTransfer, "laptop"));
  ASSERT_FALSE(collision.ok());
  EXPECT_EQ(collision.code(), ErrorCode::kAlreadyExists);
  const std::string& what = collision.error().message;
  EXPECT_NE(what.find("xfer"), std::string::npos) << what;
  for (const orch::TaskId id : session.tasks) {
    EXPECT_NE(what.find(std::to_string(id)), std::string::npos) << what;
  }
}

TEST_F(BrokerAdmissionTest, StopAndResumeReportNotFoundOnUnknownApps) {
  ServiceBroker& broker = os_->broker();
  EXPECT_EQ(broker.stop_app("ghost").code(), ErrorCode::kNotFound);
  EXPECT_EQ(broker.resume_app("ghost").code(), ErrorCode::kNotFound);
  ASSERT_TRUE(broker
                  .start_app("xfer",
                             demand_profile(AppClass::kFileTransfer, "laptop"))
                  .ok());
  EXPECT_TRUE(broker.stop_app("xfer").ok());
  EXPECT_FALSE(broker.sessions().at("xfer").running);
  EXPECT_TRUE(broker.resume_app("xfer").ok());
  EXPECT_TRUE(broker.sessions().at("xfer").running);
}

TEST_F(BrokerAdmissionTest, ResultCodesCoverTheRetiredThrowingContract) {
  // The deprecated *_or_throw shims are gone (they lasted the promised one
  // release); every case they bridged maps to a Result code.
  ServiceBroker& broker = os_->broker();
  EXPECT_EQ(broker.stop_app("ghost").code(), ErrorCode::kNotFound);
  EXPECT_EQ(broker.resume_app("ghost").code(), ErrorCode::kNotFound);
  EXPECT_TRUE(
      broker.start_app("xfer", demand_profile(AppClass::kFileTransfer, "laptop"))
          .ok());
  EXPECT_EQ(broker
                .start_app("xfer",
                           demand_profile(AppClass::kFileTransfer, "laptop"))
                .code(),
            ErrorCode::kAlreadyExists);
}

}  // namespace
}  // namespace surfos::broker
