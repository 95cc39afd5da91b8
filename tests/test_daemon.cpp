// surfosd lifecycle tests (daemon/daemon.hpp): the submit -> status ->
// snapshot -> restart -> resume drill, wire-level rejection of malformed
// frames, trace-id echo, and knob hot-reload — all with ticker = false so
// every epoch is driven by hand and the tests are deterministic.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "daemon/client.hpp"
#include "daemon/daemon.hpp"
#include "daemon/messages.hpp"
#include "daemon/snapshot.hpp"
#include "proto/serialize.hpp"
#include "proto/wire.hpp"
#include "telemetry/metrics.hpp"

#include "daemon_test_util.hpp"

namespace surfos::daemon {
namespace {

std::vector<std::uint8_t> submit_payload(
    const std::string& app_id, const broker::AppDemand& demand,
    const std::string& site_id = {}) {
  return proto::to_wire(SubmitRequest{app_id, site_id, demand, {}});
}

std::vector<std::uint8_t> app_payload(const std::string& app_id,
                                      const std::string& site_id = {}) {
  return proto::to_wire(AppRequest{app_id, site_id});
}

std::vector<std::uint8_t> knob_payload(const std::string& name,
                                       std::uint64_t value) {
  return proto::to_wire(SetKnobRequest{name, value});
}

broker::AppDemand vr_demand(const std::string& endpoint) {
  return broker::demand_profile(broker::AppClass::kVrGaming, endpoint);
}

std::vector<SessionRow> parse_status(const proto::WireFrame& reply) {
  EXPECT_EQ(reply.type, proto::MsgType::kStatusReply);
  StatusReply status;
  EXPECT_TRUE(from_wire(reply.payload, status).ok());
  return status.sessions;
}

class DaemonTest : public ::testing::Test {
 protected:
  void TearDown() override { core::clear_config(); }
};

// --- In-process request handling --------------------------------------------

TEST_F(DaemonTest, RepliesEchoTheRequestTraceId) {
  Daemon daemon(test_options(temp_path("echo", ".sock")));
  const std::uint64_t trace_id = 0xabcdef0123456789ull;
  const auto reply =
      daemon.handle_request(make_request(proto::MsgType::kGetStatus, trace_id));
  EXPECT_EQ(reply.trace_id, trace_id);
  // Trace-less requests get a daemon-minted (nonzero) id echoed back.
  const auto minted =
      daemon.handle_request(make_request(proto::MsgType::kGetMetrics, 0));
  EXPECT_NE(minted.trace_id, 0u);
}

TEST_F(DaemonTest, SubmitThenEpochStartsTheSession) {
  Daemon daemon(test_options(temp_path("sub", ".sock")));
  const auto reply = daemon.handle_request(make_request(
      proto::MsgType::kSubmitDemand, 1,
      submit_payload("vr", vr_demand("headset"))));
  ASSERT_EQ(reply.type, proto::MsgType::kOk);

  // Queued, not yet running: admission drains on the next epoch.
  auto rows = parse_status(
      daemon.handle_request(make_request(proto::MsgType::kGetStatus, 2)));
  EXPECT_TRUE(rows.empty());

  daemon.run_epoch();
  rows = parse_status(
      daemon.handle_request(make_request(proto::MsgType::kGetStatus, 3)));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].app_id, "vr");
  EXPECT_EQ(rows[0].site_id, "site0");
  EXPECT_TRUE(rows[0].running);
  EXPECT_NE(rows[0].trace_id, 0u);
  EXPECT_EQ(daemon.stats().epochs, 1u);
}

TEST_F(DaemonTest, StopAndResumeRoundTrip) {
  Daemon daemon(test_options(temp_path("sr", ".sock")));
  (void)daemon.handle_request(make_request(
      proto::MsgType::kSubmitDemand, 1, submit_payload("app", vr_demand("d"))));
  daemon.run_epoch();

  const std::vector<std::uint8_t> stop_payload = app_payload("app");
  auto reply = daemon.handle_request(
      make_request(proto::MsgType::kStopApp, 2, stop_payload));
  EXPECT_EQ(reply.type, proto::MsgType::kOk);
  auto rows = parse_status(
      daemon.handle_request(make_request(proto::MsgType::kGetStatus, 3)));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0].running);

  reply = daemon.handle_request(
      make_request(proto::MsgType::kResumeApp, 4, stop_payload));
  EXPECT_EQ(reply.type, proto::MsgType::kOk);
  rows = parse_status(
      daemon.handle_request(make_request(proto::MsgType::kGetStatus, 5)));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].running);

  // Unknown apps answer kNotFound over the wire, same code as in-process.
  EXPECT_EQ(error_code_of(daemon.handle_request(make_request(
                proto::MsgType::kStopApp, 6, app_payload("ghost")))),
            ErrorCode::kNotFound);
}

TEST_F(DaemonTest, MalformedPayloadsAnswerWithWireStableCodes) {
  Daemon daemon(test_options(temp_path("mal", ".sock")));
  // Submit without a demand: kMalformedFrame.
  EXPECT_EQ(error_code_of(daemon.handle_request(make_request(
                proto::MsgType::kSubmitDemand, 1,
                proto::to_wire(SubmitRequest{"x", {}, {}, {}})))),
            ErrorCode::kMalformedFrame);
  // Unknown site: kNotFound.
  EXPECT_EQ(error_code_of(daemon.handle_request(make_request(
                proto::MsgType::kSubmitDemand, 2,
                submit_payload("x", vr_demand("d"), "atlantis")))),
            ErrorCode::kNotFound);
  // A reply-only message type as a request: kUnknownCommand.
  EXPECT_EQ(error_code_of(daemon.handle_request(
                make_request(proto::MsgType::kOk, 3))),
            ErrorCode::kUnknownCommand);
  // Restore without sessions but with no snapshot file: kIoError.
  EXPECT_EQ(error_code_of(daemon.handle_request(
                make_request(proto::MsgType::kRestore, 4))),
            ErrorCode::kIoError);
}

TEST_F(DaemonTest, SetKnobHotReloadsAdmissionCapacity) {
  core::install_config(core::Config());  // daemon mode, all defaults
  Daemon daemon(test_options(temp_path("knob", ".sock")));

  ASSERT_EQ(daemon
                .handle_request(make_request(
                    proto::MsgType::kSetKnob, 1,
                    knob_payload("SURFOS_ADMIT_QUEUE", 1)))
                .type,
            proto::MsgType::kOk);

  // Capacity 1 (hot-reloaded, no restart): the first background demand
  // queues, the second is refused at admission.
  const auto bg = broker::demand_profile(broker::AppClass::kFileTransfer, "a");
  ASSERT_EQ(daemon
                .handle_request(make_request(proto::MsgType::kSubmitDemand, 2,
                                             submit_payload("bulk1", bg)))
                .type,
            proto::MsgType::kOk);
  EXPECT_EQ(error_code_of(daemon.handle_request(
                make_request(proto::MsgType::kSubmitDemand, 3,
                             submit_payload("bulk2", bg)))),
            ErrorCode::kAdmissionShed);

  // Unknown knob / below-minimum value come back as wire-stable errors.
  EXPECT_EQ(error_code_of(daemon.handle_request(make_request(
                proto::MsgType::kSetKnob, 4,
                knob_payload("SURFOS_NOT_REAL", 1)))),
            ErrorCode::kNotFound);
}

TEST_F(DaemonTest, SetKnobRefusesConstructionReloadRows) {
  core::install_config(core::Config());
  Daemon daemon(test_options(temp_path("knobc", ".sock")));
  // Rows read once at construction would take effect only after a restart:
  // the reply says so instead of a silent kOk.
  for (const char* name :
       {"SURFOS_THREADS", "SURFOS_TRACE_BUFFER", "SURFOS_TRACE"}) {
    const auto reply = daemon.handle_request(
        make_request(proto::MsgType::kSetKnob, 1, knob_payload(name, 2)));
    EXPECT_EQ(error_code_of(reply), ErrorCode::kInvalidArgument) << name;
    Error error;
    ASSERT_TRUE(from_wire(reply.payload, error).ok());
    EXPECT_NE(error.message.find("construction"), std::string::npos)
        << error.message;
  }
  EXPECT_EQ(core::knob(core::Knob::kThreads), 0u);  // unchanged
}

// --- The snapshot / restart / resume drill -----------------------------------

TEST_F(DaemonTest, SnapshotRestartResumeDrill) {
  const std::string snapshot_path = temp_path("drill", ".snap");
  std::vector<std::uint8_t> report_before;
  std::vector<SessionRow> rows_before;
  std::uint64_t queued_trace = 0;
  geom::Vec3 cam0_before;

  {
    Daemon daemon(test_options(temp_path("a", ".sock"), snapshot_path));
    // Two sessions: one running, one stopped.
    (void)daemon.handle_request(
        make_request(proto::MsgType::kSubmitDemand, 1,
                     submit_payload("vr", vr_demand("headset"))));
    (void)daemon.handle_request(make_request(
        proto::MsgType::kSubmitDemand, 2,
        submit_payload("cam", broker::demand_profile(
                                  broker::AppClass::kSmartHome, "cam0"))));
    daemon.run_epoch();
    daemon.run_epoch();
    ASSERT_EQ(daemon
                  .handle_request(make_request(proto::MsgType::kStopApp, 3,
                                               app_payload("cam")))
                  .type,
              proto::MsgType::kOk);
    // A third demand stays in-flight in the admission queue (no epoch runs
    // before the snapshot).
    (void)daemon.handle_request(
        make_request(proto::MsgType::kSubmitDemand, 4,
                     submit_payload("late", vr_demand("phone"))));

    rows_before = parse_status(
        daemon.handle_request(make_request(proto::MsgType::kGetStatus, 5)));
    ASSERT_EQ(rows_before.size(), 2u);
    report_before = daemon.last_report_wire();
    ASSERT_FALSE(report_before.empty());

    ASSERT_EQ(daemon.handle_request(make_request(proto::MsgType::kSnapshot, 6))
                  .type,
              proto::MsgType::kOk);
  }  // daemon A gone — the "crash"

  // The snapshot file records the in-flight demand and the auto-registered
  // endpoints the sessions reference.
  {
    auto loaded = load_snapshot_file(snapshot_path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().sessions.size(), 2u);
    ASSERT_EQ(loaded.value().queued.size(), 1u);
    EXPECT_EQ(loaded.value().queued[0].app_id, "late");
    EXPECT_EQ(loaded.value().endpoints.size(), 3u);  // headset, cam0, phone
    for (const EndpointRecord& record : loaded.value().endpoints) {
      if (record.endpoint_id == "cam0") {
        cam0_before = {record.x, record.y, record.z};
      }
    }
  }

  Daemon restarted(test_options(temp_path("b", ".sock"), snapshot_path));
  ASSERT_TRUE(restarted.load_snapshot().ok());

  // Byte-identical FleetReport before and after restore, served by
  // get_metrics until the first post-restore epoch.
  EXPECT_EQ(restarted.last_report_wire(), report_before);
  MetricsReply metrics;
  ASSERT_TRUE(from_wire(restarted
                            .handle_request(make_request(
                                proto::MsgType::kGetMetrics, 7))
                            .payload,
                        metrics)
                  .ok());
  EXPECT_EQ(metrics.report, report_before);

  // Sessions resume under their ORIGINAL trace ids and running flags.
  auto rows_after = parse_status(
      restarted.handle_request(make_request(proto::MsgType::kGetStatus, 8)));
  ASSERT_EQ(rows_after.size(), rows_before.size());
  for (const SessionRow& before : rows_before) {
    bool found = false;
    for (const SessionRow& after : rows_after) {
      if (after.app_id != before.app_id) continue;
      found = true;
      EXPECT_EQ(after.trace_id, before.trace_id) << before.app_id;
      EXPECT_EQ(after.running, before.running) << before.app_id;
    }
    EXPECT_TRUE(found) << before.app_id;
  }

  // The in-flight demand went back through admission: one epoch admits it.
  restarted.run_epoch();
  rows_after = parse_status(
      restarted.handle_request(make_request(proto::MsgType::kGetStatus, 9)));
  ASSERT_EQ(rows_after.size(), 3u);
  bool late_running = false;
  for (const SessionRow& row : rows_after) {
    if (row.app_id == "late") late_running = row.running;
  }
  EXPECT_TRUE(late_running);

  // That epoch's GC let the stopped cam's endpoint depart; resume brings it
  // back at its snapshotted position and re-translates cam's demand.
  const SurfOS& site0 = *restarted.fleet().find_site("site0");
  EXPECT_EQ(site0.registry().find_endpoint("cam0"), nullptr);
  ASSERT_EQ(restarted
                .handle_request(make_request(proto::MsgType::kResumeApp, 10,
                                             app_payload("cam")))
                .type,
            proto::MsgType::kOk);
  restarted.run_epoch();
  const hal::EndpointDevice* cam0 = site0.registry().find_endpoint("cam0");
  ASSERT_NE(cam0, nullptr);
  EXPECT_EQ(cam0->position.x, cam0_before.x);
  EXPECT_EQ(cam0->position.y, cam0_before.y);
  EXPECT_EQ(cam0->position.z, cam0_before.z);
  const broker::AppSession& cam = site0.broker().sessions().at("cam");
  EXPECT_TRUE(cam.running);
  EXPECT_FALSE(cam.tasks.empty());
  for (const SessionRow& before : rows_before) {
    if (before.app_id != "cam") continue;
    EXPECT_EQ(cam.trace_id, before.trace_id);
  }
  (void)queued_trace;
  std::remove(snapshot_path.c_str());
}

TEST_F(DaemonTest, RestoreRefusesWhenSessionsExist) {
  const std::string snapshot_path = temp_path("busy", ".snap");
  Daemon daemon(test_options(temp_path("c", ".sock"), snapshot_path));
  (void)daemon.handle_request(make_request(
      proto::MsgType::kSubmitDemand, 1, submit_payload("vr", vr_demand("h"))));
  daemon.run_epoch();
  ASSERT_EQ(
      daemon.handle_request(make_request(proto::MsgType::kSnapshot, 2)).type,
      proto::MsgType::kOk);
  EXPECT_EQ(error_code_of(daemon.handle_request(
                make_request(proto::MsgType::kRestore, 3))),
            ErrorCode::kUnavailable);
  std::remove(snapshot_path.c_str());
}

TEST_F(DaemonTest, RestoreRefusesWhenDemandsAreQueued) {
  const std::string snapshot_path = temp_path("queued", ".snap");
  Daemon daemon(test_options(temp_path("q", ".sock"), snapshot_path));
  ASSERT_EQ(
      daemon.handle_request(make_request(proto::MsgType::kSnapshot, 1)).type,
      proto::MsgType::kOk);
  // No session yet, but a demand waits in the admission queue.
  (void)daemon.handle_request(make_request(
      proto::MsgType::kSubmitDemand, 2, submit_payload("vr", vr_demand("h"))));
  EXPECT_EQ(error_code_of(daemon.handle_request(
                make_request(proto::MsgType::kRestore, 3))),
            ErrorCode::kUnavailable);
  std::remove(snapshot_path.c_str());
}

/// Everything a restore may touch, as a refused restore must leave it.
struct RestoreVisibleState {
  std::uint64_t epochs = 0;
  std::vector<std::uint8_t> report;
  std::vector<std::string> sessions, endpoints;
  std::vector<std::size_t> queued;
  bool operator==(const RestoreVisibleState&) const = default;
};

RestoreVisibleState visible_state(const Daemon& daemon,
                                  const std::vector<std::string>& site_ids) {
  RestoreVisibleState state;
  state.epochs = daemon.stats().epochs;
  state.report = daemon.last_report_wire();
  for (const std::string& id : site_ids) {
    const SurfOS& site = *daemon.fleet().find_site(id);
    for (const auto& [app_id, session] : site.broker().sessions()) {
      state.sessions.push_back(id + "/" + app_id);
    }
    state.queued.push_back(site.broker().admission().depth());
    for (const hal::EndpointDevice& endpoint : site.registry().endpoints()) {
      state.endpoints.push_back(id + "/" + endpoint.id);
    }
  }
  return state;
}

/// A 2-site snapshot: a running app on each site, then a queued demand on
/// site0. Site0's records come first, so a restore that applied records as
/// it checked them would be half done when it reached site1.
void write_two_site_snapshot(const std::string& snapshot_path) {
  DaemonOptions options =
      test_options(temp_path("two", ".sock"), snapshot_path);
  options.sites = 2;
  Daemon daemon(options);
  (void)daemon.handle_request(
      make_request(proto::MsgType::kSubmitDemand, 1,
                   submit_payload("vr", vr_demand("headset"), "site0")));
  (void)daemon.handle_request(
      make_request(proto::MsgType::kSubmitDemand, 2,
                   submit_payload("cam", vr_demand("cam0"), "site1")));
  daemon.run_epoch();
  (void)daemon.handle_request(
      make_request(proto::MsgType::kSubmitDemand, 3,
                   submit_payload("late", vr_demand("phone"), "site0")));
  ASSERT_EQ(
      daemon.handle_request(make_request(proto::MsgType::kSnapshot, 4)).type,
      proto::MsgType::kOk);
}

TEST_F(DaemonTest, RestoreOfUnknownSiteAppliesNothing) {
  const std::string snapshot_path = temp_path("sites", ".snap");
  write_two_site_snapshot(snapshot_path);

  Daemon daemon(test_options(temp_path("one", ".sock"), snapshot_path));
  daemon.run_epoch();
  daemon.run_epoch();
  const RestoreVisibleState before = visible_state(daemon, {"site0"});
  ASSERT_EQ(before.epochs, 2u);
  ASSERT_FALSE(before.report.empty());

  EXPECT_EQ(error_code_of(daemon.handle_request(
                make_request(proto::MsgType::kRestore, 1))),
            ErrorCode::kNotFound);
  EXPECT_EQ(visible_state(daemon, {"site0"}), before);
  EXPECT_FALSE(daemon.load_snapshot().ok());
  EXPECT_EQ(visible_state(daemon, {"site0"}), before);
  std::remove(snapshot_path.c_str());
}

TEST_F(DaemonTest, RestoreOfRepeatedAppIdAppliesNothing) {
  const std::string snapshot_path = temp_path("dup", ".snap");
  write_two_site_snapshot(snapshot_path);
  auto loaded = load_snapshot_file(snapshot_path);
  ASSERT_TRUE(loaded.ok());
  DaemonSnapshot snapshot = loaded.value();
  ASSERT_EQ(snapshot.sessions.size(), 2u);
  snapshot.sessions.push_back(snapshot.sessions.front());
  ASSERT_TRUE(save_snapshot_file(snapshot, snapshot_path).ok());

  DaemonOptions options = test_options(temp_path("dupd", ".sock"),
                                       snapshot_path);
  options.sites = 2;
  Daemon daemon(options);
  daemon.run_epoch();
  const RestoreVisibleState before =
      visible_state(daemon, {"site0", "site1"});
  EXPECT_EQ(error_code_of(daemon.handle_request(
                make_request(proto::MsgType::kRestore, 1))),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(visible_state(daemon, {"site0", "site1"}), before);
  std::remove(snapshot_path.c_str());
}

// --- Damaged snapshot files --------------------------------------------------

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return bytes;
  int c = 0;
  while ((c = std::fgetc(file)) != EOF) {
    bytes.push_back(static_cast<std::uint8_t>(c));
  }
  std::fclose(file);
  return bytes;
}

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  }
  std::fclose(file);
}

/// A small 1-site snapshot: one running vr session after one epoch.
std::vector<std::uint8_t> small_snapshot(const std::string& snapshot_path) {
  Daemon daemon(test_options(temp_path("small", ".sock"), snapshot_path));
  (void)daemon.handle_request(make_request(
      proto::MsgType::kSubmitDemand, 1, submit_payload("vr", vr_demand("h"))));
  daemon.run_epoch();
  EXPECT_EQ(
      daemon.handle_request(make_request(proto::MsgType::kSnapshot, 2)).type,
      proto::MsgType::kOk);
  return read_file(snapshot_path);
}

/// Every way in must refuse `path`'s bytes with kMalformedFrame and leave a
/// fresh daemon as it was.
void expect_refused(Daemon& daemon, const std::string& path,
                    const std::string& what) {
  const RestoreVisibleState before = visible_state(daemon, {"site0"});
  const auto loaded = load_snapshot_file(path);
  ASSERT_FALSE(loaded.ok()) << what;
  EXPECT_EQ(loaded.error().code, ErrorCode::kMalformedFrame) << what;
  const auto direct = daemon.load_snapshot();
  ASSERT_FALSE(direct.ok()) << what;
  EXPECT_EQ(direct.error().code, ErrorCode::kMalformedFrame) << what;
  EXPECT_EQ(error_code_of(daemon.handle_request(
                make_request(proto::MsgType::kRestore, 9))),
            ErrorCode::kMalformedFrame)
      << what;
  EXPECT_EQ(visible_state(daemon, {"site0"}), before) << what;
}

TEST_F(DaemonTest, SnapshotFileRefusesTruncationAtEveryOffset) {
  const std::string path = temp_path("trunc", ".snap");
  const std::vector<std::uint8_t> good = small_snapshot(path);
  ASSERT_GT(good.size(), 12u);
  Daemon daemon(test_options(temp_path("t", ".sock"), path));
  for (std::size_t n = 0; n < good.size(); ++n) {
    write_file(path, std::span<const std::uint8_t>(good).first(n));
    expect_refused(daemon, path, "truncated to " + std::to_string(n));
    if (HasFatalFailure()) break;
  }
  write_file(path, good);
  EXPECT_TRUE(daemon.load_snapshot().ok());
  std::remove(path.c_str());
}

TEST_F(DaemonTest, SnapshotFileRefusesSingleBitFlips) {
  const std::string path = temp_path("flip", ".snap");
  const std::vector<std::uint8_t> good = small_snapshot(path);
  Daemon daemon(test_options(temp_path("f", ".sock"), path));
  // One flip per byte, walking the bit position, so the header, the length,
  // the checksum and every payload byte are each hit once.
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::uint8_t> damaged = good;
    damaged[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    write_file(path, damaged);
    expect_refused(daemon, path, "bit flip at byte " + std::to_string(i));
    if (HasFatalFailure()) break;
  }
  write_file(path, good);
  EXPECT_TRUE(daemon.load_snapshot().ok());
  std::remove(path.c_str());
}

TEST_F(DaemonTest, LeftoverTempFileBesideAGoodSnapshotIsIgnored) {
  // A crash between the temp write and the rename leaves a partial .tmp
  // next to the last good snapshot: the load reads only the good file, the
  // .tmp itself is refused, and the next save replaces it.
  const std::string path = temp_path("tmp", ".snap");
  const std::vector<std::uint8_t> good = small_snapshot(path);
  const std::string tmp = path + ".tmp";
  write_file(tmp, std::span<const std::uint8_t>(good).first(good.size() / 2));

  const auto loaded = load_snapshot_file(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().sessions.size(), 1u);
  const auto partial = load_snapshot_file(tmp);
  ASSERT_FALSE(partial.ok());
  EXPECT_EQ(partial.error().code, ErrorCode::kMalformedFrame);

  ASSERT_TRUE(save_snapshot_file(loaded.value(), path).ok());
  EXPECT_EQ(read_file(path), good);
  std::FILE* stale = std::fopen(tmp.c_str(), "rb");
  EXPECT_EQ(stale, nullptr);
  if (stale != nullptr) std::fclose(stale);

  Daemon daemon(test_options(temp_path("g", ".sock"), path));
  ASSERT_TRUE(daemon.load_snapshot().ok());
  EXPECT_EQ(daemon.fleet().find_site("site0")->broker().sessions().size(), 1u);
  std::remove(path.c_str());
}

// --- Epoch phase spans --------------------------------------------------------

TEST_F(DaemonTest, EpochPhaseSpansCountOncePerEpoch) {
  Daemon daemon(test_options(temp_path("spans", ".sock")));
  (void)daemon.handle_request(make_request(
      proto::MsgType::kSubmitDemand, 1, submit_payload("vr", vr_demand("h"))));
  auto& metrics = telemetry::MetricsRegistry::instance();
  const char* const phases[] = {
      "surfosd.epoch",           "surfosd.epoch.advance",
      "surfosd.epoch.escalate_gc", "surfosd.epoch.serialize",
      "surfosd.epoch.slo",       "surfosd.epoch.publish"};
  for (int epoch = 0; epoch < 3; ++epoch) {
    std::vector<std::uint64_t> before;
    for (const char* name : phases) {
      before.push_back(metrics.histogram(name).count());
    }
    daemon.run_epoch();
    for (std::size_t i = 0; i < std::size(phases); ++i) {
      EXPECT_EQ(metrics.histogram(phases[i]).count(), before[i] + 1)
          << phases[i] << " in epoch " << epoch;
    }
  }
}

TEST_F(DaemonTest, DepartedEndpointsAreGarbageCollected) {
  core::install_config(core::Config());
  ASSERT_TRUE(core::set_config_knob("SURFOS_ADMIT_QUEUE", 1).ok());
  const std::string snapshot_path = temp_path("gc", ".snap");
  Daemon daemon(test_options(temp_path("d", ".sock"), snapshot_path));

  // First demand queues (its endpoint arrives); the second is shed, but its
  // endpoint was registered before admission refused it — a visitor that
  // never got service.
  (void)daemon.handle_request(make_request(
      proto::MsgType::kSubmitDemand, 1, submit_payload("a", vr_demand("e1"))));
  EXPECT_EQ(error_code_of(daemon.handle_request(make_request(
                proto::MsgType::kSubmitDemand, 2,
                submit_payload("b", vr_demand("e2"))))),
            ErrorCode::kAdmissionShed);

  // End-of-epoch GC deregisters the unreferenced endpoint.
  daemon.run_epoch();
  ASSERT_EQ(
      daemon.handle_request(make_request(proto::MsgType::kSnapshot, 3)).type,
      proto::MsgType::kOk);
  auto snapshot = load_snapshot_file(snapshot_path);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot.value().endpoints.size(), 1u);
  EXPECT_EQ(snapshot.value().endpoints[0].endpoint_id, "e1");
  std::remove(snapshot_path.c_str());
}

TEST_F(DaemonTest, ChurnStateStaysBounded) {
  DaemonOptions options = test_options(temp_path("churn", ".sock"));
  options.sites = 2;
  Daemon daemon(options);
  const std::vector<std::string> site_ids{"site0", "site1"};
  std::size_t fresh = 0;
  auto submit = [&](const std::string& app_id, const std::string& site_id) {
    const std::string endpoint = "ep" + std::to_string(fresh++);
    ASSERT_EQ(daemon
                  .handle_request(make_request(
                      proto::MsgType::kSubmitDemand, 1,
                      submit_payload(app_id, vr_demand(endpoint), site_id)))
                  .type,
              proto::MsgType::kOk);
  };
  // Three live apps per site, oldest first.
  std::vector<std::deque<std::string>> live(site_ids.size());
  for (std::size_t s = 0; s < site_ids.size(); ++s) {
    for (int k = 0; k < 3; ++k) {
      live[s].push_back("app" + std::to_string(fresh));
      submit(live[s].back(), site_ids[s]);
    }
  }
  daemon.run_epoch();

  for (int epoch = 0; epoch < 60; ++epoch) {
    for (std::size_t s = 0; s < site_ids.size(); ++s) {
      // Stop the two oldest apps. Re-submit the first under its own app id
      // (a stopped session replaced in place) and the second under a fresh
      // one (a stopped session left behind); both move to a fresh endpoint.
      for (int way = 0; way < 2; ++way) {
        const std::string oldest = live[s].front();
        live[s].pop_front();
        ASSERT_EQ(daemon
                      .handle_request(
                          make_request(proto::MsgType::kStopApp, 2,
                                       app_payload(oldest, site_ids[s])))
                      .type,
                  proto::MsgType::kOk);
        live[s].push_back(way == 0 ? oldest : "app" + std::to_string(fresh));
        submit(live[s].back(), site_ids[s]);
      }
    }
    daemon.run_epoch();

    for (const std::string& site_id : site_ids) {
      const SurfOS& site = *daemon.fleet().find_site(site_id);
      std::size_t running = 0;
      std::size_t live_tasks = 0;
      std::set<std::string> named;
      for (const auto& [app_id, session] : site.broker().sessions()) {
        if (!session.running) {
          EXPECT_TRUE(session.tasks.empty()) << app_id;
          continue;
        }
        ++running;
        live_tasks += session.tasks.size();
        named.insert(session.demand.endpoint_id);
      }
      ASSERT_EQ(running, 3u) << site_id << " after churn epoch " << epoch;
      ASSERT_GE(live_tasks, running);
      for (const auto& queued : site.broker().admission().pending()) {
        named.insert(queued.demand.endpoint_id);
      }
      std::set<std::string> registered;
      for (const hal::EndpointDevice& endpoint :
           site.registry().endpoints()) {
        registered.insert(endpoint.id);
      }
      ASSERT_EQ(site.orchestrator().tasks().size(), live_tasks)
          << site_id << " after churn epoch " << epoch;
      ASSERT_EQ(registered, named)
          << site_id << " after churn epoch " << epoch;
    }
  }
}

// --- Over the socket ---------------------------------------------------------

TEST_F(DaemonTest, SocketHelloNegotiatesVersion) {
  const std::string socket_path = temp_path("hello", ".sock");
  Daemon daemon(test_options(socket_path));
  ASSERT_TRUE(daemon.start().ok());

  auto client = Client::connect(socket_path);
  ASSERT_TRUE(client.ok());
  const auto ack = client.value().request<HelloAck>(
      proto::MsgType::kHello, proto::to_wire(HelloRequest{}));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value().chosen_version, proto::kProtoVersion);
  EXPECT_EQ(ack.value().server_name, "surfosd");
  daemon.stop();
}

TEST_F(DaemonTest, SocketRequestRefusesAReplyOfAnotherType) {
  const std::string socket_path = temp_path("rtype", ".sock");
  Daemon daemon(test_options(socket_path));
  ASSERT_TRUE(daemon.start().ok());
  auto client = Client::connect(socket_path);
  ASSERT_TRUE(client.ok());
  // kGetKnobs answers kKnobsReply, which is neither a kHelloAck nor a kOk;
  // the kOk that answers a submit is no kHelloAck either.
  Client& c = client.value();
  const auto submit = submit_payload("vr", vr_demand("headset"));
  EXPECT_EQ(c.request<HelloAck>(proto::MsgType::kGetKnobs, {}).code(),
            ErrorCode::kMalformedFrame);
  EXPECT_EQ(c.request<void>(proto::MsgType::kGetKnobs, {}).code(),
            ErrorCode::kMalformedFrame);
  EXPECT_EQ(c.request<HelloAck>(proto::MsgType::kSubmitDemand, submit).code(),
            ErrorCode::kMalformedFrame);
  EXPECT_TRUE(c.request<KnobsReply>(proto::MsgType::kGetKnobs, {}).ok());
  daemon.stop();
}

TEST_F(DaemonTest, SocketSubmitStatusDrill) {
  const std::string socket_path = temp_path("sock", ".sock");
  Daemon daemon(test_options(socket_path));
  ASSERT_TRUE(daemon.start().ok());

  auto client = Client::connect(socket_path);
  ASSERT_TRUE(client.ok());
  const std::uint64_t trace_id = 0x7777777777777777ull;
  const auto submit = client.value().call(
      proto::MsgType::kSubmitDemand,
      submit_payload("vr", vr_demand("headset")), trace_id);
  ASSERT_TRUE(submit.ok());
  EXPECT_EQ(submit.value().type, proto::MsgType::kOk);
  EXPECT_EQ(submit.value().trace_id, trace_id);  // echo across the socket

  daemon.run_epoch();
  const auto status = client.value().call(proto::MsgType::kGetStatus, {});
  ASSERT_TRUE(status.ok());
  const auto rows = parse_status(status.value());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].app_id, "vr");
  EXPECT_TRUE(rows[0].running);
  daemon.stop();
}

/// Connects a raw AF_UNIX stream socket (bypassing Client so tests can send
/// deliberately damaged bytes). Returns -1 on failure.
int raw_connect(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `bytes`, reads until the peer closes, and returns everything read.
std::vector<std::uint8_t> send_and_drain(int fd,
                                         const std::vector<std::uint8_t>& bytes) {
  EXPECT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  std::vector<std::uint8_t> received;
  std::uint8_t chunk[4096];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    received.insert(received.end(), chunk, chunk + n);
  }
  return received;
}

TEST_F(DaemonTest, SocketRejectsBadVersionOversizedAndGarbageFrames) {
  const std::string socket_path = temp_path("rej", ".sock");
  Daemon daemon(test_options(socket_path));
  ASSERT_TRUE(daemon.start().ok());

  // A frame claiming protocol version 99: kError(kUnsupportedVersion) reply,
  // then the daemon closes the connection.
  {
    proto::WireFrame frame;
    frame.type = proto::MsgType::kGetStatus;
    auto encoded = proto::encode_frame(frame);
    ASSERT_TRUE(encoded.ok());
    encoded.value()[4] = 99;
    const int fd = raw_connect(socket_path);
    ASSERT_GE(fd, 0);
    const auto received = send_and_drain(fd, encoded.value());
    ::close(fd);
    const proto::FrameDecode decode = proto::try_decode_frame(received);
    ASSERT_TRUE(decode.frame.has_value());
    EXPECT_EQ(error_code_of(*decode.frame), ErrorCode::kUnsupportedVersion);
  }

  // A header declaring a payload beyond the 1 MiB cap: kError(kOutOfRange),
  // connection closed without waiting for the phantom bytes.
  {
    std::vector<std::uint8_t> header(proto::kFrameHeaderSize, 0);
    const std::uint32_t huge = proto::kMaxFramePayload + 1;
    header[0] = static_cast<std::uint8_t>(huge & 0xff);
    header[1] = static_cast<std::uint8_t>((huge >> 8) & 0xff);
    header[2] = static_cast<std::uint8_t>((huge >> 16) & 0xff);
    header[3] = static_cast<std::uint8_t>((huge >> 24) & 0xff);
    header[4] = proto::kProtoVersion;
    header[5] = static_cast<std::uint8_t>(proto::MsgType::kHello);
    const int fd = raw_connect(socket_path);
    ASSERT_GE(fd, 0);
    const auto received = send_and_drain(fd, header);
    ::close(fd);
    const proto::FrameDecode decode = proto::try_decode_frame(received);
    ASSERT_TRUE(decode.frame.has_value());
    EXPECT_EQ(error_code_of(*decode.frame), ErrorCode::kOutOfRange);
  }

  // An unknown message type byte: kError(kUnknownCommand), closed.
  {
    proto::WireFrame frame;
    frame.type = proto::MsgType::kHello;
    auto encoded = proto::encode_frame(frame);
    ASSERT_TRUE(encoded.ok());
    encoded.value()[5] = 200;
    const int fd = raw_connect(socket_path);
    ASSERT_GE(fd, 0);
    const auto received = send_and_drain(fd, encoded.value());
    ::close(fd);
    const proto::FrameDecode decode = proto::try_decode_frame(received);
    ASSERT_TRUE(decode.frame.has_value());
    EXPECT_EQ(error_code_of(*decode.frame), ErrorCode::kUnknownCommand);
  }

  // The daemon survives all three abuses and still serves good clients.
  auto client = Client::connect(socket_path);
  ASSERT_TRUE(client.ok());
  const auto status = client.value().call(proto::MsgType::kGetStatus, {});
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().type, proto::MsgType::kStatusReply);
  EXPECT_EQ(daemon.stats().malformed, 3u);
  daemon.stop();
}

TEST_F(DaemonTest, ShutdownOverTheWireStopsTheDaemon) {
  const std::string socket_path = temp_path("down", ".sock");
  Daemon daemon(test_options(socket_path));
  ASSERT_TRUE(daemon.start().ok());

  auto client = Client::connect(socket_path);
  ASSERT_TRUE(client.ok());
  const auto reply = client.value().call(proto::MsgType::kShutdown, {});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().type, proto::MsgType::kOk);
  daemon.wait();  // returns because the wire request cleared running_
  EXPECT_FALSE(daemon.running());
  daemon.stop();
}

}  // namespace
}  // namespace surfos::daemon
