// Content-addressed precompute store: digest stability, cross-channel
// artifact sharing, LRU eviction with refcount pinning, cold rebuilds after
// clear() (byte-identical values and StepReports), and delta precompute
// (add / remove / re-add) against a fresh dense build.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/surfos.hpp"
#include "em/soa.hpp"
#include "proto/serialize.hpp"
#include "sim/channel.hpp"
#include "sim/floorplan.hpp"
#include "sim/precompute_store.hpp"
#include "surface/catalog.hpp"
#include "surface/panel.hpp"
#include "telemetry/telemetry.hpp"
#include "util/digest.hpp"
#include "util/thread_pool.hpp"

namespace surfos {
namespace {

/// One coverage-room scene plus a panel; builds channels over any RX list.
struct Scene {
  sim::CoverageRoomScenario scenario;
  std::unique_ptr<surface::SurfacePanel> panel;
  std::vector<const surface::SurfacePanel*> panels;

  explicit Scene(std::size_t grid_n = 4)
      : scenario(sim::make_coverage_room(grid_n)) {
    surface::ElementDesign design;
    design.spacing_m = em::wavelength(em::band_center(scenario.band)) / 2.0;
    design.insertion_loss_db = 1.0;
    panel = std::make_unique<surface::SurfacePanel>(
        "test-surface", scenario.surface_pose, 8, 8, design,
        surface::OperationMode::kReflective,
        surface::Reconfigurability::kPassive,
        surface::ControlGranularity::kElement);
    panels = {panel.get()};
  }

  std::unique_ptr<sim::SceneChannel> make_channel(
      std::vector<geom::Vec3> rx_points, double freq_offset_hz = 0.0) const {
    return std::make_unique<sim::SceneChannel>(
        scenario.environment.get(),
        em::band_center(scenario.band) + freq_offset_hz, scenario.ap(),
        panels, std::move(rx_points));
  }
};

bool planes_equal(const em::CxPlanes& a, const em::CxPlanes& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.at(i) != b.at(i)) return false;
  }
  return true;
}

/// Bitwise (not approximate) artifact equality — the store's contract.
bool channels_identical(const sim::SceneChannel& a,
                        const sim::SceneChannel& b) {
  if (a.panel_count() != b.panel_count() || a.rx_count() != b.rx_count()) {
    return false;
  }
  for (std::size_t p = 0; p < a.panel_count(); ++p) {
    if (!planes_equal(a.tx_planes(p), b.tx_planes(p))) return false;
    for (std::size_t j = 0; j < a.rx_count(); ++j) {
      if (!planes_equal(a.rx_planes(p, j), b.rx_planes(p, j))) return false;
    }
    for (std::size_t q = 0; q < a.panel_count(); ++q) {
      const em::CxPlaneMat& ma = a.cascade_planes(q, p);
      const em::CxPlaneMat& mb = b.cascade_planes(q, p);
      if (ma.rows() != mb.rows() || ma.cols() != mb.cols()) return false;
      for (std::size_t r = 0; r < ma.rows(); ++r) {
        for (std::size_t c = 0; c < ma.cols(); ++c) {
          if (ma.at(r, c) != mb.at(r, c)) return false;
        }
      }
    }
  }
  for (std::size_t j = 0; j < a.rx_count(); ++j) {
    if (a.direct(j) != b.direct(j)) return false;
  }
  return true;
}

/// Every test starts from a cold store with the default budget and leaves
/// global state that way (the store is process-wide).
class PrecomputeTest : public ::testing::Test {
 protected:
  void SetUp() override { sim::PrecomputeStore::instance().clear(); }
  void TearDown() override {
    core::clear_config();
    sim::PrecomputeStore::instance().clear();
    telemetry::set_enabled(true);
  }
};

util::ConfigDigest digest_of(std::initializer_list<double> values) {
  util::DigestBuilder builder;
  for (const double v : values) builder.add_double(v);
  return builder.digest();
}

TEST(Digest, DistinctStableAndOrderSensitive) {
  EXPECT_EQ(digest_of({0.1, 0.2, 0.3}), digest_of({0.1, 0.2, 0.3}));
  EXPECT_NE(digest_of({0.1, 0.2, 0.3}), digest_of({0.1, 0.2, 0.30000000001}));
  EXPECT_NE(digest_of({0.1, 0.2, 0.3}), digest_of({0.2, 0.1, 0.3}));
  // +0.0 and -0.0 hash by bit pattern, so they are distinct keys.
  EXPECT_NE(digest_of({0.0}), digest_of({-0.0}));

  // combine() is order-dependent: (scene, row) never aliases (row, scene).
  const util::ConfigDigest a = digest_of({1.0});
  const util::ConfigDigest b = digest_of({2.0});
  EXPECT_EQ(util::combine(a, b), util::combine(a, b));
  EXPECT_NE(util::combine(a, b), util::combine(b, a));
  EXPECT_NE(util::combine(a, b), util::combine(a, digest_of({3.0})));
}

TEST_F(PrecomputeTest, DigestStableAcrossBuildsAndSensitiveToScene) {
  const Scene scene;
  const auto grid = scene.scenario.room_grid.points();
  const auto a = scene.make_channel(grid);
  const auto b = scene.make_channel(grid);
  // The digest is structural: two builds over one scene agree, and the RX
  // list does not participate (rows are addressed separately).
  EXPECT_EQ(a->scene_digest(), b->scene_digest());
  const auto fewer_rx = scene.make_channel({grid.front(), grid.back()});
  EXPECT_EQ(a->scene_digest(), fewer_rx->scene_digest());

  // Any physical input shifts it: frequency here; geometry/materials/panel
  // layout are covered by the same digest fields.
  const auto detuned = scene.make_channel(grid, /*freq_offset_hz=*/1.0e6);
  EXPECT_NE(a->scene_digest(), detuned->scene_digest());
}

TEST_F(PrecomputeTest, ArtifactsSharedByPointerAcrossChannels) {
  const Scene scene;
  const auto grid = scene.scenario.room_grid.points();

  const auto first = scene.make_channel(grid);
  const sim::PrecomputeStore::Stats cold =
      sim::PrecomputeStore::instance().stats();
  // Cold build: one scene miss plus one miss per RX row, no hits.
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.misses, 1u + grid.size());
  EXPECT_EQ(cold.entries, 1u + grid.size());

  const auto second = scene.make_channel(grid);
  const sim::PrecomputeStore::Stats warm =
      sim::PrecomputeStore::instance().stats();
  EXPECT_EQ(warm.hits, 1u + grid.size());
  EXPECT_EQ(warm.misses, cold.misses);

  // Sharing is by reference, not by copy: the second channel's artifacts
  // are the first channel's artifacts.
  EXPECT_EQ(&first->tx_planes(0), &second->tx_planes(0));
  for (std::size_t j = 0; j < grid.size(); ++j) {
    EXPECT_EQ(&first->rx_planes(0, j), &second->rx_planes(0, j));
  }
}

TEST_F(PrecomputeTest, LruEvictionRespectsByteBudgetAndPinning) {
  const Scene scene;
  const auto grid = scene.scenario.room_grid.points();

  // A budget below any artifact size: only pinned entries may stay. The
  // knob is re-read on every insert, so a set-knob applies immediately.
  core::install_config(core::Config{});
  ASSERT_TRUE(core::set_config_knob("SURFOS_PRECOMPUTE_CACHE", 1).ok());
  EXPECT_EQ(sim::precompute_cache_bytes(), 1u);

  auto live = scene.make_channel(grid);
  const sim::PrecomputeStore::Stats pinned =
      sim::PrecomputeStore::instance().stats();
  // Every artifact is over budget but referenced by `live`, so nothing was
  // evicted out from under it.
  EXPECT_EQ(pinned.evictions, 0u);
  EXPECT_EQ(pinned.entries, 1u + grid.size());

  // Unpin and insert fresh artifacts: now the old ones must go.
  live.reset();
  const auto detuned = scene.make_channel(grid, /*freq_offset_hz=*/1.0e6);
  const sim::PrecomputeStore::Stats after =
      sim::PrecomputeStore::instance().stats();
  EXPECT_GE(after.evictions, 1u + grid.size());
  // The new channel's own (pinned) artifacts survive.
  EXPECT_EQ(after.entries, 1u + grid.size());

  // The original scene is gone: rebuilding it misses again.
  const std::uint64_t misses_before = after.misses;
  const auto rebuilt = scene.make_channel(grid);
  EXPECT_EQ(sim::PrecomputeStore::instance().stats().misses,
            misses_before + 1u + grid.size());
}

TEST_F(PrecomputeTest, ColdRebuildProducesBitIdenticalArtifacts) {
  const Scene scene;
  const auto grid = scene.scenario.room_grid.points();
  auto& store = sim::PrecomputeStore::instance();

  const auto first = scene.make_channel(grid);
  store.clear();
  const std::uint64_t misses_before = store.stats().misses;
  const auto rebuilt = scene.make_channel(grid);
  // A genuine second fill: every artifact missed and was rebuilt into new
  // storage, with the same bits.
  EXPECT_EQ(store.stats().misses, misses_before + 1u + grid.size());
  EXPECT_NE(&first->tx_planes(0), &rebuilt->tx_planes(0));
  EXPECT_NE(&first->rx_planes(0, 0), &rebuilt->rx_planes(0, 0));
  EXPECT_TRUE(channels_identical(*first, *rebuilt));
}

TEST_F(PrecomputeTest, StepReportsByteIdenticalFromColdAndWarmStore) {
  // Timings in StepTrace are only non-zero while telemetry runs; mask them
  // so the wire bytes compare exactly (same trick as the determinism tests).
  telemetry::set_enabled(false);

  const auto run_site = [] {
    sim::CoverageRoomScenario room = sim::make_coverage_room(/*grid_n=*/4);
    SurfOS os(room.environment.get(), room.ap(), room.band, room.budget);
    const surface::Catalog catalog = surface::Catalog::standard();
    os.install_programmable(*catalog.find("NR-Surface"), room.surface_pose,
                            10, 10, "wall");
    os.register_endpoint("laptop", hal::EndpointKind::kClient,
                         {1.2, 2.4, 1.0});
    os.orchestrator().enhance_link({"laptop", 10.0, 50.0});
    std::vector<std::uint8_t> wire;
    for (int i = 0; i < 3; ++i) {
      const auto bytes = proto::to_wire(os.step());
      wire.insert(wire.end(), bytes.begin(), bytes.end());
    }
    return wire;
  };

  // The first site fills an empty store; the second finds every artifact
  // the first one left resident.
  const auto cold = run_site();
  const std::uint64_t hits_before =
      sim::PrecomputeStore::instance().stats().hits;
  const auto warm = run_site();
  EXPECT_GT(sim::PrecomputeStore::instance().stats().hits, hits_before);
  EXPECT_EQ(cold, warm);
}

TEST_F(PrecomputeTest, DeltaAddRemoveReaddMatchesFreshDenseBuild) {
  const Scene scene;
  const auto grid = scene.scenario.room_grid.points();

  auto delta = scene.make_channel(grid);
  const geom::Vec3 removed_point = grid[2];
  const std::vector<geom::Vec3> added = {{1.21, 2.17, 1.04},
                                         {2.45, 0.93, 1.31}};
  delta->precompute_delta(added, std::vector<std::size_t>{2});
  EXPECT_EQ(delta->rx_count(), grid.size() + 1);
  // Re-adding a previously removed point must hit its still-resident row
  // and land bitwise where a dense build would.
  delta->precompute_delta(std::vector<geom::Vec3>{removed_point}, {});

  std::vector<geom::Vec3> churned = grid;
  churned.erase(churned.begin() + 2);
  churned.insert(churned.end(), added.begin(), added.end());
  churned.push_back(removed_point);

  sim::PrecomputeStore::instance().clear();
  const auto fresh = scene.make_channel(churned);
  EXPECT_NE(&fresh->rx_planes(0, 0), &delta->rx_planes(0, 0));
  EXPECT_TRUE(channels_identical(*fresh, *delta));
}

TEST_F(PrecomputeTest, OrchestratorRebasesCachedPlanOnTaskSetChange) {
  sim::CoverageRoomScenario room = sim::make_coverage_room(/*grid_n=*/4);
  SurfOS os(room.environment.get(), room.ap(), room.band, room.budget);
  const surface::Catalog catalog = surface::Catalog::standard();
  os.install_programmable(*catalog.find("NR-Surface"), room.surface_pose, 10,
                          10, "wall");
  os.register_endpoint("laptop", hal::EndpointKind::kClient, {1.2, 2.4, 1.0});
  os.orchestrator().enhance_link({"laptop", 10.0, 50.0});
  os.step();

  // Same environment, one more endpoint/task: the cached plan's channel must
  // be rebased in O(ΔRX), not rebuilt from scratch.
  const auto rebases_before =
      telemetry::MetricsRegistry::instance()
          .counter("orch.plan.rebased")
          .value();
  os.register_endpoint("phone", hal::EndpointKind::kClient, {2.0, 1.0, 1.0});
  os.orchestrator().enhance_link({"phone", 8.0, 50.0});
  const orch::StepReport report = os.step();
  EXPECT_EQ(telemetry::MetricsRegistry::instance()
                .counter("orch.plan.rebased")
                .value(),
            rebases_before + 1);
  // The rebased plan still schedules and re-optimizes for the new task set.
  EXPECT_EQ(report.assignment_count, 1u);
  EXPECT_EQ(report.optimizations_run, 1u);
}

TEST_F(PrecomputeTest, DeltaValidatesRemovalIndicesAndNonEmptyResult) {
  const Scene scene;
  auto chan = scene.make_channel({{1.0, 2.0, 1.0}, {2.0, 1.0, 1.0}});
  EXPECT_THROW(chan->precompute_delta({}, std::vector<std::size_t>{7}),
               std::invalid_argument);
  EXPECT_THROW(chan->precompute_delta({}, std::vector<std::size_t>{0, 1}),
               std::invalid_argument);
  // A rejected delta leaves the RX set untouched; an applied one drops row 0.
  EXPECT_EQ(chan->rx_count(), 2u);
  chan->precompute_delta({}, std::vector<std::size_t>{0});
  EXPECT_EQ(chan->rx_count(), 1u);
  EXPECT_EQ(chan->rx_point(0).x, 2.0);
}

}  // namespace
}  // namespace surfos
