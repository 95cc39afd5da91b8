// Content-addressed precompute store: digest stability, cross-channel
// artifact sharing, LRU eviction with refcount pinning, cold rebuilds after
// clear() (byte-identical values and StepReports), and delta precompute
// (add / remove / re-add) against a fresh dense build.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/surfos.hpp"
#include "em/antenna.hpp"
#include "em/soa.hpp"
#include "geom/grid.hpp"
#include "proto/serialize.hpp"
#include "sim/channel.hpp"
#include "sim/dynamics.hpp"
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
      // The StepTrace timings are wall-clock and vary run to run; zero them
      // so the wire bytes compare exactly.
      orch::StepReport report = os.step();
      report.trace.schedule_us = report.trace.optimize_us = 0.0;
      report.trace.actuate_us = report.trace.measure_us = 0.0;
      report.trace.total_us = 0.0;
      const auto bytes = proto::to_wire(report);
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
  std::vector<geom::Vec3> churned = grid;
  churned.erase(churned.begin() + 2);
  churned.insert(churned.end(), added.begin(), added.end());
  delta->rebase_rx(churned);
  EXPECT_EQ(delta->rx_count(), grid.size() + 1);
  // Re-adding a previously removed point must hit its still-resident row
  // and land bitwise where a dense build would.
  churned.push_back(removed_point);
  delta->rebase_rx(churned);

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

/// Bitwise equality of two plane sets, padding included (memcmp, so -0.0
/// and +0.0 differ and NaNs compare by pattern).
bool planes_bitwise_equal(const em::CxPlanes& a, const em::CxPlanes& b) {
  if (a.size() != b.size() || a.padded_size() != b.padded_size()) return false;
  const std::size_t n = a.padded_size() * sizeof(double);
  return n == 0 || (std::memcmp(a.re(), b.re(), n) == 0 &&
                    std::memcmp(a.im(), b.im(), n) == 0);
}

/// f, every cascade, every g and every h_dir compared with memcmp.
void expect_artifacts_bitwise_equal(const sim::SceneChannel& a,
                                    const sim::SceneChannel& b,
                                    const std::string& where) {
  ASSERT_EQ(a.panel_count(), b.panel_count()) << where;
  ASSERT_EQ(a.rx_count(), b.rx_count()) << where;
  EXPECT_EQ(a.scene_digest(), b.scene_digest()) << where;
  for (std::size_t p = 0; p < a.panel_count(); ++p) {
    EXPECT_TRUE(planes_bitwise_equal(a.tx_planes(p), b.tx_planes(p)))
        << where << ": f of panel " << p;
    for (std::size_t q = 0; q < a.panel_count(); ++q) {
      const em::CxPlaneMat& ma = a.cascade_planes(q, p);
      const em::CxPlaneMat& mb = b.cascade_planes(q, p);
      ASSERT_EQ(ma.rows(), mb.rows()) << where << ": cascade " << q << p;
      ASSERT_EQ(ma.stride(), mb.stride()) << where << ": cascade " << q << p;
      const std::size_t n = ma.rows() * ma.stride() * sizeof(double);
      EXPECT_TRUE(n == 0 || (std::memcmp(ma.re(), mb.re(), n) == 0 &&
                             std::memcmp(ma.im(), mb.im(), n) == 0))
          << where << ": cascade " << q << p;
    }
    for (std::size_t j = 0; j < a.rx_count(); ++j) {
      EXPECT_TRUE(planes_bitwise_equal(a.rx_planes(p, j), b.rx_planes(p, j)))
          << where << ": g of panel " << p << " at rx " << j;
    }
  }
  for (std::size_t j = 0; j < a.rx_count(); ++j) {
    const em::Cx ha = a.direct(j);
    const em::Cx hb = b.direct(j);
    EXPECT_EQ(std::memcmp(&ha, &hb, sizeof(em::Cx)), 0)
        << where << ": h_dir at rx " << j;
  }
}

/// The daemon's room (surfosd's per-site world): four concrete walls, a
/// floor, and a person walking the diagonal track. With `cart`, the mover
/// is a wooden cart instead (a box its crossings do not block) and a glass
/// partition stands across its track, so segments cross both.
sim::DynamicEnvironment daemon_room(bool cart = false) {
  em::MaterialDb materials = em::MaterialDb::standard();
  const int body = sim::add_body_material(materials);
  sim::DynamicEnvironment world(materials, [cart](sim::Environment& env) {
    constexpr double kH = 3.0;
    env.add_vertical_wall(0.0, 4.0, 4.0, 4.0, 0.0, kH, em::kMatConcrete);
    env.add_vertical_wall(0.0, 0.0, 0.0, 4.0, 0.0, kH, em::kMatConcrete);
    env.add_vertical_wall(4.0, 0.0, 4.0, 4.0, 0.0, kH, em::kMatConcrete);
    env.add_vertical_wall(0.0, 0.0, 4.0, 0.0, 0.0, kH, em::kMatConcrete);
    env.add_horizontal_slab(0.0, 4.0, 0.0, 4.0, 0.0, em::kMatFloor);
    if (cart) {
      env.add_obstacle_box({1.98, 1.2, 0.0}, {2.02, 2.8, 1.6}, em::kMatGlass);
    }
  });
  sim::MovingBlocker person;
  person.id = "walker";
  person.waypoints = {{0.8, 0.8, 0.0}, {3.2, 3.2, 0.0}};
  person.speed_mps = 0.8;
  person.material_id = body;
  if (cart) {
    person.material_id = em::kMatWood;
    person.width_m = 0.6;
    person.height_m = 1.5;
  }
  world.add_blocker(std::move(person));
  return world;
}

/// 64 endpoints on an 8x8 grid at the daemon's endpoint height, then the
/// 3x3 region grid a security/coverage task probes.
std::vector<geom::Vec3> motion_probe_points() {
  std::vector<geom::Vec3> points;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      points.push_back({0.6 + 0.4 * i, 0.6 + 0.4 * j, 1.1});
    }
  }
  const auto region =
      geom::SampleGrid(0.5, 3.5, 0.5, 3.5, 1.0, 3, 3).points();
  points.insert(points.end(), region.begin(), region.end());
  return points;
}

TEST_F(PrecomputeTest, MotionDeltaMatchesFreshBuild) {
  const surface::Catalog catalog = surface::Catalog::standard();
  const surface::CatalogEntry& design = *catalog.find("NR-Surface");
  const auto points = motion_probe_points();
  auto& store = sim::PrecomputeStore::instance();

  struct Case {
    const char* name;
    geom::Vec3 ap;
    std::vector<geom::Frame> poses;
    bool cart = false;
  };
  // The daemon's single-panel room; a two-panel variant with the AP and
  // panels low enough that the walker crosses the AP -> panel and
  // panel <-> panel segments (statics re-key and refill); and a cart whose
  // crossings do not block, beside a static partition, so a crossing may
  // never pass as a blocked one.
  const std::vector<Case> cases = {
      {"daemon room",
       {0.4, 2.0, 2.2},
       {geom::Frame({3.92, 2.0, 1.8}, {-1, 0, 0})}},
      {"two panels",
       {0.4, 2.0, 1.2},
       {geom::Frame({3.92, 2.0, 1.2}, {-1, 0, 0}),
        geom::Frame({2.0, 3.92, 1.2}, {0, -1, 0})}},
      {"cart",
       {0.4, 2.0, 1.3},
       {geom::Frame({3.92, 2.0, 1.2}, {-1, 0, 0})},
       true}};

  for (const Case& c : cases) {
    sim::DynamicEnvironment world = daemon_room(c.cart);
    std::vector<std::unique_ptr<surface::SurfacePanel>> owned;
    std::vector<const surface::SurfacePanel*> panels;
    for (const geom::Frame& pose : c.poses) {
      owned.push_back(std::make_unique<surface::SurfacePanel>(
          surface::instantiate(design, pose, 8, 8)));
      panels.push_back(owned.back().get());
    }
    const em::SectorAntenna antenna(
        (c.poses.front().origin() - c.ap).normalized(), 35.0);
    const sim::TxSpec tx{c.ap, &antenna};
    const double freq = em::band_center(em::Band::k28GHz);
    const auto make = [&](std::vector<geom::Vec3> rx) {
      return std::make_unique<sim::SceneChannel>(
          &world.environment(), freq, tx, panels, std::move(rx));
    };

    auto synced = make(points);
    std::size_t motions = 0, rows_reused = 0, rows_refilled = 0;
    std::size_t statics_rekeyed = 0, statics_refilled = 0;
    hal::Micros now = 0;
    while (motions < 100) {
      now += 20 * hal::kMicrosPerMilli;  // the daemon's epoch
      if (!world.advance_to(now)) continue;
      ++motions;
      std::vector<const em::CxPlanes*> before(points.size());
      for (std::size_t j = 0; j < points.size(); ++j) {
        before[j] = &synced->rx_planes(0, j);
      }
      const em::CxPlanes* statics_before = &synced->tx_planes(0);
      // A cold store: every row goes through the geometric touch test.
      store.clear();
      synced->sync();
      EXPECT_FALSE(synced->sync());  // nothing moved since
      for (std::size_t j = 0; j < points.size(); ++j) {
        ++(&synced->rx_planes(0, j) == before[j] ? rows_reused
                                                 : rows_refilled);
      }
      ++(&synced->tx_planes(0) == statics_before ? statics_rekeyed
                                                 : statics_refilled);

      store.clear();
      const auto fresh = make(points);
      expect_artifacts_bitwise_equal(
          *synced, *fresh,
          std::string(c.name) + ", motion " + std::to_string(motions));
      if (HasFailure()) return;
    }
    EXPECT_GT(rows_reused, 0u) << c.name;
    EXPECT_GT(rows_refilled, 0u) << c.name;
    if (c.poses.size() > 1) {
      EXPECT_GT(statics_rekeyed, 0u) << c.name;
      EXPECT_GT(statics_refilled, 0u) << c.name;
    }

    // A rebase issued after a move, with no explicit sync, syncs first.
    while (!world.advance_to(now += 20 * hal::kMicrosPerMilli)) {
    }
    std::vector<geom::Vec3> rebased(points.begin() + 8, points.end());
    rebased.push_back({1.37, 2.61, 1.1});
    synced->rebase_rx(rebased);
    store.clear();
    expect_artifacts_bitwise_equal(*synced, *make(rebased),
                                   std::string(c.name) + ", rebase");
  }
}

TEST_F(PrecomputeTest, DeltaValidatesRemovalIndicesAndNonEmptyResult) {
  const Scene scene;
  auto chan = scene.make_channel({{1.0, 2.0, 1.0}, {2.0, 1.0, 1.0}});
  EXPECT_THROW(chan->rebase_rx({}), std::invalid_argument);
  // A rejected rebase leaves the RX set untouched; an applied one drops
  // row 0.
  EXPECT_EQ(chan->rx_count(), 2u);
  EXPECT_EQ(chan->rx_point(0).x, 1.0);
  chan->rebase_rx({{2.0, 1.0, 1.0}});
  EXPECT_EQ(chan->rx_count(), 1u);
  EXPECT_EQ(chan->rx_point(0).x, 2.0);
}

}  // namespace
}  // namespace surfos
