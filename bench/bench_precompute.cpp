// Content-addressed precompute store: shared versus dense artifact cost on
// two workloads.
//
// Section 1 — fleet cold start: N identical sites each construct their
// SceneChannel. Dense (the store cleared before each build) pays N full
// precomputes; shared pays one miss and N-1 hits. Claim: >= 5x.
//
// Section 2 — single-endpoint churn: a live channel's RX set changes by one
// endpoint per step. Dense re-precomputes everything; rebase_rx keeps the
// surviving rows and traces and fills only the new one. Claim: >= 10x.
//
// Both sections assert bitwise-identical artifacts (f/g/cascade planes and
// h_dir) between two cold fills, and between a delta-rebased channel and a
// fresh fill, before timing anything — a speedup over different numbers
// would be meaningless.
//
// Single-threaded (reset_global_pool(1)) so the ratios measure algorithmic
// work saved, not scheduling; the store path wins even harder with threads
// because hits skip the pool entirely.
//
// Emits BENCH_precompute.json:
//   ./bench_precompute [output.json]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "em/soa.hpp"
#include "sim/channel.hpp"
#include "sim/floorplan.hpp"
#include "sim/precompute_store.hpp"
#include "surface/panel.hpp"
#include "util/thread_pool.hpp"

using namespace surfos;

namespace {

constexpr std::size_t kSites = 32;       ///< Identical sites in section 1.
constexpr std::size_t kChurnSteps = 24;  ///< Endpoint moves in section 2.

/// One coverage-room site: a 16x16 element-wise surface and a 10x10 RX grid
/// (big enough that precompute cost dominates construction).
struct Site {
  sim::CoverageRoomScenario scenario;
  std::unique_ptr<surface::SurfacePanel> panel;
  std::vector<const surface::SurfacePanel*> panels;

  Site() : scenario(sim::make_coverage_room(/*grid_n=*/10)) {
    surface::ElementDesign design;
    design.spacing_m = em::wavelength(em::band_center(scenario.band)) / 2.0;
    design.insertion_loss_db = 1.0;
    panel = std::make_unique<surface::SurfacePanel>(
        "bench-surface", scenario.surface_pose, 16, 16, design,
        surface::OperationMode::kReflective,
        surface::Reconfigurability::kPassive,
        surface::ControlGranularity::kElement);
    panels = {panel.get()};
  }

  std::unique_ptr<sim::SceneChannel> make_channel(
      std::vector<geom::Vec3> rx_points) const {
    return std::make_unique<sim::SceneChannel>(
        scenario.environment.get(), em::band_center(scenario.band),
        scenario.ap(), panels, std::move(rx_points));
  }
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

bool planes_equal(const em::CxPlanes& a, const em::CxPlanes& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.at(i) != b.at(i)) return false;
  }
  return true;
}

/// Bitwise artifact comparison across two channels over the same scene.
bool channels_identical(const sim::SceneChannel& a, const sim::SceneChannel& b) {
  if (a.panel_count() != b.panel_count() || a.rx_count() != b.rx_count()) {
    return false;
  }
  for (std::size_t p = 0; p < a.panel_count(); ++p) {
    if (!planes_equal(a.tx_planes(p), b.tx_planes(p))) return false;
    for (std::size_t j = 0; j < a.rx_count(); ++j) {
      if (!planes_equal(a.rx_planes(p, j), b.rx_planes(p, j))) return false;
    }
  }
  for (std::size_t j = 0; j < a.rx_count(); ++j) {
    if (a.direct(j) != b.direct(j)) return false;
  }
  for (std::size_t q = 0; q < a.panel_count(); ++q) {
    for (std::size_t p = 0; p < a.panel_count(); ++p) {
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
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_precompute.json";
  util::reset_global_pool(1);

  const Site site;
  const std::vector<geom::Vec3> grid = site.scenario.room_grid.points();
  sim::PrecomputeStore& store = sim::PrecomputeStore::instance();

  // --- Equivalence gate: two cold fills must match bitwise. ---
  store.clear();
  const auto first_fill = site.make_channel(grid);
  store.clear();
  const auto second_fill = site.make_channel(grid);
  if (!channels_identical(*first_fill, *second_fill)) {
    std::fprintf(stderr, "FATAL: a cold fill differs from another\n");
    return 1;
  }

  // Delta equivalence: remove one endpoint, add two, re-add the removed one
  // — the rebased channel must match a fresh dense build over the same list.
  {
    std::vector<geom::Vec3> churned = grid;
    const geom::Vec3 removed = churned[3];
    const std::vector<geom::Vec3> added = {{1.21, 2.17, 1.04},
                                           {2.45, 0.93, 1.31}};
    auto delta_chan = site.make_channel(grid);
    churned.erase(churned.begin() + 3);
    churned.insert(churned.end(), added.begin(), added.end());
    delta_chan->rebase_rx(churned);
    churned.push_back(removed);
    delta_chan->rebase_rx(churned);
    store.clear();
    const auto fresh = site.make_channel(churned);
    if (!channels_identical(*fresh, *delta_chan)) {
      std::fprintf(stderr, "FATAL: delta precompute differs from fresh\n");
      return 1;
    }
  }
  std::printf("equivalence: cold fill == cold fill, delta == fresh "
              "(bitwise)\n");

  // --- Section 1: fleet cold start, N identical sites. ---
  std::vector<Site> sites(kSites);

  // Dense baseline: the store is cleared (untimed) before every build, so
  // each site pays a full fill.
  double dense_cold_ms = 0.0;
  {
    std::vector<std::unique_ptr<sim::SceneChannel>> channels;
    for (const Site& s : sites) {
      store.clear();
      const auto build_start = std::chrono::steady_clock::now();
      channels.push_back(s.make_channel(grid));
      dense_cold_ms += ms_since(build_start);
    }
  }

  store.clear();
  auto start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<sim::SceneChannel>> shared_channels;
  for (const Site& s : sites) shared_channels.push_back(s.make_channel(grid));
  const double shared_cold_ms = ms_since(start);
  const sim::PrecomputeStore::Stats cold_stats = store.stats();

  const double cold_speedup =
      shared_cold_ms > 0.0 ? dense_cold_ms / shared_cold_ms : 0.0;
  std::printf(
      "cold start (%zu sites): dense %.1f ms, shared %.1f ms -> %.1fx "
      "(%llu hits, %llu misses, %.1f MiB)\n",
      kSites, dense_cold_ms, shared_cold_ms, cold_speedup,
      static_cast<unsigned long long>(cold_stats.hits),
      static_cast<unsigned long long>(cold_stats.misses),
      static_cast<double>(cold_stats.bytes) / (1024.0 * 1024.0));

  // --- Section 2: single-endpoint churn on a live channel. ---
  // Dense baseline: each churn step rebuilds the whole channel from a
  // cleared store (what a store-less daemon does when an endpoint joins).
  std::vector<geom::Vec3> points = grid;
  double dense_churn_ms = 0.0;
  for (std::size_t i = 0; i < kChurnSteps; ++i) {
    points.back() = {1.0 + 0.03 * static_cast<double>(i), 2.1, 1.2};
    store.clear();
    const auto build_start = std::chrono::steady_clock::now();
    const auto rebuilt = site.make_channel(points);
    dense_churn_ms += ms_since(build_start);
  }

  points = grid;
  auto live = site.make_channel(points);
  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kChurnSteps; ++i) {
    points.back() = {1.0 + 0.03 * static_cast<double>(i), 2.1, 1.2};
    live->rebase_rx(points);
  }
  const double delta_churn_ms = ms_since(start);

  const double churn_speedup =
      delta_churn_ms > 0.0 ? dense_churn_ms / delta_churn_ms : 0.0;
  std::printf(
      "endpoint churn (%zu steps): dense rebuild %.1f ms, delta %.1f ms -> "
      "%.1fx\n",
      kChurnSteps, dense_churn_ms, delta_churn_ms, churn_speedup);

  util::reset_global_pool(0);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"precompute\",\n";
  bench::write_meta(out);
  out << "  \"note\": \"single-threaded; shared store vs dense builds from "
         "a cleared store, bitwise-identical values verified before "
         "timing\",\n";
  out << "  \"equivalence\": {\"shared_equals_dense\": true, "
         "\"delta_equals_fresh\": true},\n";
  out << "  \"cold_start\": {\"sites\": " << kSites
      << ", \"dense_ms\": " << dense_cold_ms
      << ", \"shared_ms\": " << shared_cold_ms
      << ", \"speedup\": " << cold_speedup << ", \"hits\": " << cold_stats.hits
      << ", \"misses\": " << cold_stats.misses
      << ", \"resident_bytes\": " << cold_stats.bytes << "},\n";
  out << "  \"endpoint_churn\": {\"steps\": " << kChurnSteps
      << ", \"dense_rebuild_ms\": " << dense_churn_ms
      << ", \"delta_ms\": " << delta_churn_ms
      << ", \"speedup\": " << churn_speedup << "}\n";
  out << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return (cold_speedup >= 5.0 && churn_speedup >= 10.0) ? 0 : 2;
}
