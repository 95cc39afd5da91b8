// BatchTracer pins: the bits trace_weighted gives every receiver and the
// path set any_path visits, recorded in tests/golden/trace_weighted.txt for
// the daemon's room (the walker moved onto the AP's sight line) and the
// coverage room's full grid. A change that is not meant to move a channel
// must reproduce the file bit for bit at every pool size and on every SIMD
// backend. On a mismatch the test writes what it got to
// trace_weighted.actual.txt in its working directory; copy that over the
// golden only when a change is meant to move the direct channel, and say
// why in CHANGES.md.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "em/antenna.hpp"
#include "em/band.hpp"
#include "em/material.hpp"
#include "geom/aabb.hpp"
#include "sim/dynamics.hpp"
#include "sim/environment.hpp"
#include "sim/floorplan.hpp"
#include "sim/trace_batch.hpp"
#include "util/thread_pool.hpp"

namespace surfos {
namespace {

/// Restores the default pool size when a test body returns.
struct PoolGuard {
  ~PoolGuard() { util::reset_global_pool(0); }
};

std::string hex_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
  return buf;
}

std::string hex_point(const geom::Vec3& p) {
  return hex_bits(p.x) + ":" + hex_bits(p.y) + ":" + hex_bits(p.z);
}

/// surfosd's per-site room: four concrete walls, a floor, and a person on
/// the diagonal track.
sim::DynamicEnvironment daemon_room() {
  em::MaterialDb materials = em::MaterialDb::standard();
  const int body = sim::add_body_material(materials);
  sim::DynamicEnvironment world(materials, [](sim::Environment& env) {
    constexpr double kH = 3.0;
    env.add_vertical_wall(0.0, 4.0, 4.0, 4.0, 0.0, kH, em::kMatConcrete);
    env.add_vertical_wall(0.0, 0.0, 0.0, 4.0, 0.0, kH, em::kMatConcrete);
    env.add_vertical_wall(4.0, 0.0, 4.0, 4.0, 0.0, kH, em::kMatConcrete);
    env.add_vertical_wall(0.0, 0.0, 4.0, 0.0, 0.0, kH, em::kMatConcrete);
    env.add_horizontal_slab(0.0, 4.0, 0.0, 4.0, 0.0, em::kMatFloor);
  });
  sim::MovingBlocker person;
  person.id = "walker";
  person.waypoints = {{0.8, 0.8, 0.0}, {3.2, 3.2, 0.0}};
  person.speed_mps = 0.8;
  person.material_id = body;
  world.add_blocker(std::move(person));
  return world;
}

const geom::Vec3 kDaemonAp{0.4, 2.0, 2.2};
const geom::Vec3 kDaemonSurface{3.92, 2.0, 1.8};
/// 2.12 s along the track: the walker stands near the room's centre.
constexpr hal::Micros kWalkerAt = 2'120'000;

/// Receiver 0 stands behind the moved walker as seen from the AP; the
/// others spread over the room, its corners and several heights.
const std::vector<geom::Vec3> kDaemonRx = {
    {3.0, 2.0, 1.1},  {0.6, 0.6, 1.1},  {3.4, 3.4, 1.1},  {1.37, 2.61, 1.1},
    {2.9, 0.7, 1.1},  {0.9, 3.3, 1.1},  {2.2, 1.4, 0.5},  {3.8, 3.8, 2.9},
    {1.0, 1.0, 1.0},  {2.0, 3.5, 1.6},  {3.6, 1.0, 2.0},  {0.3, 2.0, 0.3},
    {2.5, 2.5, 1.1},  {1.6, 0.4, 1.8},  {3.1, 2.7, 0.9},  {0.7, 1.7, 2.4},
    {2.05, 2.05, 1.1}};

const std::vector<std::size_t> kDaemonSetSizes = {1, 2, 3, 9, 17};

/// Every line of the golden: per case and receiver, the real and imaginary
/// bits of trace_weighted's sum; then, per daemon-room receiver, each path
/// any_path visits (its points' bits) and whether a leg meets the walker.
std::vector<std::string> golden_lines() {
  std::vector<std::string> lines;
  const double freq = em::band_center(em::Band::k28GHz);
  const em::IsotropicAntenna isotropic;

  sim::DynamicEnvironment world = daemon_room();
  EXPECT_TRUE(world.advance_to(kWalkerAt));
  const sim::Environment& env = world.environment();
  const geom::Aabb walker = env.obstacle_boxes().back().extent;
  // Receiver 0 really is behind the walker.
  EXPECT_TRUE(walker.meets_segment(kDaemonAp, kDaemonRx[0]));
  EXPECT_LT(std::norm(env.segment_transmission(kDaemonAp, kDaemonRx[0], freq)),
            1e-20);

  const em::SectorAntenna ap_antenna(
      (kDaemonSurface - kDaemonAp).normalized(), 35.0);
  const sim::BatchTracer tracer(&env, freq, kDaemonAp);
  for (const std::size_t n : kDaemonSetSizes) {
    const std::vector<geom::Vec3> rx(kDaemonRx.begin(), kDaemonRx.begin() + n);
    std::vector<em::Cx> h(n);
    tracer.trace_weighted(rx, ap_antenna, isotropic, h);
    for (std::size_t j = 0; j < n; ++j) {
      lines.push_back("daemon n=" + std::to_string(n) + " rx=" +
                      std::to_string(j) + " " + hex_bits(h[j].real()) + " " +
                      hex_bits(h[j].imag()));
    }
  }

  // any_path: a test that never holds visits every path; the receiver is
  // the path's last point.
  std::mutex mu;
  std::map<std::size_t, std::vector<std::string>> visited;
  const auto rx_of = [](const geom::Vec3& p) {
    for (std::size_t j = 0; j < kDaemonRx.size(); ++j) {
      if (std::memcmp(&p, &kDaemonRx[j], sizeof(p)) == 0) return j;
    }
    ADD_FAILURE() << "path ends at no receiver";
    return kDaemonRx.size();
  };
  std::vector<char> none(kDaemonRx.size(), 1);
  tracer.any_path(
      kDaemonRx,
      [&](std::span<const geom::Vec3> path) {
        std::string s;
        for (const geom::Vec3& p : path) s += " " + hex_point(p);
        const std::lock_guard<std::mutex> lock(mu);
        visited[rx_of(path.back())].push_back(s);
        return false;
      },
      none);
  std::vector<char> hits(kDaemonRx.size(), 0);
  tracer.any_path(
      kDaemonRx,
      [&walker](std::span<const geom::Vec3> path) {
        for (std::size_t leg = 0; leg + 1 < path.size(); ++leg) {
          if (walker.meets_segment(path[leg], path[leg + 1])) return true;
        }
        return false;
      },
      hits);
  for (std::size_t j = 0; j < kDaemonRx.size(); ++j) {
    EXPECT_EQ(none[j], 0) << "rx " << j;
    lines.push_back("anypath rx=" + std::to_string(j) + " meets_walker=" +
                    std::to_string(static_cast<int>(hits[j])) + " paths=" +
                    std::to_string(visited[j].size()));
    for (std::size_t k = 0; k < visited[j].size(); ++k) {
      lines.push_back("anypath rx=" + std::to_string(j) + " path=" +
                      std::to_string(k) + visited[j][k]);
    }
  }

  const sim::CoverageRoomScenario room = sim::make_coverage_room();
  const std::vector<geom::Vec3> grid = room.room_grid.points();
  std::vector<em::Cx> h(grid.size());
  sim::BatchTracer(room.environment.get(), em::band_center(room.band),
                   room.ap_position)
      .trace_weighted(grid, *room.ap_antenna, isotropic, h);
  for (std::size_t j = 0; j < grid.size(); ++j) {
    lines.push_back("coverage n=" + std::to_string(grid.size()) + " rx=" +
                    std::to_string(j) + " " + hex_bits(h[j].real()) + " " +
                    hex_bits(h[j].imag()));
  }
  return lines;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

/// Compares the golden lines whose "anypath" prefix matches `any_path`
/// with a fresh run at pool sizes 1 and 4.
void expect_golden_holds(bool any_path) {
  PoolGuard guard;
  const auto pick = [any_path](const std::vector<std::string>& lines) {
    std::vector<std::string> out;
    for (const std::string& line : lines) {
      if ((line.rfind("anypath ", 0) == 0) == any_path) out.push_back(line);
    }
    return out;
  };
  const std::vector<std::string> golden =
      pick(read_lines(TRACE_GOLDEN_PATH));
  EXPECT_FALSE(golden.empty()) << "no golden at " << TRACE_GOLDEN_PATH;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::reset_global_pool(threads);
    const std::vector<std::string> all = golden_lines();
    const std::vector<std::string> got = pick(all);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < std::max(got.size(), golden.size()); ++i) {
      const std::string g = i < got.size() ? got[i] : "<missing>";
      const std::string w = i < golden.size() ? golden[i] : "<missing>";
      if (g == w) continue;
      if (++mismatches <= 5) {
        ADD_FAILURE() << "pool " << threads << ", line " << i << ":\n  got    "
                      << g << "\n  golden " << w;
      }
    }
    if (mismatches != 0) {
      std::ofstream out("trace_weighted.actual.txt");
      for (const std::string& line : all) out << line << "\n";
      FAIL() << mismatches << " lines differ at pool size " << threads
             << "; wrote trace_weighted.actual.txt";
    }
  }
}

TEST(TraceGolden, TraceWeightedBitsHoldAtPoolSizes1And4) {
  expect_golden_holds(/*any_path=*/false);
}

TEST(TraceGolden, AnyPathAnswersHoldOnMovedWalkerAtPoolSizes1And4) {
  expect_golden_holds(/*any_path=*/true);
}

bool same_bits(const em::Cx& a, const em::Cx& b) {
  return std::memcmp(&a, &b, sizeof(em::Cx)) == 0;
}

TEST(TraceBatch, ReceiverBitsDoNotDependOnTheOtherReceivers) {
  // Tracing a set gives every receiver the bits it gets alone and in a
  // permuted set: the daemon room's receivers (one behind the walker) and
  // the coverage room's grid, at pool sizes 1 and 4.
  PoolGuard guard;
  const double freq = em::band_center(em::Band::k28GHz);
  const em::IsotropicAntenna isotropic;
  sim::DynamicEnvironment world = daemon_room();
  ASSERT_TRUE(world.advance_to(kWalkerAt));
  const em::SectorAntenna daemon_antenna(
      (kDaemonSurface - kDaemonAp).normalized(), 35.0);
  const sim::CoverageRoomScenario room = sim::make_coverage_room(6);

  struct Case {
    const char* name;
    sim::BatchTracer tracer;
    const em::AntennaPattern* tx_pattern;
    std::vector<geom::Vec3> rx;
  };
  const std::vector<Case> cases = {
      {"daemon", sim::BatchTracer(&world.environment(), freq, kDaemonAp),
       &daemon_antenna, kDaemonRx},
      {"coverage",
       sim::BatchTracer(room.environment.get(), em::band_center(room.band),
                        room.ap_position),
       room.ap_antenna.get(), room.room_grid.points()}};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::reset_global_pool(threads);
    for (const Case& c : cases) {
      const std::size_t n = c.rx.size();
      std::vector<em::Cx> together(n);
      c.tracer.trace_weighted(c.rx, *c.tx_pattern, isotropic, together);
      // Reversed, then rotated by 5: each receiver meets new neighbours
      // and new lane positions.
      std::vector<std::size_t> order(n);
      for (std::size_t j = 0; j < n; ++j) order[j] = (n - 1 - j + 5) % n;
      std::vector<geom::Vec3> permuted(n);
      for (std::size_t j = 0; j < n; ++j) permuted[j] = c.rx[order[j]];
      std::vector<em::Cx> shuffled(n);
      c.tracer.trace_weighted(permuted, *c.tx_pattern, isotropic, shuffled);
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_TRUE(same_bits(shuffled[j], together[order[j]]))
            << c.name << ", pool " << threads << ", rx " << order[j];
        std::vector<em::Cx> alone(1);
        c.tracer.trace_weighted(std::span(&c.rx[j], 1), *c.tx_pattern,
                                isotropic, alone);
        EXPECT_TRUE(same_bits(alone[0], together[j]))
            << c.name << ", pool " << threads << ", rx " << j;
      }
    }
  }
}

}  // namespace
}  // namespace surfos
