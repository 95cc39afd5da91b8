// Batched image-method tracer for the direct (non-surface) channel
// component: the same deterministic path set as RayTracer, evaluated in
// SIMD blocks of util::simd::kWidth paths.
//
// Construction lays the scene out once — the triangle pairs the
// transmission kernel consumes, the reflector rectangles with their slab
// constants, the bounce sequences flattened per reflection order, and the
// TX image after every bounce — for one TX position. A trace then packs its
// work densely however few receivers it brings:
//
//  1. clip: the (receiver, bounce sequence) items of each reflection order
//     run the backward plane clips in 8-lane blocks, each lane with its own
//     image chain and reflectors;
//  2. compact: the items the clip keeps are packed, in item order, into
//     full blocks;
//  3. legs: only those run the per-leg transmission products, the Fresnel
//     bounces, the free-space factor, the gain cut-off and the antenna
//     weights (the direct path runs one receiver per lane);
//  4. accumulate: each receiver adds its paths serially, direct first and
//     then its bounce sequences in enumeration order.
//
// Every lane's arithmetic depends on that lane's inputs alone, so a
// receiver's sum has the same bits whichever receivers share its call, on
// any pool size and any SIMD backend (tests/test_trace_batch.cpp pins the
// bits in tests/golden/trace_weighted.txt).
//
// Numerical note: path gains agree with RayTracer to ULP-level, not
// bitwise (no acos/cos round trip on incidence angles, kernel sincos
// instead of libm, block-wise product order). They ARE bit-identical
// across SIMD backends — see DESIGN.md "Vectorized dense kernel".
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "em/antenna.hpp"
#include "em/cx.hpp"
#include "geom/vec3.hpp"
#include "sim/environment.hpp"
#include "sim/raytracer.hpp"
#include "util/simd.hpp"

namespace surfos::sim {

class BatchTracer {
 public:
  /// A reflected path skips wall hits this close to its own bounce points
  /// (the reflecting walls are not penetrations).
  static constexpr double kExcludeRadius = 1e-3;

  /// Lays out `environment` as it stands for paths leaving `tx`. The tracer
  /// is a snapshot: after an obstacle box moves, build a new one. Same
  /// validation as RayTracer (throws on null/unfinalized environment or
  /// non-positive frequency).
  BatchTracer(const Environment* environment, double frequency_hz,
              const geom::Vec3& tx, TracerOptions options = {});

  /// h_out[j] = sum over propagation paths tx -> rx_points[j] of
  /// path.gain * tx_gain(departure) * rx_gain(-arrival), i.e. the
  /// antenna-weighted coherent sum SceneChannel::precompute needs.
  /// Parallel over path blocks; deterministic under any thread count and
  /// bit-identical across SIMD backends.
  void trace_weighted(std::span<const geom::Vec3> rx_points,
                      const em::AntennaPattern& tx_pattern,
                      const em::AntennaPattern& rx_pattern,
                      std::span<em::Cx> h_out) const;

  /// A test over one propagation path, given as its points: tx, the
  /// bounce points in order (the transmission kernel's exclusion points for
  /// every leg of the path), rx. Called concurrently.
  using PathTest = std::function<bool(std::span<const geom::Vec3> path)>;

  /// out[j] = 1 when `test` holds for some path tx -> rx_points[j], else 0.
  /// The paths are the direct one and, for every bounce sequence the
  /// backward plane clip finds geometrically valid for that receiver, the
  /// one through its clipped bounce points — the same clip pass, images and
  /// bits trace_weighted uses. Transmission and gain cut-offs are not
  /// applied, so the set depends on geometry only.
  void any_path(std::span<const geom::Vec3> rx_points, const PathTest& test,
                std::span<char> out) const;

  double frequency_hz() const noexcept { return frequency_hz_; }
  const geom::Vec3& tx() const noexcept { return tx_; }

 private:
  /// A reflector's rectangle and its slab constants.
  struct Plane {
    geom::Vec3 origin, normal, u, v;
    double half_u = 0.0, half_v = 0.0;
    util::simd::SlabConsts slab;
  };

  /// The bounce sequences of one reflection order, in RayTracer's
  /// enumeration order (code ascending, immediate repeats skipped).
  /// Sequence k's bounce i is bounce e = k * order + i.
  struct Order {
    std::size_t order = 0;
    std::size_t count = 0;
    std::vector<int> reflector;     ///< Per bounce.
    std::vector<geom::Vec3> image;  ///< Per bounce, the TX image after it.
  };

  /// Step 1's output: per order, its (sequence k, receiver r) items in
  /// sequence-major order, item i = k * receivers + r in lane i % kWidth of
  /// the order's block i / kWidth. Dead lanes are masked out.
  struct Clipped {
    std::vector<std::size_t> first_block;  ///< Per order, and one past.
    std::vector<std::size_t> first_point;  ///< Per order.
    /// Bounce points, per order [block][bounce][lane].
    util::simd::AlignedVec x, y, z;
    util::simd::AlignedVec mask;  ///< Per lane: all-ones = kept, 0 = not.
    /// Offset of bounce e of item i of order oi (of reflection order o).
    std::size_t point(std::size_t oi, std::size_t o, std::size_t i,
                      std::size_t e) const {
      return first_point[oi] + (i / util::simd::kWidth * o + e) *
                                   util::simd::kWidth +
             i % util::simd::kWidth;
    }
  };

  /// Every order's clip survivors, compacted in item order (sequence, then
  /// receiver) into full blocks. Survivor t of an order is lane t % kWidth
  /// of its block t / kWidth; the last block's dead lanes repeat its first
  /// survivor.
  struct Survivors {
    struct Range {
      std::size_t count = 0;        ///< Survivors.
      std::size_t first_block = 0;  ///< Its first block.
      std::size_t blocks = 0;       ///< Its blocks, from first_block on.
      std::size_t first_point = 0;  ///< Offset of its bounce points.
    };
    std::vector<Range> orders;
    std::vector<std::uint32_t> rx, seq;  ///< Per lane of every block.
    /// Bounce points, per order [block][bounce][lane] (the transmission
    /// kernel's point-major exclusion layout).
    util::simd::AlignedVec x, y, z;
  };

  /// Step 1 for every order.
  Clipped clip(std::span<const geom::Vec3> rx_points) const;
  /// Step 2: stable compaction of every order's survivors into full blocks.
  Survivors compact(const Clipped& c, std::size_t n_rx) const;

  double frequency_hz_;
  TracerOptions options_;
  geom::Vec3 tx_;

  util::simd::TriPairs tris_;  ///< Scene occluders, paired.
  std::vector<Plane> planes_;  ///< Per reflector.
  std::vector<Order> orders_;  ///< Reflection orders 1, 2, ...
};

}  // namespace surfos::sim
