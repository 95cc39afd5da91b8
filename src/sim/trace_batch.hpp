// Batched image-method tracer for the direct (non-surface) channel
// component: the same deterministic path set as RayTracer, evaluated for
// util::simd::kWidth receivers per SIMD block.
//
// The expensive per-receiver-independent work — bounce-sequence
// enumeration, the TX-side forward image cascade, per-(material, frequency)
// slab constants, and the triangle-pair scene layout the transmission
// kernel consumes — is hoisted to construction / the start of a trace, so
// the per-receiver cost is just the backward plane clips, per-leg
// transmission products, and Fresnel bounces, all in SIMD.
//
// Numerical note: path gains agree with RayTracer to ULP-level, not
// bitwise (no acos/cos round trip on incidence angles, kernel sincos
// instead of libm, block-wise product order). They ARE bit-identical
// across SIMD backends — see DESIGN.md "Vectorized dense kernel".
#pragma once

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

  /// Same validation as RayTracer (throws on null/unfinalized environment
  /// or non-positive frequency).
  BatchTracer(const Environment* environment, double frequency_hz,
              TracerOptions options = {});

  /// h_out[j] = sum over propagation paths tx -> rx_points[j] of
  /// path.gain * tx_gain(departure) * rx_gain(-arrival), i.e. the
  /// antenna-weighted coherent sum SceneChannel::precompute needs.
  /// Parallel over receiver blocks; deterministic under any thread count
  /// and bit-identical across SIMD backends.
  void trace_weighted(const geom::Vec3& tx,
                      std::span<const geom::Vec3> rx_points,
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
  /// one through its clipped bounce points — the same kernel, images and
  /// bits trace_weighted uses. Transmission and gain cut-offs are not
  /// applied, so the set depends on geometry only.
  void any_path(const geom::Vec3& tx, std::span<const geom::Vec3> rx_points,
                const PathTest& test, std::span<char> out) const;

  double frequency_hz() const noexcept { return frequency_hz_; }

 private:
  /// Forward image cascade of `tx` per bounce sequence.
  std::vector<std::vector<geom::Vec3>> images_of(const geom::Vec3& tx) const;

  void trace_block(const geom::Vec3& tx,
                   std::span<const geom::Vec3> rx_points, std::size_t base,
                   std::span<const std::vector<geom::Vec3>> images,
                   const em::AntennaPattern& tx_pattern,
                   const em::AntennaPattern& rx_pattern,
                   std::span<em::Cx> h_out) const;

  const Environment* environment_;
  double frequency_hz_;
  TracerOptions options_;

  util::simd::TriPairs tris_;                   ///< Scene occluders, paired.
  std::vector<util::simd::PlaneRect> planes_;   ///< Reflector rectangles.
  std::vector<util::simd::SlabConsts> reflector_slab_;  ///< Per reflector.
  /// Bounce sequences in RayTracer's enumeration order (order ascending,
  /// code ascending, immediate repeats skipped).
  std::vector<std::vector<int>> sequences_;
};

}  // namespace surfos::sim
