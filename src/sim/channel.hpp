// Surface-aware channel model.
//
// For fixed geometry, the end-to-end narrowband channel between a TX and an
// RX is *linear in each surface's per-element coefficients*:
//
//   h(rx) = h_dir(rx)
//         + sum_p   g_p(rx)^T diag(c_p) f_p                     (one bounce)
//         + sum_{q!=p} g_q(rx)^T diag(c_q) G_qp diag(c_p) f_p   (two bounces)
//
// where f_p is the TX->panel-p propagation vector, g_p(rx) the panel-p->RX
// vector, and G_qp the panel-p->panel-q cascade matrix. SceneChannel
// precomputes f, g, G and h_dir once per scenario so that the orchestrator's
// optimizer can re-evaluate h (and its gradient w.r.t. element phases) in
// microseconds per candidate configuration — the property that makes joint
// multi-task optimization (paper Fig 5) tractable.
//
// Storage is structure-of-arrays: f, g and the cascade matrices live as
// aligned re/im double planes (em::CxPlanes / em::CxPlaneMat) so evaluate /
// evaluate_with_partials run on the util::simd kernel layer. The *_planes
// entry points are the native SoA hot path; the CVec-based overloads remain
// for callers and convert at the boundary (bit-exact copies).
//
// The artifacts themselves are immutable and refcounted: the RX-independent
// part (f + cascades) and each per-RX row (g + h_dir) are shared_ptrs,
// content-addressed by a structural scene digest and shared across channels
// through the process-wide sim::PrecomputeStore (precompute_store.hpp).
// rebase_rx / precompute_delta re-point the row set in O(changed RX) —
// survivors keep their rows — which is what makes daemon endpoint churn
// cheap. sync() does the same for a moved obstacle box: it re-keys every
// artifact the box's old and new extents provably leave unchanged and
// refills only the rest. PrecomputeStore::clear() forces the next
// construction to rebuild every artifact through the same fill code
// (byte-identical values).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "em/antenna.hpp"
#include "em/cx.hpp"
#include "em/propagation.hpp"
#include "em/soa.hpp"
#include "geom/vec3.hpp"
#include "sim/environment.hpp"
#include "sim/precompute_store.hpp"
#include "sim/raytracer.hpp"
#include "surface/panel.hpp"
#include "util/digest.hpp"

namespace surfos::sim {

struct ChannelOptions {
  TracerOptions tracer;          ///< Direct-component ray tracing options.
};

/// Transmitter description.
struct TxSpec {
  geom::Vec3 position;
  const em::AntennaPattern* antenna = nullptr;  ///< Non-owning; may be null (isotropic).
};

/// Precomputed channel structure for one TX, one frequency, a fixed set of
/// panels, and a list of RX probe points.
class SceneChannel {
 public:
  /// `panels` are non-owning and must outlive the SceneChannel.
  SceneChannel(const Environment* environment, double frequency_hz,
               TxSpec tx, std::vector<const surface::SurfacePanel*> panels,
               std::vector<geom::Vec3> rx_points,
               const em::AntennaPattern* rx_antenna = nullptr,
               ChannelOptions options = {});

  std::size_t panel_count() const noexcept { return panels_.size(); }
  std::size_t rx_count() const noexcept { return rx_points_.size(); }
  double frequency_hz() const noexcept { return frequency_hz_; }
  const surface::SurfacePanel& panel(std::size_t p) const { return *panels_.at(p); }
  const geom::Vec3& rx_point(std::size_t j) const { return rx_points_.at(j); }
  const TxSpec& tx() const noexcept { return tx_; }

  /// TX -> panel-p element propagation vector (materialized from the SoA
  /// planes; use tx_planes for the zero-copy view).
  em::CVec tx_vector(std::size_t p) const { return statics_->f.at(p).to_cvec(); }
  /// Panel-p elements -> RX j propagation vector.
  em::CVec rx_vector(std::size_t p, std::size_t j) const {
    return rows_.at(j)->g.at(p).to_cvec();
  }
  /// Direct (non-surface) channel to RX j.
  em::Cx direct(std::size_t j) const { return rows_.at(j)->h_dir; }
  /// Panel p -> panel q cascade matrix (rows: q elements, cols: p elements);
  /// empty when geometry forbids the hop.
  em::CMat cascade(std::size_t q, std::size_t p) const;

  /// Zero-copy SoA views of the precomputed vectors/matrices.
  const em::CxPlanes& tx_planes(std::size_t p) const { return statics_->f.at(p); }
  const em::CxPlanes& rx_planes(std::size_t p, std::size_t j) const {
    return rows_.at(j)->g.at(p);
  }
  /// Cascade planes; rows() == 0 means "no cascade" (cf. CMat::empty()).
  const em::CxPlaneMat& cascade_planes(std::size_t q, std::size_t p) const {
    return statics_->cascades.at(q).at(p);
  }

  /// Structural digest of everything the precompute output depends on:
  /// geometry, materials, panel layout, TX placement, antenna patterns,
  /// frequency, options, and the active SIMD backend. The content address
  /// under which this channel's artifacts live in the PrecomputeStore.
  const util::ConfigDigest& scene_digest() const noexcept {
    return scene_digest_;
  }

  /// Catches up with obstacle boxes moved in the environment since the
  /// artifacts were built or last synced (Environment::move_obstacle_box).
  /// When a box moved, recomputes the scene digest, takes each artifact
  /// the store already holds under it, re-keys the old artifact when the
  /// motion provably leaves its propagation segments' transmissions
  /// unchanged (their geometry against the boxes' old and new extents,
  /// see channel.cpp), and refills the rest. The artifacts are then
  /// bit-identical to a fresh build at the new positions, whatever path
  /// the boxes took in between. A box added since (a new scene) rebuilds
  /// everything. Returns whether any artifact's value changed — decided by
  /// content, so by geometry alone, never by store state.
  bool sync();

  /// Replaces the RX point set, reusing rows for points that survive (by
  /// exact bit pattern) from this channel and from the store — tracing and
  /// filling only genuinely new rows, O(changed RX). Surviving rows are
  /// synced first (sync()), departing ones are not. Row order follows
  /// `new_points` exactly, so the result is indistinguishable from fresh
  /// construction with the same list.
  void rebase_rx(std::vector<geom::Vec3> new_points);

  /// RX-set diff convenience over rebase_rx: drops the rows at
  /// `removed_rx` (indices into the current set, order preserved for
  /// survivors) and appends `added_rx` at the end. Throws when a removal
  /// index is out of range or when the result would be empty.
  void precompute_delta(std::span<const geom::Vec3> added_rx,
                        std::span<const std::size_t> removed_rx);

  /// End-to-end channel at RX j given per-panel element coefficient vectors
  /// (one CVec per panel, sized to that panel's element count).
  em::Cx evaluate(std::size_t j, std::span<const em::CVec> coefficients) const;

  /// SoA-native evaluate: coefficients as one CxPlanes per panel (padding
  /// lanes must be zero, which CxPlanes maintains).
  em::Cx evaluate_planes(std::size_t j,
                         std::span<const em::CxPlanes> coefficients) const;

  /// d h / d c_p[i] at RX j for every panel/element, given the current
  /// coefficients. Output is resized to match. Used for analytic gradients:
  /// d h / d phi_p[i] = j * c_p[i] * (d h / d c_p[i]).
  void evaluate_with_partials(std::size_t j,
                              std::span<const em::CVec> coefficients,
                              em::Cx& h_out,
                              std::vector<em::CVec>& dh_dc_out) const;

  /// SoA-native partials; dh_dc_out is resized to one CxPlanes per panel.
  /// The h_out sum is bit-identical to evaluate_planes on the same inputs.
  void evaluate_with_partials_planes(std::size_t j,
                                     std::span<const em::CxPlanes> coefficients,
                                     em::Cx& h_out,
                                     std::vector<em::CxPlanes>& dh_dc_out) const;

  /// Convenience: channel power |h|^2 at every RX for panel configs.
  std::vector<double> power_map(
      std::span<const surface::SurfaceConfig> configs) const;

  /// |h|^2 at a subset of RX indices for panel configs — the orchestrator's
  /// per-task measurement sweep.
  std::vector<double> powers_at(
      std::span<const std::size_t> rx_indices,
      std::span<const surface::SurfaceConfig> configs) const;

  /// powers_at over coefficients already realized by
  /// coefficients_planes_for (same bytes): callers that sweep several RX
  /// subsets under one config build the planes once.
  std::vector<double> powers_at(
      std::span<const std::size_t> rx_indices,
      std::span<const em::CxPlanes> coefficients) const;

  /// Per-panel coefficients from configs (applies granularity/quantization).
  std::vector<em::CVec> coefficients_for(
      std::span<const surface::SurfaceConfig> configs) const;

  /// SoA variant: coefficients generated by the same scalar quantization
  /// path (values bit-identical to coefficients_for), copied into planes.
  void coefficients_planes_for(std::span<const surface::SurfaceConfig> configs,
                               std::vector<em::CxPlanes>& out) const;

 private:
  void precompute();
  /// Digest of the inputs fixed at construction (frequency, TX, antenna
  /// patterns, options, panel layout), hashed once: sync() re-digests the
  /// scene on every motion.
  util::ConfigDigest compute_setup_digest() const;
  util::ConfigDigest compute_scene_digest() const;
  /// Content address of one RX point's row under the current scene digest.
  util::ConfigDigest row_key(const geom::Vec3& rx) const;
  /// Dense build of the RX-independent artifact (f + cascades).
  std::shared_ptr<ScenePrecompute> build_statics() const;
  /// Traces and fills rows for the listed RX indices (batch h_dir trace +
  /// parallel per-row g fills), publishing each row to the store.
  void fill_missing_rows(const std::vector<std::size_t>& missing);
  void check_coefficient_sizes(std::span<const em::CxPlanes> coefficients) const;

  const Environment* environment_;
  double frequency_hz_;
  TxSpec tx_;
  std::vector<const surface::SurfacePanel*> panels_;
  std::vector<geom::Vec3> rx_points_;
  const em::AntennaPattern* rx_antenna_;
  ChannelOptions options_;

  util::ConfigDigest setup_digest_{};
  util::ConfigDigest scene_digest_{};
  /// The environment's obstacle boxes as the artifacts reflect them.
  std::vector<ObstacleBox> boxes_;
  /// RX-independent artifact (f + cascades), shared across channels through
  /// the PrecomputeStore.
  std::shared_ptr<const ScenePrecompute> statics_;
  /// One shared row per RX point: [rx] -> (g[panel], h_dir).
  std::vector<std::shared_ptr<const RxRowPrecompute>> rows_;
};

}  // namespace surfos::sim
