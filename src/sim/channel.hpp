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
// evaluate_with_partials run on the util::simd kernel layer. Planes are the
// one coefficient currency at this boundary: coefficients_for realizes
// configs straight into planes, and every vector and matrix in or out of the
// channel is a zero-copy planes view.
//
// An optimizer evaluates the same RX list thousands of times under one
// geometry, and the single-bounce products g_p(rx) ∘ f_p do not depend on
// the coefficients. fold_links computes them once for an RX list
// (LinkFold: one row-major planes matrix per panel, plus each RX's h_dir
// and serves() mask), so a link objective's single-bounce sum is one
// cmatvec per panel and its single-bounce partials are the folded rows
// themselves; add_cascades puts the double-bounce terms on top in
// evaluate's order. Sums are bit-identical to evaluate's.
//
// The artifacts themselves are immutable and refcounted: the RX-independent
// part (f + cascades) and each per-RX row (g + h_dir) are shared_ptrs,
// content-addressed by a structural scene digest and shared across channels
// through the process-wide sim::PrecomputeStore (precompute_store.hpp).
// rebase_rx re-points the row set in O(changed RX) —
// survivors keep their rows — which is what makes daemon endpoint churn
// cheap. sync() does the same for a moved obstacle box: it re-keys every
// artifact the box's old and new extents provably leave unchanged and
// refills only the rest. PrecomputeStore::clear() forces the next
// construction to rebuild every artifact through the same fill code
// (byte-identical values).
//
// A channel keeps one BatchTracer for its current scene (the scene layout,
// the bounce sequences and the TX images; TX is fixed per channel). It is
// built the first time the scene needs a trace — a row fill or sync()'s
// touch test — and dropped when sync() sees a box move, so a motion builds
// one tracer for both. The element positions of every panel are laid out
// as planes once, at construction.
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
#include "sim/trace_batch.hpp"
#include "surface/panel.hpp"
#include "util/digest.hpp"
#include "util/simd.hpp"

namespace surfos::sim {

struct ChannelOptions {
  TracerOptions tracer;          ///< Direct-component ray tracing options.
};

/// Transmitter description.
struct TxSpec {
  geom::Vec3 position;
  const em::AntennaPattern* antenna = nullptr;  ///< Non-owning; may be null (isotropic).
};

/// The coefficient-independent single-bounce part of the channel at a fixed
/// RX list (SceneChannel::fold_links). Row k belongs to the list's k-th RX.
struct LinkFold {
  /// Per panel: row k = g_p(rx_k) ∘ f_p (padded columns), the single-bounce
  /// dh/dc_p; all zero where panel p does not serve rx_k.
  std::vector<em::CxPlaneMat> t;
  std::vector<em::Cx> h_dir;  ///< Per row: the direct channel.
  /// serves[k * panel_count + p]: panel p reaches row k's RX in one bounce.
  std::vector<std::uint8_t> serves;
  /// cascades[k]: some panel-to-panel cascade reaches row k's RX.
  std::vector<std::uint8_t> cascades;
  bool any_cascades = false;
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

  /// Direct (non-surface) channel to RX j.
  em::Cx direct(std::size_t j) const { return rows_.at(j)->h_dir; }

  /// TX -> panel-p element propagation vector.
  const em::CxPlanes& tx_planes(std::size_t p) const { return statics_->f.at(p); }
  /// Panel-p elements -> RX j propagation vector.
  const em::CxPlanes& rx_planes(std::size_t p, std::size_t j) const {
    return rows_.at(j)->g.at(p);
  }
  /// Panel p -> panel q cascade matrix (rows: q elements, cols: p elements);
  /// rows() == 0 when geometry forbids the hop.
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

  /// End-to-end channel at RX j given per-panel element coefficients (one
  /// CxPlanes per panel, sized to that panel's element count; padding lanes
  /// must be zero, which CxPlanes maintains).
  em::Cx evaluate(std::size_t j, std::span<const em::CxPlanes> coefficients) const;

  /// d h / d c_p[i] at RX j for every panel/element, given the current
  /// coefficients; dh_dc_out is resized to one CxPlanes per panel. Used for
  /// analytic gradients: d h / d phi_p[i] = j * c_p[i] * (d h / d c_p[i]).
  /// The h_out sum is bit-identical to evaluate on the same inputs.
  void evaluate_with_partials(std::size_t j,
                              std::span<const em::CxPlanes> coefficients,
                              em::Cx& h_out,
                              std::vector<em::CxPlanes>& dh_dc_out) const;

  /// Folds the single-bounce products of the listed RX (see LinkFold). The
  /// fold is a snapshot: it is stale once sync() or rebase_rx() runs.
  LinkFold fold_links(std::span<const std::size_t> rx_indices) const;

  /// Adds RX j's double-bounce terms to h and, when dh_dc is non-null, their
  /// partials to (*dh_dc)[panel], in evaluate's cascade order. After h_dir
  /// plus the single-bounce sums, the result is bit-identical to evaluate
  /// (and *dh_dc to evaluate_with_partials').
  void add_cascades(std::size_t j, std::span<const em::CxPlanes> coefficients,
                    em::Cx& h, std::vector<em::CxPlanes>* dh_dc) const;

  /// Convenience: channel power |h|^2 at every RX for panel configs.
  std::vector<double> power_map(
      std::span<const surface::SurfaceConfig> configs) const;

  /// |h|^2 at a subset of RX indices — the orchestrator's per-task
  /// measurement sweep. Callers that sweep several RX subsets under one
  /// config realize it once (coefficients_for).
  std::vector<double> powers_at(
      std::span<const std::size_t> rx_indices,
      std::span<const em::CxPlanes> coefficients) const;

  /// Per-panel coefficient planes the configs realize to
  /// (SurfacePanel::coefficients_into: granularity and quantization
  /// applied).
  std::vector<em::CxPlanes> coefficients_for(
      std::span<const surface::SurfaceConfig> configs) const;

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
  /// Whether the p -> q cascade reaches `rx` (a built matrix, both hops
  /// served).
  bool cascade_live(std::size_t p, std::size_t q, const geom::Vec3& rx) const;
  /// The current scene's tracer, built on first use.
  const BatchTracer& tracer();

  /// One panel's element positions as zero-padded SoA planes.
  struct ElementPlanes {
    util::simd::AlignedVec x, y, z;
  };

  const Environment* environment_;
  double frequency_hz_;
  TxSpec tx_;
  std::vector<const surface::SurfacePanel*> panels_;
  std::vector<geom::Vec3> rx_points_;
  const em::AntennaPattern* rx_antenna_;
  ChannelOptions options_;
  /// Per panel, fixed for the channel's lifetime.
  std::vector<ElementPlanes> element_planes_;
  /// Null until the current scene first needs a trace.
  std::shared_ptr<const BatchTracer> tracer_;

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
