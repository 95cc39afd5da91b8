#include "sim/channel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "em/band.hpp"
#include "geom/ray.hpp"
#include "sim/trace_batch.hpp"
#include "telemetry/telemetry.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace surfos::sim {

namespace {

const em::IsotropicAntenna kIsotropic;

const em::AntennaPattern& pattern_or_isotropic(const em::AntennaPattern* p) {
  return p != nullptr ? *p : kIsotropic;
}

void digest_vec3(util::DigestBuilder& b, const geom::Vec3& v) {
  b.add_double(v.x);
  b.add_double(v.y);
  b.add_double(v.z);
}

/// Structural fingerprint of an antenna pattern: its name bytes, peak gain,
/// and the amplitude response sampled on a fixed set of unit directions
/// ({-1,0,1}^3 \ {0}, normalized — 26 probes cover every octant and axis).
/// Patterns are value types constructed from a handful of parameters, so
/// matching samples + name pins down matching responses everywhere.
void digest_pattern(util::DigestBuilder& b, const em::AntennaPattern& pattern) {
  const std::string name = pattern.name();
  b.add_size(name.size());
  for (const char c : name) b.add_word(static_cast<std::uint64_t>(
      static_cast<unsigned char>(c)));
  b.add_double(pattern.peak_power_gain());
  for (int ix = -1; ix <= 1; ++ix) {
    for (int iy = -1; iy <= 1; ++iy) {
      for (int iz = -1; iz <= 1; ++iz) {
        if (ix == 0 && iy == 0 && iz == 0) continue;
        const geom::Vec3 dir = geom::Vec3{static_cast<double>(ix),
                                          static_cast<double>(iy),
                                          static_cast<double>(iz)}
                                   .normalized();
        b.add_double(pattern.amplitude_gain(dir));
      }
    }
  }
}

bool same_bits(const geom::Aabb& a, const geom::Aabb& b) {
  return std::memcmp(&a, &b, sizeof(geom::Aabb)) == 0;
}

bool same_bits(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool same_bits(const em::CxPlanes& a, const em::CxPlanes& b) {
  return a.size() == b.size() && a.padded_size() == b.padded_size() &&
         same_bits(a.re(), b.re(), a.padded_size()) &&
         same_bits(a.im(), b.im(), a.padded_size());
}

bool same_bits(const ScenePrecompute& a, const ScenePrecompute& b) {
  if (&a == &b) return true;
  for (std::size_t p = 0; p < a.f.size(); ++p) {
    if (!same_bits(a.f[p], b.f[p])) return false;
    for (std::size_t q = 0; q < a.cascades.size(); ++q) {
      const em::CxPlaneMat& ma = a.cascades[q][p];
      const em::CxPlaneMat& mb = b.cascades[q][p];
      const std::size_t n = ma.rows() * ma.stride();
      if (ma.rows() != mb.rows() || ma.stride() != mb.stride() ||
          !same_bits(ma.re(), mb.re(), n) || !same_bits(ma.im(), mb.im(), n)) {
        return false;
      }
    }
  }
  return true;
}

bool same_bits(const RxRowPrecompute& a, const RxRowPrecompute& b) {
  if (&a == &b) return true;
  if (std::memcmp(&a.h_dir, &b.h_dir, sizeof(em::Cx)) != 0) return false;
  for (std::size_t p = 0; p < a.g.size(); ++p) {
    if (!same_bits(a.g[p], b.g[p])) return false;
  }
  return true;
}

/// How far, in metres, a crossing must clear every decision boundary of
/// the triangle tests (kRayEpsilon at the segment ends, the face borders,
/// the exclusion radius, coincident hits) to count as robust: far above
/// their rounding error and their 1e-12 barycentric slack.
constexpr double kRobustMargin = 1e-6;

/// A face whose own transmission power is below this blocks any path
/// through it: every transmission factor has magnitude <= 1 (both the
/// scalar and the vectorized slab model clamp it), so the running product
/// falls under the 1e-30 cut-off of Environment::segment_transmission and
/// of BatchTracer wherever the face sits in it. The factor 100 covers the
/// models' ULP-level differences.
constexpr double kBlockingPower = 1e-32;

/// How a segment crosses an axis-aligned box, as the triangle tests
/// (scalar and vectorized) would count it.
struct BoxCrossing {
  bool crosses = false;  ///< Some face is hit (and not excluded).
  bool blocked = false;  ///< A hit face's transmission blocks the path.
  bool robust = true;    ///< False when a decision lies within the margin.
};

/// `blocks(cos_i)`: whether a face crossed at that incidence cosine blocks.
template <class Blocks>
BoxCrossing cross_box(const geom::Aabb& box, const geom::Vec3& a,
                      const geom::Vec3& b, std::span<const geom::Vec3> exclude,
                      const Blocks& blocks) {
  constexpr double m = kRobustMargin;
  BoxCrossing out;
  const geom::Vec3 d = b - a;
  const double len = d.norm();
  const double* lo = &box.lo.x;
  const double* hi = &box.hi.x;
  const double* pa = &a.x;
  const double* pb = &b.x;
  const double* pd = &d.x;
  const auto not_robust = [&out] {
    out.robust = false;
    return out;
  };
  std::array<double, 6> hits{};
  std::size_t n_hits = 0;
  for (int k = 0; k < 3; ++k) {
    for (int side = 0; side < 2; ++side) {
      const double c = side == 0 ? lo[k] : hi[k];
      const double da = pa[k] - c;
      const double db = pb[k] - c;
      if ((da > m && db > m) || (da < -m && db < -m)) continue;  // one side
      if (std::fabs(pd[k]) <= 1e-9 * len) return not_robust();  // grazes
      const double t = -da / pd[k];
      const geom::Vec3 p = a + d * t;
      const double* pp = &p.x;
      bool inside = true;
      bool outside = false;
      for (int j = 0; j < 3; ++j) {
        if (j == k) continue;
        outside |= pp[j] < lo[j] - m || pp[j] > hi[j] + m;
        inside &= pp[j] > lo[j] + m && pp[j] < hi[j] - m;
      }
      if (outside) continue;
      if (!inside) return not_robust();
      const double dist = t * len;
      if (dist < geom::kRayEpsilon + m || dist > len - geom::kRayEpsilon - m) {
        return not_robust();
      }
      bool excluded = false;
      bool near_exclusion = false;
      for (const geom::Vec3& e : exclude) {
        const double r = p.distance_to(e);
        excluded |= r < BatchTracer::kExcludeRadius - m;
        near_exclusion |= r < BatchTracer::kExcludeRadius + m;
      }
      if (excluded) continue;
      if (near_exclusion) return not_robust();
      // Two faces hit at one distance (an edge) merge into one crossing.
      for (std::size_t h = 0; h < n_hits; ++h) {
        if (std::fabs(hits[h] - dist) < m) return not_robust();
      }
      hits[n_hits++] = dist;
      out.crosses = true;
      out.blocked = out.blocked || blocks(std::fabs(pd[k]) / len);
    }
  }
  return out;
}

/// The obstacle boxes that moved between two snapshots of an environment,
/// and the test deciding whether a segment's transmission may differ
/// across the motion. Two cases keep the bits:
///
///  - The segment crosses no face of the old box and none of the new one:
///    it misses both extents grown by kRayEpsilon (the triangle tests' hit
///    tolerance), or robustly hits no face (it lies inside, say). Its hit
///    list is the same.
///  - It robustly crosses a blocking face of the old box and one of the
///    new box: its transmission is cut to zero both times.
///
/// The second needs the box's material to be its own (no coincident-hit
/// merging with other triangles) and only one moved box on the segment;
/// any other meeting counts as a change.
class MotionDelta {
 public:
  MotionDelta(std::span<const ObstacleBox> before,
              std::span<const ObstacleBox> after, const Environment& env,
              double frequency_hz)
      : env_(&env), frequency_hz_(frequency_hz) {
    std::unordered_map<int, std::size_t> triangles_of;
    for (const geom::Triangle& t : env.mesh().triangles()) {
      ++triangles_of[t.material_id];
    }
    const auto solid = [](const geom::Aabb& box) {
      const geom::Vec3 e = box.extent();
      return e.x >= 1e-3 && e.y >= 1e-3 && e.z >= 1e-3;
    };
    for (std::size_t i = 0; i < after.size(); ++i) {
      const geom::Aabb& from = before[i].extent;
      const geom::Aabb& to = after[i].extent;
      if (same_bits(from, to)) continue;
      moved_.push_back({from, to, from.inflated(geom::kRayEpsilon),
                        to.inflated(geom::kRayEpsilon),
                        after[i].material_id,
                        triangles_of[after[i].material_id] == 12 &&
                            solid(from) && solid(to)});
    }
  }

  /// For a path of BatchTracer's set: tx, its bounce points (the
  /// transmission kernel's exclusion points), rx. A path cut to zero at
  /// both positions keeps its (zero) contribution whatever its other legs
  /// do.
  bool changes_path(std::span<const geom::Vec3> path) const {
    const auto bounces = path.subspan(1, path.size() - 2);
    bool changed = false;
    bool blocked_before = false;
    bool blocked_after = false;
    for (std::size_t leg = 0; leg + 1 < path.size(); ++leg) {
      const Verdict v = judge(path[leg], path[leg + 1], bounces);
      changed |= v.changed;
      blocked_before |= v.blocked_before;
      blocked_after |= v.blocked_after;
    }
    return changed && !(blocked_before && blocked_after);
  }

  /// For a segment Environment::segment_transmission evaluates.
  bool changes_segment(const geom::Vec3& a, const geom::Vec3& b) const {
    return judge(a, b, {}).changed;
  }

 private:
  struct Moved {
    geom::Aabb from, to;           ///< Exact extents.
    geom::Aabb from_reach, to_reach;  ///< Grown by kRayEpsilon.
    int material_id = 0;
    bool refinable = false;  ///< Own material and positive extents.
  };

  struct Verdict {
    bool changed = false;         ///< The transmission may differ.
    bool blocked_before = false;  ///< Robustly cut to zero before the move.
    bool blocked_after = false;   ///< Robustly cut to zero after it.
  };

  Verdict judge(const geom::Vec3& a, const geom::Vec3& b,
                std::span<const geom::Vec3> exclude) const {
    const Moved* met = nullptr;
    for (const Moved& box : moved_) {
      if (!box.from_reach.meets_segment(a, b) &&
          !box.to_reach.meets_segment(a, b)) {
        continue;
      }
      if (!box.refinable || met != nullptr) return {true, false, false};
      met = &box;
    }
    if (met == nullptr) return {};
    const em::Material& material = env_->materials().get(met->material_id);
    const auto blocks = [&](double cos_i) {
      return std::norm(em::transmission_coefficient(
                 material, frequency_hz_, std::acos(std::fmin(1.0, cos_i)))) <
             kBlockingPower;
    };
    const BoxCrossing before = cross_box(met->from, a, b, exclude, blocks);
    const BoxCrossing after = cross_box(met->to, a, b, exclude, blocks);
    if (!before.robust || !after.robust) return {true, false, false};
    return {(before.crosses || after.crosses) &&
                !(before.blocked && after.blocked),
            before.blocked, after.blocked};
  }

  const Environment* env_;
  double frequency_hz_;
  std::vector<Moved> moved_;
};

struct DigestHash {
  std::size_t operator()(const util::ConfigDigest& d) const noexcept {
    return static_cast<std::size_t>(d.lo ^ (d.hi * 0x9e3779b97f4a7c15ull));
  }
};

}  // namespace

SceneChannel::SceneChannel(const Environment* environment, double frequency_hz,
                           TxSpec tx,
                           std::vector<const surface::SurfacePanel*> panels,
                           std::vector<geom::Vec3> rx_points,
                           const em::AntennaPattern* rx_antenna,
                           ChannelOptions options)
    : environment_(environment),
      frequency_hz_(frequency_hz),
      tx_(tx),
      panels_(std::move(panels)),
      rx_points_(std::move(rx_points)),
      rx_antenna_(rx_antenna),
      options_(options) {
  if (environment_ == nullptr) {
    throw std::invalid_argument("SceneChannel: null environment");
  }
  for (const auto* p : panels_) {
    if (p == nullptr) throw std::invalid_argument("SceneChannel: null panel");
  }
  if (rx_points_.empty()) {
    throw std::invalid_argument("SceneChannel: no RX points");
  }
  element_planes_.resize(panels_.size());
  for (std::size_t p = 0; p < panels_.size(); ++p) {
    const auto& positions = panels_[p]->element_positions();
    const std::size_t pad = em::padded_len(positions.size());
    ElementPlanes& planes = element_planes_[p];
    planes.x.assign(pad, 0.0);
    planes.y.assign(pad, 0.0);
    planes.z.assign(pad, 0.0);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      planes.x[i] = positions[i].x;
      planes.y[i] = positions[i].y;
      planes.z[i] = positions[i].z;
    }
  }
  setup_digest_ = compute_setup_digest();
  precompute();
}

const BatchTracer& SceneChannel::tracer() {
  if (!tracer_) {
    tracer_ = std::make_shared<const BatchTracer>(
        environment_, frequency_hz_, tx_.position, options_.tracer);
  }
  return *tracer_;
}

util::ConfigDigest SceneChannel::compute_setup_digest() const {
  util::DigestBuilder b;
  b.add_word(0x5352464f50433130ull);  // "SRFOPC10": scene-artifact salt
  b.add_double(frequency_hz_);
  digest_vec3(b, tx_.position);
  digest_pattern(b, pattern_or_isotropic(tx_.antenna));
  digest_pattern(b, pattern_or_isotropic(rx_antenna_));
  b.add_word(static_cast<std::uint64_t>(options_.tracer.max_reflection_order));
  b.add_double(options_.tracer.min_path_gain);
  b.add_size(panels_.size());
  for (const auto* panel : panels_) {
    b.add_size(panel->element_count());
    b.add_double(panel->design().effective_area());
    digest_vec3(b, panel->normal());
    digest_vec3(b, panel->center());
    for (const geom::Vec3& ep : panel->element_positions()) digest_vec3(b, ep);
  }
  return b.digest();
}

util::ConfigDigest SceneChannel::compute_scene_digest() const {
  util::DigestBuilder b;
  b.add_word(setup_digest_.lo);
  b.add_word(setup_digest_.hi);
  // Kernels are bit-identical across SIMD backends (PR 6), but the digest
  // stays conservative: tests that switch backends mid-process must compare
  // genuinely recomputed artifacts, not cache hits. One backend per process
  // in production, so this never splits real sharing.
  b.add_word(static_cast<std::uint64_t>(util::simd::active_backend()));

  const auto& mesh = environment_->mesh();
  b.add_size(mesh.triangle_count());
  for (const geom::Triangle& t : mesh.triangles()) {
    digest_vec3(b, t.a);
    digest_vec3(b, t.b);
    digest_vec3(b, t.c);
    b.add_word(static_cast<std::uint64_t>(t.material_id));
  }
  const auto reflectors = environment_->reflectors();
  b.add_size(reflectors.size());
  for (const Reflector& r : reflectors) {
    digest_vec3(b, r.frame.origin());
    digest_vec3(b, r.frame.u());
    digest_vec3(b, r.frame.v());
    b.add_double(r.half_u);
    b.add_double(r.half_v);
    b.add_word(static_cast<std::uint64_t>(r.material_id));
  }
  const auto& materials = environment_->materials();
  b.add_size(materials.size());
  for (std::size_t i = 0; i < materials.size(); ++i) {
    const em::Material& m = materials.get(static_cast<int>(i));
    b.add_double(m.rel_permittivity);
    b.add_double(m.conductivity_a);
    b.add_double(m.conductivity_b);
    b.add_double(m.thickness_m);
  }
  return b.digest();
}

util::ConfigDigest SceneChannel::row_key(const geom::Vec3& rx) const {
  util::DigestBuilder b;
  b.add_word(0x5352464f524f5731ull);  // "SRFORW1": row-artifact salt
  digest_vec3(b, rx);
  return util::combine(scene_digest_, b.digest());
}

std::shared_ptr<ScenePrecompute> SceneChannel::build_statics() const {
  const auto& tx_pattern = pattern_or_isotropic(tx_.antenna);
  const auto& kn = util::simd::ops();
  const double wavenum = em::wavenumber(frequency_hz_);
  const double lambda = em::wavelength(frequency_hz_);
  const double sqrt4pi = std::sqrt(4.0 * M_PI);

  auto out = std::make_shared<ScenePrecompute>();
  const std::vector<ElementPlanes>& pos = element_planes_;

  // TX -> panel element vectors: hop gains + departure directions from the
  // hop_gain kernel, antenna weights from the batched pattern, and the
  // panel-center transmission applied as one complex scale.
  out->f.resize(panels_.size());
  util::parallel_for(0, panels_.size(), [&](std::size_t p) {
    const auto& panel = *panels_[p];
    const double area = panel.design().effective_area();
    const auto& positions = panel.element_positions();
    const std::size_t n = positions.size();
    em::CxPlanes& f = out->f[p];
    f.resize(n);
    const em::Cx center_trans = environment_->segment_transmission(
        tx_.position, panel.center(), frequency_hz_);
    const std::size_t pad = em::padded_len(n);
    util::simd::AlignedVec ux(pad, 0.0), uy(pad, 0.0), uz(pad, 0.0),
        w(pad, 0.0);
    const geom::Vec3 nrm = panel.normal();
    // hop = sqrt(area cos)/(sqrt(4pi) d) e^{-jkd}; u = element -> TX.
    kn.hop_gain(pos[p].x.data(), pos[p].y.data(), pos[p].z.data(),
                tx_.position.x, tx_.position.y, tx_.position.z, nrm.x, nrm.y,
                nrm.z, wavenum, area, sqrt4pi, f.re(), f.im(), ux.data(),
                uy.data(), uz.data(), n);
    // The TX pattern is evaluated on the departure direction TX -> element,
    // which is -u, hence sign = -1 (an exact flip).
    tx_pattern.amplitude_gain_batch(ux.data(), uy.data(), uz.data(), -1.0,
                                    w.data(), n);
    kn.rscale_mul(f.re(), f.im(), w.data(), pad);
    kn.cscale(f.re(), f.im(), center_trans.real(), center_trans.imag(), pad);
  });

  // Panel -> panel cascade matrices, parallel over the flattened (q, p)
  // pair index — each pair owns one O(N^2) matrix, the dominant cost.
  out->cascades.assign(panels_.size(),
                       std::vector<em::CxPlaneMat>(panels_.size()));
  const std::size_t np = panels_.size();
  util::parallel_for(0, np * np, [&](std::size_t pair) {
    const std::size_t q = pair / np;
    const std::size_t p = pair % np;
    if (p == q) return;
    const auto& panel_p = *panels_[p];
    const auto& panel_q = *panels_[q];
    const double area_p = panel_p.design().effective_area();
    const double area_q = panel_q.design().effective_area();
    const em::Cx center_trans = environment_->segment_transmission(
        panel_p.center(), panel_q.center(), frequency_hz_);
    if (std::norm(center_trans) < 1e-30) return;  // rows() == 0: no hop
    const auto& pos_q = panel_q.element_positions();
    const geom::Vec3 np_n = panel_p.normal();
    const geom::Vec3 nq_n = panel_q.normal();
    em::CxPlaneMat mat(pos_q.size(), panel_p.element_count());
    for (std::size_t m = 0; m < pos_q.size(); ++m) {
      kn.pair_gain(pos[p].x.data(), pos[p].y.data(), pos[p].z.data(),
                   pos_q[m].x, pos_q[m].y, pos_q[m].z, np_n.x, np_n.y,
                   np_n.z, nq_n.x, nq_n.y, nq_n.z, wavenum, lambda, area_p,
                   area_q, mat.row_re(m), mat.row_im(m), mat.cols());
    }
    // One complex scale over the whole matrix (rows * stride, padding
    // lanes stay zero under scaling).
    kn.cscale(mat.row_re(0), mat.row_im(0), center_trans.real(),
              center_trans.imag(), mat.rows() * mat.stride());
    out->cascades[q][p] = std::move(mat);
  });
  out->finalize_bytes();
  return out;
}

void SceneChannel::fill_missing_rows(const std::vector<std::size_t>& missing) {
  if (missing.empty()) return;
  const auto& tx_pattern = pattern_or_isotropic(tx_.antenna);
  const auto& rx_pattern = pattern_or_isotropic(rx_antenna_);
  const auto& kn = util::simd::ops();
  const double wavenum = em::wavenumber(frequency_hz_);
  const double sqrt4pi = std::sqrt(4.0 * M_PI);

  // Direct (non-surface) component, antenna-weighted per path, traced only
  // for the rows actually missing. Per-receiver values do not depend on the
  // other receivers of a trace, so tracing a subset yields bits identical
  // to tracing the full set (trace_batch.hpp).
  std::vector<geom::Vec3> points(missing.size());
  for (std::size_t k = 0; k < missing.size(); ++k) {
    points[k] = rx_points_[missing[k]];
  }
  std::vector<em::Cx> h(points.size(), em::Cx{});
  tracer().trace_weighted(points, tx_pattern, rx_pattern, h);

  // Panel elements -> RX vectors, parallel over the missing rows; each chunk
  // of rows shares one set of direction and weight scratch planes.
  std::size_t max_pad = 0;
  for (const ElementPlanes& planes : element_planes_) {
    max_pad = std::max(max_pad, planes.x.size());
  }
  std::vector<std::shared_ptr<RxRowPrecompute>> built(missing.size());
  util::run_chunked(0, missing.size(), [&](std::size_t begin, std::size_t end) {
    util::simd::AlignedVec ux(max_pad), uy(max_pad), uz(max_pad), w(max_pad);
    for (std::size_t k = begin; k < end; ++k) {
      const geom::Vec3& rx = points[k];
      auto row = std::make_shared<RxRowPrecompute>();
      row->h_dir = h[k];
      row->g.resize(panels_.size());
      for (std::size_t p = 0; p < panels_.size(); ++p) {
        const auto& panel = *panels_[p];
        const double area = panel.design().effective_area();
        const std::size_t n = panel.element_count();
        em::CxPlanes& g = row->g[p];
        g.resize(n);
        const em::Cx center_trans = environment_->segment_transmission(
            panel.center(), rx, frequency_hz_);
        const std::size_t pad = em::padded_len(n);
        const ElementPlanes& pos = element_planes_[p];
        const geom::Vec3 nrm = panel.normal();
        kn.hop_gain(pos.x.data(), pos.y.data(), pos.z.data(), rx.x, rx.y,
                    rx.z, nrm.x, nrm.y, nrm.z, wavenum, area, sqrt4pi, g.re(),
                    g.im(), ux.data(), uy.data(), uz.data(), n);
        // u = element -> RX is the arrival direction; the RX pattern looks
        // back along it, hence sign = -1. The padding weights are zero, as
        // the padding of g is.
        rx_pattern.amplitude_gain_batch(ux.data(), uy.data(), uz.data(), -1.0,
                                        w.data(), n);
        std::fill(w.begin() + static_cast<std::ptrdiff_t>(n),
                  w.begin() + static_cast<std::ptrdiff_t>(pad), 0.0);
        kn.rscale_mul(g.re(), g.im(), w.data(), pad);
        kn.cscale(g.re(), g.im(), center_trans.real(), center_trans.imag(),
                  pad);
      }
      row->finalize_bytes();
      built[k] = std::move(row);
    }
  });

  auto& store = PrecomputeStore::instance();
  for (std::size_t k = 0; k < missing.size(); ++k) {
    rows_[missing[k]] = store.publish_row(row_key(points[k]),
                                          std::move(built[k]));
  }
}

void SceneChannel::precompute() {
  SURFOS_TRACE_SPAN("sim.channel.precompute");
  SURFOS_COUNT("sim.channel.precomputes");
  SURFOS_COUNT_N("sim.channel.precompute_rx_points", rx_points_.size());
  SURFOS_COUNT_N("sim.channel.precompute_panels", panels_.size());

  const auto boxes = environment_->obstacle_boxes();
  boxes_.assign(boxes.begin(), boxes.end());
  tracer_.reset();
  scene_digest_ = compute_scene_digest();
  auto& store = PrecomputeStore::instance();
  statics_ = store.acquire_scene(scene_digest_,
                                 [this] { return build_statics(); });

  rows_.assign(rx_points_.size(), nullptr);
  std::vector<std::size_t> missing;
  for (std::size_t j = 0; j < rx_points_.size(); ++j) {
    if (auto row = store.lookup_row(row_key(rx_points_[j]))) {
      rows_[j] = std::move(row);
    } else {
      missing.push_back(j);
    }
  }
  fill_missing_rows(missing);
}

bool SceneChannel::sync() {
  const auto boxes = environment_->obstacle_boxes();
  bool same_scene = boxes.size() == boxes_.size();
  bool moved = false;
  for (std::size_t i = 0; same_scene && i < boxes.size(); ++i) {
    same_scene = boxes[i].material_id == boxes_[i].material_id &&
                 boxes[i].first_triangle == boxes_[i].first_triangle;
    moved |= !same_bits(boxes[i].extent, boxes_[i].extent);
  }
  if (!same_scene) {  // a box was added: a new scene
    precompute();
    return true;
  }
  if (!moved) return false;
  SURFOS_TRACE_SPAN("sim.channel.rebase_rx");

  const MotionDelta delta(boxes_, boxes, *environment_, frequency_hz_);
  tracer_.reset();
  const auto old_statics = statics_;
  const auto old_rows = rows_;
  boxes_.assign(boxes.begin(), boxes.end());
  scene_digest_ = compute_scene_digest();
  auto& store = PrecomputeStore::instance();

  // Statics: f depends on the TX -> panel-centre segments, the cascades on
  // the centre <-> centre ones. Unchanged, the old artifact is the new one.
  bool statics_changed = false;
  for (std::size_t p = 0; p < panels_.size(); ++p) {
    statics_changed |=
        delta.changes_segment(tx_.position, panels_[p]->center());
    for (std::size_t q = 0; q < panels_.size(); ++q) {
      if (q != p) {
        statics_changed |=
            delta.changes_segment(panels_[p]->center(), panels_[q]->center());
      }
    }
  }
  statics_ = store.acquire_scene(
      scene_digest_, [&]() -> std::shared_ptr<const ScenePrecompute> {
        return statics_changed ? build_statics() : old_statics;
      });

  // Rows: another channel may already have published the row under the new
  // key. Otherwise the old row is re-keyed unless the motion may change one
  // of its legs: the direct path set's, or a panel centre -> RX segment.
  std::vector<std::size_t> unresolved;
  for (std::size_t j = 0; j < rx_points_.size(); ++j) {
    if (auto row = store.lookup_row(row_key(rx_points_[j]))) {
      rows_[j] = std::move(row);
    } else {
      unresolved.push_back(j);
    }
  }
  std::vector<geom::Vec3> points(unresolved.size());
  for (std::size_t k = 0; k < unresolved.size(); ++k) {
    points[k] = rx_points_[unresolved[k]];
  }
  std::vector<char> changed(points.size(), 0);
  if (!points.empty()) {
    tracer().any_path(points,
                      [&delta](std::span<const geom::Vec3> path) {
                        return delta.changes_path(path);
                      },
                      changed);
  }
  std::vector<std::size_t> missing;
  for (std::size_t k = 0; k < unresolved.size(); ++k) {
    for (std::size_t p = 0; p < panels_.size() && !changed[k]; ++p) {
      changed[k] = delta.changes_segment(panels_[p]->center(), points[k]);
    }
    const std::size_t j = unresolved[k];
    if (changed[k]) {
      missing.push_back(j);
    } else {
      rows_[j] = store.publish_row(row_key(points[k]), rows_[j]);
    }
  }
  SURFOS_COUNT_SCHED("sim.channel.rebase_rows_reused",
                     unresolved.size() - missing.size());
  SURFOS_COUNT_SCHED("sim.channel.rebase_rows_filled", missing.size());
  fill_missing_rows(missing);

  // Whether any value changed, by content: the same answer however each
  // artifact was obtained (re-keyed, refilled, or another channel's).
  bool values_changed = !same_bits(*old_statics, *statics_);
  for (std::size_t j = 0; j < rows_.size() && !values_changed; ++j) {
    values_changed = !same_bits(*old_rows[j], *rows_[j]);
  }
  return values_changed;
}

void SceneChannel::rebase_rx(std::vector<geom::Vec3> new_points) {
  if (new_points.empty()) {
    throw std::invalid_argument("SceneChannel: no RX points");
  }
  // Rows leaving the set go first, so sync() catches up on survivors only;
  // the rows below are then keyed under the current scene digest.
  std::unordered_set<util::ConfigDigest, DigestHash> wanted;
  for (const geom::Vec3& p : new_points) wanted.insert(row_key(p));
  std::size_t kept = 0;
  for (std::size_t j = 0; j < rx_points_.size(); ++j) {
    if (wanted.count(row_key(rx_points_[j])) != 0) {
      rx_points_[kept] = rx_points_[j];
      rows_[kept++] = std::move(rows_[j]);
    }
  }
  rx_points_.resize(kept);
  rows_.resize(kept);
  sync();
  SURFOS_TRACE_SPAN("sim.channel.rebase_rx");
  SURFOS_COUNT("sim.channel.rebases");

  // Survivor rows come from this channel itself (exact point-bit match),
  // immune to store eviction pressure; everything else tries the store,
  // then gets traced. Row order follows new_points, so the result is
  // indistinguishable from fresh construction.
  std::unordered_map<util::ConfigDigest,
                     std::shared_ptr<const RxRowPrecompute>, DigestHash>
      local;
  local.reserve(rx_points_.size());
  for (std::size_t j = 0; j < rx_points_.size(); ++j) {
    local.emplace(row_key(rx_points_[j]), rows_[j]);
  }

  rx_points_ = std::move(new_points);
  rows_.assign(rx_points_.size(), nullptr);
  auto& store = PrecomputeStore::instance();
  std::vector<std::size_t> missing;
  std::size_t reused = 0;
  for (std::size_t j = 0; j < rx_points_.size(); ++j) {
    const util::ConfigDigest key = row_key(rx_points_[j]);
    if (const auto it = local.find(key); it != local.end()) {
      rows_[j] = it->second;
      ++reused;
      continue;
    }
    if (auto row = store.lookup_row(key)) {
      rows_[j] = std::move(row);
      continue;
    }
    missing.push_back(j);
  }
  SURFOS_COUNT_SCHED("sim.channel.rebase_rows_reused", reused);
  SURFOS_COUNT_SCHED("sim.channel.rebase_rows_filled", missing.size());
  fill_missing_rows(missing);
}

void SceneChannel::check_coefficient_sizes(
    std::span<const em::CxPlanes> coefficients) const {
  if (coefficients.size() != panels_.size()) {
    throw std::invalid_argument("SceneChannel: coefficient count mismatch");
  }
  for (std::size_t p = 0; p < panels_.size(); ++p) {
    if (coefficients[p].size() != panels_[p]->element_count()) {
      throw std::invalid_argument("SceneChannel: coefficient size mismatch");
    }
  }
}

bool SceneChannel::cascade_live(std::size_t p, std::size_t q,
                                const geom::Vec3& rx) const {
  return p != q && statics_->cascades[q][p].rows() != 0 &&
         panels_[p]->serves(tx_.position, panels_[q]->center()) &&
         panels_[q]->serves(panels_[p]->center(), rx);
}

em::Cx SceneChannel::evaluate(
    std::size_t j, std::span<const em::CxPlanes> coefficients) const {
  check_coefficient_sizes(coefficients);
  const geom::Vec3& rx = rx_points_.at(j);
  const RxRowPrecompute& row = *rows_.at(j);
  const auto& kn = util::simd::ops();
  em::Cx h = row.h_dir;
  double acc[2];
  // Single-bounce terms: sum_i (g_i f_i) c_i, canonical product order
  // shared with the partials kernel and with fold_links' rows.
  for (std::size_t p = 0; p < panels_.size(); ++p) {
    if (!panels_[p]->serves(tx_.position, rx)) continue;
    const em::CxPlanes& f = statics_->f[p];
    const em::CxPlanes& g = row.g[p];
    const em::CxPlanes& c = coefficients[p];
    kn.cdot3(g.re(), g.im(), f.re(), f.im(), c.re(), c.im(), f.padded_size(),
             acc);
    h += em::Cx{acc[0], acc[1]};
  }
  add_cascades(j, coefficients, h, nullptr);
  return h;
}

void SceneChannel::evaluate_with_partials(
    std::size_t j, std::span<const em::CxPlanes> coefficients, em::Cx& h_out,
    std::vector<em::CxPlanes>& dh_dc_out) const {
  check_coefficient_sizes(coefficients);
  const geom::Vec3& rx = rx_points_.at(j);
  const RxRowPrecompute& row = *rows_.at(j);
  const auto& kn = util::simd::ops();

  dh_dc_out.resize(panels_.size());
  for (std::size_t p = 0; p < panels_.size(); ++p) {
    dh_dc_out[p].resize(panels_[p]->element_count());  // zero-fills
  }

  em::Cx h = row.h_dir;
  double acc[2];

  // Single-bounce terms: dh_p = g .* f is exactly the product the sum
  // reduces, so cdot3_partials emits both without recomputation.
  for (std::size_t p = 0; p < panels_.size(); ++p) {
    if (!panels_[p]->serves(tx_.position, rx)) continue;
    const em::CxPlanes& f = statics_->f[p];
    const em::CxPlanes& g = row.g[p];
    const em::CxPlanes& c = coefficients[p];
    kn.cdot3_partials(g.re(), g.im(), f.re(), f.im(), c.re(), c.im(),
                      dh_dc_out[p].re(), dh_dc_out[p].im(),
                      /*accumulate_w=*/1, f.padded_size(), acc);
    h += em::Cx{acc[0], acc[1]};
  }
  add_cascades(j, coefficients, h, &dh_dc_out);
  h_out = h;
}

void SceneChannel::add_cascades(std::size_t j,
                                std::span<const em::CxPlanes> coefficients,
                                em::Cx& h,
                                std::vector<em::CxPlanes>* dh_dc) const {
  const geom::Vec3& rx = rx_points_.at(j);
  const RxRowPrecompute& row = *rows_.at(j);
  const auto& kn = util::simd::ops();
  double acc[2];
  thread_local em::CxPlanes u_tls, v_tls, gq_tls, w_tls;
  em::CxPlanes& u = u_tls;
  em::CxPlanes& v = v_tls;
  em::CxPlanes& gq = gq_tls;
  em::CxPlanes& w = w_tls;
  for (std::size_t p = 0; p < panels_.size(); ++p) {
    for (std::size_t q = 0; q < panels_.size(); ++q) {
      if (!cascade_live(p, q, rx)) continue;
      const em::CxPlaneMat& G = statics_->cascades[q][p];
      const em::CxPlanes& f = statics_->f[p];
      const em::CxPlanes& g = row.g[q];
      const em::CxPlanes& cp = coefficients[p];
      const em::CxPlanes& cq = coefficients[q];
      // u = diag(cp) f ; v = G u ; term = sum_m (g_m v_m) cq_m.
      u.resize(f.size());
      kn.cmul(cp.re(), cp.im(), f.re(), f.im(), u.re(), u.im(),
              f.padded_size());
      v.resize(G.rows());
      kn.cmatvec(G.re(), G.im(), G.rows(), G.stride(), G.stride(), u.re(),
                 u.im(), v.re(), v.im());
      if (dh_dc == nullptr) {
        kn.cdot3(g.re(), g.im(), v.re(), v.im(), cq.re(), cq.im(),
                 v.padded_size(), acc);
        h += em::Cx{acc[0], acc[1]};
        continue;
      }
      // dh_q += g .* v, and the same sum.
      em::CxPlanes& dq = (*dh_dc)[q];
      kn.cdot3_partials(g.re(), g.im(), v.re(), v.im(), cq.re(), cq.im(),
                        dq.re(), dq.im(), /*accumulate_w=*/1, v.padded_size(),
                        acc);
      h += em::Cx{acc[0], acc[1]};
      // w = G^T (g .* cq): partials w.r.t. the first surface p.
      gq.resize(g.size());
      kn.cmul(g.re(), g.im(), cq.re(), cq.im(), gq.re(), gq.im(),
              g.padded_size());
      w.resize(f.size());
      kn.cmatvec_t(G.re(), G.im(), G.rows(), G.stride(), G.stride(), gq.re(),
                   gq.im(), w.re(), w.im());
      em::CxPlanes& dp = (*dh_dc)[p];
      kn.cmul_accum(w.re(), w.im(), f.re(), f.im(), dp.re(), dp.im(),
                    f.padded_size());
    }
  }
}

LinkFold SceneChannel::fold_links(
    std::span<const std::size_t> rx_indices) const {
  for (const std::size_t j : rx_indices) {
    if (j >= rx_points_.size()) {
      throw std::invalid_argument("SceneChannel: RX index out of range");
    }
  }
  const std::size_t m = rx_indices.size();
  const std::size_t np = panels_.size();
  LinkFold fold;
  fold.t.resize(np);
  for (std::size_t p = 0; p < np; ++p) {
    fold.t[p].resize(m, panels_[p]->element_count());
  }
  fold.h_dir.resize(m);
  fold.serves.assign(m * np, 0);
  fold.cascades.assign(m, 0);
  const auto& kn = util::simd::ops();
  // Each row owns its slots; the products are cdot3's own (g first).
  util::parallel_for(0, m, [&](std::size_t k) {
    const std::size_t j = rx_indices[k];
    const geom::Vec3& rx = rx_points_[j];
    const RxRowPrecompute& row = *rows_[j];
    fold.h_dir[k] = row.h_dir;
    for (std::size_t p = 0; p < np; ++p) {
      for (std::size_t q = 0; q < np; ++q) {
        if (cascade_live(p, q, rx)) fold.cascades[k] = 1;
      }
    }
    for (std::size_t p = 0; p < np; ++p) {
      if (!panels_[p]->serves(tx_.position, rx)) continue;
      fold.serves[k * np + p] = 1;
      const em::CxPlanes& f = statics_->f[p];
      const em::CxPlanes& g = row.g[p];
      em::CxPlaneMat& t = fold.t[p];
      kn.cmul(g.re(), g.im(), f.re(), f.im(), t.row_re(k), t.row_im(k),
              f.padded_size());
    }
  });
  fold.any_cascades = std::find(fold.cascades.begin(), fold.cascades.end(),
                                std::uint8_t{1}) != fold.cascades.end();
  return fold;
}

std::vector<em::CxPlanes> SceneChannel::coefficients_for(
    std::span<const surface::SurfaceConfig> configs) const {
  if (configs.size() != panels_.size()) {
    throw std::invalid_argument("SceneChannel: config count mismatch");
  }
  std::vector<em::CxPlanes> out(panels_.size());
  for (std::size_t p = 0; p < panels_.size(); ++p) {
    panels_[p]->coefficients_into(configs[p], out[p]);
  }
  return out;
}

std::vector<double> SceneChannel::power_map(
    std::span<const surface::SurfaceConfig> configs) const {
  SURFOS_TRACE_SPAN("sim.channel.power_map");
  SURFOS_COUNT("sim.channel.power_maps");
  thread_local std::vector<std::size_t> all_rx;
  all_rx.resize(rx_points_.size());
  std::iota(all_rx.begin(), all_rx.end(), std::size_t{0});
  return powers_at(all_rx, coefficients_for(configs));
}

std::vector<double> SceneChannel::powers_at(
    std::span<const std::size_t> rx_indices,
    std::span<const em::CxPlanes> coefficients) const {
  check_coefficient_sizes(coefficients);
  for (const std::size_t j : rx_indices) {
    if (j >= rx_points_.size()) {
      throw std::invalid_argument("SceneChannel: RX index out of range");
    }
  }
  std::vector<double> out(rx_indices.size());
  // Each RX index owns one output slot; deterministic under any thread count.
  util::parallel_for(0, rx_indices.size(), [&](std::size_t k) {
    out[k] = std::norm(evaluate(rx_indices[k], coefficients));
  });
  return out;
}

}  // namespace surfos::sim
