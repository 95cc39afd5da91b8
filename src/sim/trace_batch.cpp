#include "sim/trace_batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "em/band.hpp"
#include "em/material.hpp"
#include "em/propagation.hpp"
#include "geom/triangle.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace surfos::sim {

namespace {

constexpr std::size_t W = util::simd::kWidth;

/// One SIMD block worth of doubles, aligned for the block kernels.
struct Lanes {
  alignas(64) double v[W] = {};
};
struct Lanes3 {
  Lanes x, y, z;
};

/// All-ones bit pattern: the in-memory "true" of the kernel mask convention.
double mask_true() {
  const std::uint64_t bits = ~std::uint64_t{0};
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// Host-side any(): mask lanes are 0.0 (false) or all-ones (a NaN pattern,
/// which compares != 0.0). Identical on every backend, so the per-sequence
/// early-outs below are deterministic.
bool any_live(const double* m) {
  for (std::size_t l = 0; l < W; ++l) {
    if (m[l] != 0.0) return true;
  }
  return false;
}

/// Backward pass of one bounce sequence over a receiver block: clips the
/// last reflector toward the receivers, then chains toward the TX image.
/// bounce[i] receives the i-th bounce point; lanes where the sequence is
/// geometrically invalid are cleared in `mask`.
void clip_sequence(const util::simd::Ops& kn, const std::vector<int>& seq,
                   const std::vector<util::simd::PlaneRect>& planes,
                   const std::vector<geom::Vec3>& images, const Lanes3& rxl,
                   std::vector<Lanes3>& bounce, double* mask) {
  const double* tgx = rxl.x.v;
  const double* tgy = rxl.y.v;
  const double* tgz = rxl.z.v;
  for (std::size_t i = seq.size(); i-- > 0;) {
    const geom::Vec3& img = images[i];
    const auto& pl = planes[static_cast<std::size_t>(seq[i])];
    kn.plane_clip(&pl, img.x, img.y, img.z, tgx, tgy, tgz, bounce[i].x.v,
                  bounce[i].y.v, bounce[i].z.v, mask);
    tgx = bounce[i].x.v;
    tgy = bounce[i].y.v;
    tgz = bounce[i].z.v;
  }
}

/// Receiver block `base` of `rx_points` as lanes; dead lanes repeat the
/// block's first receiver (finite geometry, never written back).
std::size_t load_rx_block(std::span<const geom::Vec3> rx_points,
                          std::size_t base, Lanes3& rxl) {
  const std::size_t live = std::min(W, rx_points.size() - base);
  for (std::size_t l = 0; l < W; ++l) {
    const geom::Vec3& rx = rx_points[base + (l < live ? l : 0)];
    rxl.x.v[l] = rx.x;
    rxl.y.v[l] = rx.y;
    rxl.z.v[l] = rx.z;
  }
  return live;
}

}  // namespace

BatchTracer::BatchTracer(const Environment* environment, double frequency_hz,
                         TracerOptions options)
    : environment_(environment),
      frequency_hz_(frequency_hz),
      options_(options) {
  if (environment_ == nullptr) {
    throw std::invalid_argument("BatchTracer: null environment");
  }
  if (!environment_->finalized()) {
    throw std::logic_error("BatchTracer: environment not finalized");
  }
  if (frequency_hz_ <= 0.0) {
    throw std::invalid_argument("BatchTracer: non-positive frequency");
  }

  // Scene triangles as coplanar pairs. Environment geometry is built
  // exclusively from add_quad/add_box, which emit two consecutive
  // triangles per planar face sharing plane and material.
  const auto& triangles = environment_->mesh().triangles();
  if (triangles.size() % 2 != 0) {
    throw std::logic_error(
        "BatchTracer: scene triangles must form coplanar quad pairs");
  }
  const std::size_t pairs = triangles.size() / 2;
  tris_.pair_count = pairs;
  tris_.v0x.resize(2 * pairs);
  tris_.v0y.resize(2 * pairs);
  tris_.v0z.resize(2 * pairs);
  tris_.e1x.resize(2 * pairs);
  tris_.e1y.resize(2 * pairs);
  tris_.e1z.resize(2 * pairs);
  tris_.e2x.resize(2 * pairs);
  tris_.e2y.resize(2 * pairs);
  tris_.e2z.resize(2 * pairs);
  tris_.nx.resize(pairs);
  tris_.ny.resize(pairs);
  tris_.nz.resize(pairs);
  tris_.mat.resize(pairs);
  tris_.slab.resize(pairs);
  for (std::size_t t = 0; t < triangles.size(); ++t) {
    const geom::Triangle& tri = triangles[t];
    tris_.v0x[t] = tri.a.x;
    tris_.v0y[t] = tri.a.y;
    tris_.v0z[t] = tri.a.z;
    const geom::Vec3 e1 = tri.b - tri.a;
    const geom::Vec3 e2 = tri.c - tri.a;
    tris_.e1x[t] = e1.x;
    tris_.e1y[t] = e1.y;
    tris_.e1z[t] = e1.z;
    tris_.e2x[t] = e2.x;
    tris_.e2y[t] = e2.y;
    tris_.e2z[t] = e2.z;
  }
  for (std::size_t pr = 0; pr < pairs; ++pr) {
    const geom::Triangle& tri = triangles[2 * pr];
    const geom::Vec3 n = tri.geometric_normal();
    tris_.nx[pr] = n.x;
    tris_.ny[pr] = n.y;
    tris_.nz[pr] = n.z;
    tris_.mat[pr] = tri.material_id;
    tris_.slab[pr] = em::slab_consts(
        environment_->materials().get(tri.material_id), frequency_hz_);
  }

  // Reflector rectangles + their slab constants for the Fresnel kernel.
  const auto reflectors = environment_->reflectors();
  planes_.resize(reflectors.size());
  reflector_slab_.resize(reflectors.size());
  for (std::size_t i = 0; i < reflectors.size(); ++i) {
    const Reflector& r = reflectors[i];
    util::simd::PlaneRect& pl = planes_[i];
    const geom::Vec3& o = r.frame.origin();
    const geom::Vec3& n = r.frame.normal();
    const geom::Vec3& u = r.frame.u();
    const geom::Vec3& v = r.frame.v();
    pl.ox = o.x; pl.oy = o.y; pl.oz = o.z;
    pl.nx = n.x; pl.ny = n.y; pl.nz = n.z;
    pl.ux = u.x; pl.uy = u.y; pl.uz = u.z;
    pl.vx = v.x; pl.vy = v.y; pl.vz = v.z;
    pl.half_u = r.half_u;
    pl.half_v = r.half_v;
    reflector_slab_[i] = em::slab_consts(
        environment_->materials().get(r.material_id), frequency_hz_);
  }

  // Bounce-sequence enumeration, byte-for-byte the RayTracer scheme so the
  // path set and accumulation order match.
  const int n = static_cast<int>(reflectors.size());
  if (n > 0) {
    for (int order = 1; order <= options_.max_reflection_order; ++order) {
      std::vector<int> sequence(static_cast<std::size_t>(order), 0);
      const auto total = [&]() {
        double count = n;
        for (int i = 1; i < order; ++i) count *= (n - 1);
        return static_cast<long long>(count);
      }();
      for (long long code = 0; code < total; ++code) {
        long long rest = code;
        sequence[0] = static_cast<int>(rest % n);
        rest /= n;
        bool valid = true;
        for (int i = 1; i < order; ++i) {
          int pick = static_cast<int>(rest % (n - 1));
          rest /= (n - 1);
          if (pick >= sequence[static_cast<std::size_t>(i - 1)]) ++pick;
          sequence[static_cast<std::size_t>(i)] = pick;
          if (pick == sequence[static_cast<std::size_t>(i - 1)]) {
            valid = false;
            break;
          }
        }
        if (valid) sequences_.push_back(sequence);
      }
    }
  }
}

void BatchTracer::trace_weighted(const geom::Vec3& tx,
                                 std::span<const geom::Vec3> rx_points,
                                 const em::AntennaPattern& tx_pattern,
                                 const em::AntennaPattern& rx_pattern,
                                 std::span<em::Cx> h_out) const {
  if (h_out.size() != rx_points.size()) {
    throw std::invalid_argument("BatchTracer: output size mismatch");
  }
  if (rx_points.empty()) return;
  SURFOS_TRACE_SPAN("sim.trace_batch.weighted");
  SURFOS_COUNT_SCHED("sim.rays.traces", rx_points.size());

  const auto images = images_of(tx);
  const std::size_t blocks = (rx_points.size() + W - 1) / W;
  util::parallel_for(0, blocks, [&](std::size_t b) {
    trace_block(tx, rx_points, b * W, images, tx_pattern, rx_pattern, h_out);
  });
}

std::vector<std::vector<geom::Vec3>> BatchTracer::images_of(
    const geom::Vec3& tx) const {
  // Receiver-independent, computed once per trace with the exact
  // Reflector::mirror arithmetic.
  const auto reflectors = environment_->reflectors();
  std::vector<std::vector<geom::Vec3>> images(sequences_.size());
  for (std::size_t s = 0; s < sequences_.size(); ++s) {
    const auto& seq = sequences_[s];
    images[s].resize(seq.size());
    geom::Vec3 current = tx;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      current = reflectors[static_cast<std::size_t>(seq[i])].mirror(current);
      images[s][i] = current;
    }
  }
  return images;
}

void BatchTracer::any_path(const geom::Vec3& tx,
                           std::span<const geom::Vec3> rx_points,
                           const PathTest& test, std::span<char> out) const {
  if (out.size() != rx_points.size()) {
    throw std::invalid_argument("BatchTracer: output size mismatch");
  }
  if (rx_points.empty()) return;
  const auto images = images_of(tx);
  std::size_t max_order = 0;
  for (const auto& seq : sequences_) {
    max_order = std::max(max_order, seq.size());
  }
  const std::size_t blocks = (rx_points.size() + W - 1) / W;
  util::parallel_for(0, blocks, [&](std::size_t b) {
    const auto& kn = util::simd::ops();
    const double kTrue = mask_true();
    const std::size_t base = b * W;
    Lanes3 rxl;
    const std::size_t live = load_rx_block(rx_points, base, rxl);
    bool hit[W] = {};
    for (std::size_t l = 0; l < live; ++l) {
      const geom::Vec3 direct[] = {tx, rx_points[base + l]};
      hit[l] = test(direct);
    }
    std::vector<Lanes3> bounce(max_order);
    std::vector<geom::Vec3> path(max_order + 2);
    Lanes mask;
    for (std::size_t s = 0; s < sequences_.size(); ++s) {
      const std::size_t o = sequences_[s].size();
      for (std::size_t l = 0; l < W; ++l) mask.v[l] = kTrue;
      clip_sequence(kn, sequences_[s], planes_, images[s], rxl, bounce,
                    mask.v);
      for (std::size_t l = 0; l < live; ++l) {
        if (hit[l] || mask.v[l] == 0.0) continue;
        path[0] = tx;
        for (std::size_t i = 0; i < o; ++i) {
          path[i + 1] = {bounce[i].x.v[l], bounce[i].y.v[l], bounce[i].z.v[l]};
        }
        path[o + 1] = rx_points[base + l];
        hit[l] = test(std::span<const geom::Vec3>(path.data(), o + 2));
      }
    }
    for (std::size_t l = 0; l < live; ++l) out[base + l] = hit[l] ? 1 : 0;
  });
}

void BatchTracer::trace_block(
    const geom::Vec3& tx, std::span<const geom::Vec3> rx_points,
    std::size_t base, std::span<const std::vector<geom::Vec3>> images,
    const em::AntennaPattern& tx_pattern, const em::AntennaPattern& rx_pattern,
    std::span<em::Cx> h_out) const {
  const auto& kn = util::simd::ops();
  const double kTrue = mask_true();
  const double min2 = options_.min_path_gain * options_.min_path_gain;
  const double k = em::wavenumber(frequency_hz_);
  const double lam4pi = em::wavelength(frequency_hz_) / (4.0 * M_PI);

  Lanes3 txl, rxl;
  const std::size_t live = load_rx_block(rx_points, base, rxl);
  for (std::size_t l = 0; l < W; ++l) {
    txl.x.v[l] = tx.x;
    txl.y.v[l] = tx.y;
    txl.z.v[l] = tx.z;
  }

  std::size_t max_order = 0;
  for (const auto& seq : sequences_) max_order = std::max(max_order, seq.size());
  std::vector<Lanes3> bounce(max_order);
  std::vector<Lanes3> legdir(max_order + 1);
  std::vector<double> ex(max_order * W), ey(max_order * W), ez(max_order * W);

  Lanes acc_re, acc_im, zeros;
  Lanes mask, d, len, t_re, t_im, g_re, g_im, gt, gr, wgt, cosi, r_re, r_im;
  Lanes3 u;

  // --- direct path ---------------------------------------------------------
  for (std::size_t l = 0; l < W; ++l) mask.v[l] = kTrue;
  kn.dist_dirs(txl.x.v, txl.y.v, txl.z.v, rxl.x.v, rxl.y.v, rxl.z.v, d.v,
               u.x.v, u.y.v, u.z.v, W);
  // d >= 1e-6 as d^2 >= 1e-12 (mask_norm_ge is a complex-norm compare).
  kn.mask_norm_ge(d.v, zeros.v, 1e-12, mask.v);
  kn.seg_transmission(&tris_, txl.x.v, txl.y.v, txl.z.v, rxl.x.v, rxl.y.v,
                      rxl.z.v, zeros.v, zeros.v, zeros.v, 0, kExcludeRadius,
                      t_re.v, t_im.v);
  kn.mask_norm_ge(t_re.v, t_im.v, 1e-30, mask.v);
  kn.freespace_mul(lam4pi, k, d.v, t_re.v, t_im.v);
  kn.mask_norm_ge(t_re.v, t_im.v, min2, mask.v);
  // u = (rx - tx)/d is both the departure and the arrival direction.
  tx_pattern.amplitude_gain_batch(u.x.v, u.y.v, u.z.v, 1.0, gt.v, W);
  rx_pattern.amplitude_gain_batch(u.x.v, u.y.v, u.z.v, -1.0, gr.v, W);
  for (std::size_t l = 0; l < W; ++l) wgt.v[l] = gt.v[l] * gr.v[l];
  kn.masked_accum(mask.v, t_re.v, t_im.v, wgt.v, acc_re.v, acc_im.v);

  // --- reflected paths -----------------------------------------------------
  for (std::size_t s = 0; s < sequences_.size(); ++s) {
    const auto& seq = sequences_[s];
    const std::size_t o = seq.size();
    for (std::size_t l = 0; l < W; ++l) mask.v[l] = kTrue;

    clip_sequence(kn, seq, planes_, images[s], rxl, bounce, mask.v);
    if (!any_live(mask.v)) continue;

    // Exclusion points (point-major): every bounce of this sequence, so
    // the reflecting walls are not double-counted as penetrations.
    for (std::size_t e = 0; e < o; ++e) {
      for (std::size_t l = 0; l < W; ++l) {
        ex[e * W + l] = bounce[e].x.v[l];
        ey[e * W + l] = bounce[e].y.v[l];
        ez[e * W + l] = bounce[e].z.v[l];
      }
    }

    // Legs: tx -> b0 -> ... -> b_{o-1} -> rx. Accumulate unfolded length
    // and the per-leg transmission product.
    for (std::size_t l = 0; l < W; ++l) {
      len.v[l] = 0.0;
      g_re.v[l] = 1.0;
      g_im.v[l] = 0.0;
    }
    for (std::size_t leg = 0; leg <= o; ++leg) {
      const double* fx = leg == 0 ? txl.x.v : bounce[leg - 1].x.v;
      const double* fy = leg == 0 ? txl.y.v : bounce[leg - 1].y.v;
      const double* fz = leg == 0 ? txl.z.v : bounce[leg - 1].z.v;
      const double* ox = leg == o ? rxl.x.v : bounce[leg].x.v;
      const double* oy = leg == o ? rxl.y.v : bounce[leg].y.v;
      const double* oz = leg == o ? rxl.z.v : bounce[leg].z.v;
      kn.dist_dirs(fx, fy, fz, ox, oy, oz, d.v, legdir[leg].x.v,
                   legdir[leg].y.v, legdir[leg].z.v, W);
      for (std::size_t l = 0; l < W; ++l) len.v[l] += d.v[l];
      kn.seg_transmission(&tris_, fx, fy, fz, ox, oy, oz, ex.data(),
                          ey.data(), ez.data(), o, kExcludeRadius, t_re.v,
                          t_im.v);
      kn.mask_norm_ge(t_re.v, t_im.v, 1e-30, mask.v);
      for (std::size_t l = 0; l < W; ++l) {
        const double pr = g_re.v[l], pi = g_im.v[l];
        g_re.v[l] = pr * t_re.v[l] - pi * t_im.v[l];
        g_im.v[l] = pr * t_im.v[l] + pi * t_re.v[l];
      }
    }

    // Fresnel reflection coefficient per bounce; the incidence cosine is
    // taken directly (no acos/cos round trip, see header note).
    for (std::size_t i = 0; i < o; ++i) {
      const auto& pl = planes_[static_cast<std::size_t>(seq[i])];
      for (std::size_t l = 0; l < W; ++l) {
        const double dn = legdir[i].x.v[l] * pl.nx + legdir[i].y.v[l] * pl.ny +
                          legdir[i].z.v[l] * pl.nz;
        cosi.v[l] = std::fmin(1.0, std::fabs(dn));
      }
      kn.fresnel_reflect(&reflector_slab_[static_cast<std::size_t>(seq[i])],
                         cosi.v, r_re.v, r_im.v, W);
      for (std::size_t l = 0; l < W; ++l) {
        const double pr = g_re.v[l], pi = g_im.v[l];
        g_re.v[l] = pr * r_re.v[l] - pi * r_im.v[l];
        g_im.v[l] = pr * r_im.v[l] + pi * r_re.v[l];
      }
    }

    kn.freespace_mul(lam4pi, k, len.v, g_re.v, g_im.v);
    kn.mask_norm_ge(g_re.v, g_im.v, min2, mask.v);
    if (!any_live(mask.v)) continue;

    tx_pattern.amplitude_gain_batch(legdir[0].x.v, legdir[0].y.v,
                                    legdir[0].z.v, 1.0, gt.v, W);
    rx_pattern.amplitude_gain_batch(legdir[o].x.v, legdir[o].y.v,
                                    legdir[o].z.v, -1.0, gr.v, W);
    for (std::size_t l = 0; l < W; ++l) wgt.v[l] = gt.v[l] * gr.v[l];
    kn.masked_accum(mask.v, g_re.v, g_im.v, wgt.v, acc_re.v, acc_im.v);
  }

  for (std::size_t l = 0; l < live; ++l) {
    h_out[base + l] = em::Cx{acc_re.v[l], acc_im.v[l]};
  }
}

}  // namespace surfos::sim
