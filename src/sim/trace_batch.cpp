#include "sim/trace_batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
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

/// Lane l of `out` = point l of `points`.
void gather(const geom::Vec3* const* points, Lanes3& out) {
  for (std::size_t l = 0; l < W; ++l) {
    out.x.v[l] = points[l]->x;
    out.y.v[l] = points[l]->y;
    out.z.v[l] = points[l]->z;
  }
}

}  // namespace

BatchTracer::BatchTracer(const Environment* environment, double frequency_hz,
                         const geom::Vec3& tx, TracerOptions options)
    : frequency_hz_(frequency_hz), options_(options), tx_(tx) {
  if (environment == nullptr) {
    throw std::invalid_argument("BatchTracer: null environment");
  }
  if (!environment->finalized()) {
    throw std::logic_error("BatchTracer: environment not finalized");
  }
  if (frequency_hz_ <= 0.0) {
    throw std::invalid_argument("BatchTracer: non-positive frequency");
  }

  // Slab constants per material, each computed once: a scene has many
  // faces and few materials.
  const em::MaterialDb& materials = environment->materials();
  std::vector<std::optional<util::simd::SlabConsts>> slabs(materials.size());
  const auto slab_of = [&](int id) {
    const em::Material& material = materials.get(id);  // throws if unknown
    auto& slab = slabs[static_cast<std::size_t>(id)];
    if (!slab) slab = em::slab_consts(material, frequency_hz_);
    return *slab;
  };

  // Scene triangles as coplanar pairs. Environment geometry is built
  // exclusively from add_quad/add_box, which emit two consecutive
  // triangles per planar face sharing plane and material.
  const auto& triangles = environment->mesh().triangles();
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
    tris_.slab[pr] = slab_of(tri.material_id);
  }

  // Reflector rectangles + their slab constants for the Fresnel kernel.
  const auto reflectors = environment->reflectors();
  planes_.resize(reflectors.size());
  for (std::size_t i = 0; i < reflectors.size(); ++i) {
    const Reflector& r = reflectors[i];
    planes_[i] = {r.frame.origin(), r.frame.normal(), r.frame.u(),
                  r.frame.v(),      r.half_u,         r.half_v,
                  slab_of(r.material_id)};
  }

  // Bounce-sequence enumeration, byte-for-byte the RayTracer scheme so the
  // path set and accumulation order match, with the TX image after each
  // bounce (the exact Reflector::mirror arithmetic).
  const int n = static_cast<int>(reflectors.size());
  if (n > 0) {
    orders_.reserve(
        static_cast<std::size_t>(std::max(0, options_.max_reflection_order)));
    std::vector<int> sequence;
    for (int order = 1; order <= options_.max_reflection_order; ++order) {
      Order seqs;
      seqs.order = static_cast<std::size_t>(order);
      sequence.assign(static_cast<std::size_t>(order), 0);
      const auto total = [&]() {
        double count = n;
        for (int i = 1; i < order; ++i) count *= (n - 1);
        return static_cast<long long>(count);
      }();
      seqs.reflector.reserve(static_cast<std::size_t>(total * order));
      seqs.image.reserve(static_cast<std::size_t>(total * order));
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
        if (!valid) continue;
        geom::Vec3 image = tx_;
        for (const int r : sequence) {
          image = reflectors[static_cast<std::size_t>(r)].mirror(image);
          seqs.reflector.push_back(r);
          seqs.image.push_back(image);
        }
        ++seqs.count;
      }
      if (seqs.count > 0) orders_.push_back(std::move(seqs));
    }
  }
}

BatchTracer::Clipped BatchTracer::clip(
    std::span<const geom::Vec3> rx_points) const {
  const std::size_t n_rx = rx_points.size();
  const std::size_t n_orders = orders_.size();

  // Per order, the items (sequence, receiver) in sequence-major order, so
  // each block of a many-receiver trace runs one sequence, as the receiver
  // lanes did. Each block writes its lanes' bounce points and clip mask.
  Clipped c;
  c.first_block.resize(n_orders + 1);
  c.first_point.resize(n_orders);
  std::size_t points = 0;
  for (std::size_t oi = 0; oi < n_orders; ++oi) {
    const std::size_t b = (n_rx * orders_[oi].count + W - 1) / W;
    c.first_point[oi] = points;
    points += b * orders_[oi].order * W;
    c.first_block[oi + 1] = c.first_block[oi] + b;
  }
  const std::size_t blocks = c.first_block[n_orders];
  c.x.resize(points);
  c.y.resize(points);
  c.z.resize(points);
  c.mask.resize(blocks * W);
  util::run_chunked(0, blocks, [&](std::size_t begin, std::size_t end) {
    const auto& kn = util::simd::ops();
    const double kTrue = mask_true();
    // The planes and TX images in the lanes, and which bounce of which
    // sequence each lane holds: a lane is refilled only when that changes.
    // The chunk's blocks of an order run bounce by bounce, so a
    // many-receiver trace, whose consecutive blocks share a sequence,
    // refills once per sequence and bounce.
    util::simd::PlaneRectLanes pl;
    Lanes3 img, tgt;
    const geom::Vec3* held[W] = {};
    for (std::size_t oi = 0; oi < n_orders; ++oi) {
      const std::size_t first = std::max(begin, c.first_block[oi]);
      const std::size_t last = std::min(end, c.first_block[oi + 1]);
      const Order& seqs = orders_[oi];
      const std::size_t o = seqs.order;
      const std::size_t items = n_rx * seqs.count;
      // Backward pass: the last reflector toward the receiver, then each
      // earlier one toward the bounce point after it.
      for (std::size_t i = o; i-- > 0;) {
        for (std::size_t job = first; job < last; ++job) {
          // Dead lanes repeat the block's first item and start masked out.
          const std::size_t base = (job - c.first_block[oi]) * W;
          double* lane_mask = c.mask.data() + job * W;
          std::size_t seq_of[W] = {};
          const geom::Vec3* target[W] = {};
          std::size_t k = base / n_rx;
          std::size_t r = base % n_rx;
          for (std::size_t l = 0; l < W; ++l) {
            const bool live = base + l < items;
            seq_of[l] = live ? k : seq_of[0];
            target[l] = live ? &rx_points[r] : target[0];
            if (++r == n_rx) r = 0, ++k;
          }
          const double *tgx, *tgy, *tgz;
          if (i + 1 == o) {
            for (std::size_t l = 0; l < W; ++l) {
              lane_mask[l] = base + l < items ? kTrue : 0.0;
            }
            gather(target, tgt);
            tgx = tgt.x.v;
            tgy = tgt.y.v;
            tgz = tgt.z.v;
          } else {
            const std::size_t next = c.point(oi, o, base, i + 1);
            tgx = c.x.data() + next;
            tgy = c.y.data() + next;
            tgz = c.z.data() + next;
          }
          for (std::size_t l = 0; l < W; ++l) {
            const std::size_t e = seq_of[l] * o + i;
            if (held[l] == &seqs.image[e]) continue;
            held[l] = &seqs.image[e];
            const Plane& p =
                planes_[static_cast<std::size_t>(seqs.reflector[e])];
            pl.ox[l] = p.origin.x;
            pl.oy[l] = p.origin.y;
            pl.oz[l] = p.origin.z;
            pl.nx[l] = p.normal.x;
            pl.ny[l] = p.normal.y;
            pl.nz[l] = p.normal.z;
            pl.ux[l] = p.u.x;
            pl.uy[l] = p.u.y;
            pl.uz[l] = p.u.z;
            pl.vx[l] = p.v.x;
            pl.vy[l] = p.v.y;
            pl.vz[l] = p.v.z;
            pl.half_u[l] = p.half_u;
            pl.half_v[l] = p.half_v;
            img.x.v[l] = seqs.image[e].x;
            img.y.v[l] = seqs.image[e].y;
            img.z.v[l] = seqs.image[e].z;
          }
          const std::size_t at = c.point(oi, o, base, i);
          kn.plane_clip_lanes(&pl, img.x.v, img.y.v, img.z.v, tgx, tgy, tgz,
                              c.x.data() + at, c.y.data() + at,
                              c.z.data() + at, lane_mask);
        }
      }
    }
  });
  return c;
}

BatchTracer::Survivors BatchTracer::compact(const Clipped& c,
                                            std::size_t n_rx) const {
  const std::size_t n_orders = orders_.size();
  Survivors s;
  s.orders.resize(n_orders);
  std::size_t out_blocks = 0;
  std::size_t out_points = 0;
  for (std::size_t oi = 0; oi < n_orders; ++oi) {
    Survivors::Range& range = s.orders[oi];
    for (std::size_t i = c.first_block[oi] * W; i < c.first_block[oi + 1] * W;
         ++i) {
      range.count += c.mask[i] != 0.0;
    }
    range.first_block = out_blocks;
    range.blocks = (range.count + W - 1) / W;
    range.first_point = out_points;
    out_blocks += range.blocks;
    out_points += range.blocks * orders_[oi].order * W;
  }
  s.rx.resize(out_blocks * W);
  s.seq.resize(out_blocks * W);
  s.x.resize(out_points);
  s.y.resize(out_points);
  s.z.resize(out_points);
  for (std::size_t oi = 0; oi < n_orders; ++oi) {
    const std::size_t o = orders_[oi].order;
    const Survivors::Range& range = s.orders[oi];
    // Survivor t takes the lane of item i = (sequence k, receiver r), or,
    // past the last survivor, the lane of its block's first survivor
    // (finite geometry, never read back).
    const auto place = [&](std::size_t t, std::size_t i, std::size_t k,
                           std::size_t r) {
      s.rx[range.first_block * W + t] = static_cast<std::uint32_t>(r);
      s.seq[range.first_block * W + t] = static_cast<std::uint32_t>(k);
      for (std::size_t e = 0; e < o; ++e) {
        const std::size_t from = c.point(oi, o, i, e);
        const std::size_t to = range.first_point + (t / W * o + e) * W + t % W;
        s.x[to] = c.x[from];
        s.y[to] = c.y[from];
        s.z[to] = c.z[from];
      }
    };
    std::size_t t = 0;
    std::size_t lead[3] = {};  // item, sequence, receiver of a block's first
    const std::size_t items = n_rx * orders_[oi].count;
    const double* mask = c.mask.data() + c.first_block[oi] * W;
    for (std::size_t i = 0, k = 0, r = 0; i < items; ++i) {
      if (mask[i] != 0.0) {
        if (t % W == 0) lead[0] = i, lead[1] = k, lead[2] = r;
        place(t++, i, k, r);
      }
      if (++r == n_rx) r = 0, ++k;
    }
    for (; t < range.blocks * W; ++t) place(t, lead[0], lead[1], lead[2]);
  }
  return s;
}

void BatchTracer::trace_weighted(std::span<const geom::Vec3> rx_points,
                                 const em::AntennaPattern& tx_pattern,
                                 const em::AntennaPattern& rx_pattern,
                                 std::span<em::Cx> h_out) const {
  if (h_out.size() != rx_points.size()) {
    throw std::invalid_argument("BatchTracer: output size mismatch");
  }
  if (rx_points.empty()) return;
  SURFOS_TRACE_SPAN("sim.trace_batch.weighted");
  SURFOS_COUNT_SCHED("sim.rays.traces", rx_points.size());

  const Survivors s = compact(clip(rx_points), rx_points.size());

  const double min2 = options_.min_path_gain * options_.min_path_gain;
  const double k = em::wavenumber(frequency_hz_);
  const double lam4pi = em::wavelength(frequency_hz_) / (4.0 * M_PI);
  Lanes3 txl;
  for (std::size_t l = 0; l < W; ++l) {
    txl.x.v[l] = tx_.x;
    txl.y.v[l] = tx_.y;
    txl.z.v[l] = tx_.z;
  }
  std::size_t max_order = 0;
  for (const Order& seqs : orders_) max_order = std::max(max_order, seqs.order);

  // Jobs: the direct path's receiver blocks, then every survivor block.
  // Each writes masked_accum's addend, (+0) + (mask ? g * w : +0), per lane:
  // direct terms per receiver, reflected ones per survivor lane.
  const std::size_t n_rx = rx_points.size();
  const std::size_t direct_blocks = (n_rx + W - 1) / W;
  std::vector<double> dir_re(direct_blocks * W), dir_im(direct_blocks * W);
  std::vector<double> term_re(s.rx.size()), term_im(s.rx.size());
  util::run_chunked(0, direct_blocks + s.rx.size() / W, [&](std::size_t begin,
                                                          std::size_t end) {
    const auto& kn = util::simd::ops();
    const double kTrue = mask_true();
    std::vector<Lanes3> legdir(max_order + 1);
    const geom::Vec3* points[W];
    Lanes3 rxl;
    Lanes mask, d, len, t_re, t_im, g_re, g_im, gt, gr, wgt, cosi, r_re, r_im;
    util::simd::SlabLanes slab;
    for (std::size_t job = begin; job < end; ++job) {
      for (std::size_t l = 0; l < W; ++l) mask.v[l] = kTrue;
      if (job < direct_blocks) {
        // --- direct path: one receiver per lane ----------------------------
        const std::size_t base = job * W;
        for (std::size_t l = 0; l < W; ++l) {
          points[l] = &rx_points[base + l < n_rx ? base + l : base];
        }
        gather(points, rxl);
        Lanes3& u = legdir[0];
        const Lanes zeros;
        kn.dist_dirs(txl.x.v, txl.y.v, txl.z.v, rxl.x.v, rxl.y.v, rxl.z.v,
                     d.v, u.x.v, u.y.v, u.z.v, W);
        // d >= 1e-6 as d^2 >= 1e-12 (mask_norm_ge is a complex-norm
        // compare).
        kn.mask_norm_ge(d.v, zeros.v, 1e-12, mask.v);
        kn.seg_transmission(&tris_, txl.x.v, txl.y.v, txl.z.v, rxl.x.v,
                            rxl.y.v, rxl.z.v, zeros.v, zeros.v, zeros.v, 0,
                            kExcludeRadius, t_re.v, t_im.v);
        kn.mask_norm_ge(t_re.v, t_im.v, 1e-30, mask.v);
        kn.freespace_mul(lam4pi, k, d.v, t_re.v, t_im.v);
        kn.mask_norm_ge(t_re.v, t_im.v, min2, mask.v);
        // u = (rx - tx)/d is both the departure and the arrival direction.
        tx_pattern.amplitude_gain_batch(u.x.v, u.y.v, u.z.v, 1.0, gt.v, W);
        rx_pattern.amplitude_gain_batch(u.x.v, u.y.v, u.z.v, -1.0, gr.v, W);
        for (std::size_t l = 0; l < W; ++l) wgt.v[l] = gt.v[l] * gr.v[l];
        kn.masked_accum(mask.v, t_re.v, t_im.v, wgt.v, dir_re.data() + base,
                        dir_im.data() + base);
        continue;
      }

      // --- reflected paths: one survivor block ---------------------------
      const std::size_t block = job - direct_blocks;
      std::size_t oi = 0;
      while (block >= s.orders[oi].first_block + s.orders[oi].blocks) ++oi;
      const Order& seqs = orders_[oi];
      const std::size_t o = seqs.order;
      const std::size_t base = block * W;
      for (std::size_t l = 0; l < W; ++l) points[l] = &rx_points[s.rx[base + l]];
      gather(points, rxl);
      // Bounce i of the block's lanes, which are also the exclusion points.
      const std::size_t at =
          s.orders[oi].first_point + (block - s.orders[oi].first_block) * o * W;
      const double* bx = s.x.data() + at;
      const double* by = s.y.data() + at;
      const double* bz = s.z.data() + at;
      for (std::size_t l = 0; l < W; ++l) {
        len.v[l] = 0.0;
        g_re.v[l] = 1.0;
        g_im.v[l] = 0.0;
      }

      // Legs: tx -> b0 -> ... -> b_{o-1} -> rx. Accumulate unfolded length
      // and the per-leg transmission product.
      for (std::size_t leg = 0; leg <= o; ++leg) {
        const double* fx = leg == 0 ? txl.x.v : bx + (leg - 1) * W;
        const double* fy = leg == 0 ? txl.y.v : by + (leg - 1) * W;
        const double* fz = leg == 0 ? txl.z.v : bz + (leg - 1) * W;
        const double* ox = leg == o ? rxl.x.v : bx + leg * W;
        const double* oy = leg == o ? rxl.y.v : by + leg * W;
        const double* oz = leg == o ? rxl.z.v : bz + leg * W;
        kn.dist_dirs(fx, fy, fz, ox, oy, oz, d.v, legdir[leg].x.v,
                     legdir[leg].y.v, legdir[leg].z.v, W);
        for (std::size_t l = 0; l < W; ++l) len.v[l] += d.v[l];
        kn.seg_transmission(&tris_, fx, fy, fz, ox, oy, oz, bx, by, bz, o,
                            kExcludeRadius, t_re.v, t_im.v);
        kn.mask_norm_ge(t_re.v, t_im.v, 1e-30, mask.v);
        for (std::size_t l = 0; l < W; ++l) {
          const double pr = g_re.v[l], pi = g_im.v[l];
          g_re.v[l] = pr * t_re.v[l] - pi * t_im.v[l];
          g_im.v[l] = pr * t_im.v[l] + pi * t_re.v[l];
        }
      }

      // Fresnel reflection coefficient per bounce, each lane against its
      // own reflector; the incidence cosine is taken directly (no acos/cos
      // round trip, see header note).
      for (std::size_t i = 0; i < o; ++i) {
        for (std::size_t l = 0; l < W; ++l) {
          const Plane& pl = planes_[static_cast<std::size_t>(
              seqs.reflector[s.seq[base + l] * o + i])];
          const double dn = legdir[i].x.v[l] * pl.normal.x +
                            legdir[i].y.v[l] * pl.normal.y +
                            legdir[i].z.v[l] * pl.normal.z;
          cosi.v[l] = std::fmin(1.0, std::fabs(dn));
          slab.eps_re[l] = pl.slab.eps_re;
          slab.eps_im[l] = pl.slab.eps_im;
          slab.k0t[l] = pl.slab.k0t;
        }
        kn.fresnel_reflect_lanes(&slab, cosi.v, r_re.v, r_im.v);
        for (std::size_t l = 0; l < W; ++l) {
          const double pr = g_re.v[l], pi = g_im.v[l];
          g_re.v[l] = pr * r_re.v[l] - pi * r_im.v[l];
          g_im.v[l] = pr * r_im.v[l] + pi * r_re.v[l];
        }
      }

      kn.freespace_mul(lam4pi, k, len.v, g_re.v, g_im.v);
      kn.mask_norm_ge(g_re.v, g_im.v, min2, mask.v);
      if (!any_live(mask.v)) continue;  // every term stays +0

      tx_pattern.amplitude_gain_batch(legdir[0].x.v, legdir[0].y.v,
                                      legdir[0].z.v, 1.0, gt.v, W);
      rx_pattern.amplitude_gain_batch(legdir[o].x.v, legdir[o].y.v,
                                      legdir[o].z.v, -1.0, gr.v, W);
      for (std::size_t l = 0; l < W; ++l) wgt.v[l] = gt.v[l] * gr.v[l];
      kn.masked_accum(mask.v, g_re.v, g_im.v, wgt.v, term_re.data() + base,
                      term_im.data() + base);
    }
  });

  // --- accumulate: h = ((0 + direct) + seq 0) + seq 1 ..., per receiver ---
  // The survivors come sequence-major within an order and orders ascend, so
  // one pass adds each receiver's terms in enumeration order. A sequence
  // the clip or a cut-off dropped adds nothing: its masked_accum addend
  // would be +0, and h + (+0) == h because h, a sum starting at +0, is
  // never -0.
  for (const Survivors::Range& range : s.orders) {
    for (std::size_t t = range.first_block * W;
         t < range.first_block * W + range.count; ++t) {
      dir_re[s.rx[t]] = dir_re[s.rx[t]] + term_re[t];
      dir_im[s.rx[t]] = dir_im[s.rx[t]] + term_im[t];
    }
  }
  for (std::size_t j = 0; j < n_rx; ++j) {
    h_out[j] = em::Cx{dir_re[j], dir_im[j]};
  }
}

void BatchTracer::any_path(std::span<const geom::Vec3> rx_points,
                           const PathTest& test, std::span<char> out) const {
  if (out.size() != rx_points.size()) {
    throw std::invalid_argument("BatchTracer: output size mismatch");
  }
  if (rx_points.empty()) return;
  const std::size_t n_rx = rx_points.size();
  const Clipped c = clip(rx_points);
  std::size_t max_order = 0;
  for (const Order& seqs : orders_) max_order = std::max(max_order, seqs.order);
  // Receiver j's paths in order: direct, then per order its sequences k,
  // each through the bounce points of item k * n_rx + j when the clip kept
  // it.
  util::run_chunked(0, n_rx, [&](std::size_t begin, std::size_t end) {
    std::vector<geom::Vec3> path(max_order + 2);
    path[0] = tx_;
    for (std::size_t j = begin; j < end; ++j) {
      path[1] = rx_points[j];
      bool hit = test(std::span<const geom::Vec3>(path.data(), 2));
      for (std::size_t oi = 0; oi < orders_.size() && !hit; ++oi) {
        const std::size_t o = orders_[oi].order;
        const double* mask = c.mask.data() + c.first_block[oi] * W;
        for (std::size_t k = 0; k < orders_[oi].count && !hit; ++k) {
          const std::size_t i = k * n_rx + j;
          if (mask[i] == 0.0) continue;
          for (std::size_t e = 0; e < o; ++e) {
            const std::size_t at = c.point(oi, o, i, e);
            path[e + 1] = {c.x[at], c.y[at], c.z[at]};
          }
          path[o + 1] = rx_points[j];
          hit = test(std::span<const geom::Vec3>(path.data(), o + 2));
        }
      }
      out[j] = hit ? 1 : 0;
    }
  });
}

}  // namespace surfos::sim
