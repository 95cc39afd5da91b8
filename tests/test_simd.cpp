// SIMD backend contract: every vector backend must agree BIT-EXACTLY with
// the scalar reference backend on every kernel — including tail lanes
// (n not a multiple of kWidth), unaligned operand pointers, and the
// composed channel/orchestrator results — and the SURFOS_SIMD override
// machinery must select what it claims.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "em/material.hpp"
#include "em/propagation.hpp"
#include "geom/frame.hpp"
#include "hal/clock.hpp"
#include "hal/driver.hpp"
#include "hal/registry.hpp"
#include "orch/orchestrator.hpp"
#include "sim/channel.hpp"
#include "sim/environment.hpp"
#include "sim/floorplan.hpp"
#include "sim/raytracer.hpp"
#include "surface/panel.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace surfos {
namespace {

namespace simd = util::simd;
constexpr std::size_t W = simd::kWidth;

/// Deterministic value fill (no libc rand): x in roughly [-1.5, 1.5].
double synth(std::size_t i, double salt) {
  return 1.5 * std::sin(0.7 * static_cast<double>(i) + salt);
}

simd::AlignedVec filled(std::size_t n, double salt) {
  simd::AlignedVec v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = synth(i, salt);
  return v;
}

/// Restores the dispatcher's default backend when a test body returns.
struct BackendGuard {
  ~BackendGuard() { simd::reset_backend(); }
};

// --- kernel-level agreement --------------------------------------------------

/// Runs `body(ops)` for the scalar table and one vector table, asserting the
/// outputs the body collects are bitwise equal. `n` covers both a full
/// multiple of the lane width and a ragged tail; `offset` shifts every
/// operand pointer off 64-byte alignment.
template <class Body>
void expect_backends_agree(const Body& body) {
  const simd::Ops* scalar = simd::ops_for(simd::Backend::kScalar);
  ASSERT_NE(scalar, nullptr);
  for (const simd::Backend b : simd::available_backends()) {
    if (b == simd::Backend::kScalar) continue;
    const simd::Ops* vec = simd::ops_for(b);
    ASSERT_NE(vec, nullptr);
    for (const std::size_t n : {W, std::size_t{13}, std::size_t{1}}) {
      for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
        const std::vector<double> got_scalar = body(*scalar, n, offset);
        const std::vector<double> got_vec = body(*vec, n, offset);
        ASSERT_EQ(got_scalar.size(), got_vec.size());
        for (std::size_t i = 0; i < got_scalar.size(); ++i) {
          EXPECT_EQ(got_scalar[i], got_vec[i])
              << simd::backend_name(b) << " n=" << n << " offset=" << offset
              << " slot " << i;
        }
      }
    }
  }
}

TEST(SimdKernels, TranscendentalsBitwiseAcrossBackends) {
  expect_backends_agree([](const simd::Ops& k, std::size_t n,
                           std::size_t off) {
    // Phases at the magnitude the channel really uses: k*d ~ 1e4.
    simd::AlignedVec x(n + off);
    for (std::size_t i = 0; i < n; ++i) {
      x[off + i] = 1.0e4 * (0.5 + synth(i, 0.1));
    }
    simd::AlignedVec s(n + off), c(n + off), e(n + off), pr(n + off),
        pi(n + off), amp(n + off);
    for (std::size_t i = 0; i < n; ++i) amp[off + i] = 1.0 + synth(i, 0.4);
    k.sincos(x.data() + off, s.data() + off, c.data() + off, n);
    simd::AlignedVec xs(n + off);
    for (std::size_t i = 0; i < n; ++i) xs[off + i] = synth(i, 0.2) - 1.0;
    k.exp(xs.data() + off, e.data() + off, n);
    k.polar(amp.data() + off, 0.75, x.data() + off, pr.data() + off,
            pi.data() + off, n);
    std::vector<double> out;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(s[off + i]);
      out.push_back(c[off + i]);
      out.push_back(e[off + i]);
      out.push_back(pr[off + i]);
      out.push_back(pi[off + i]);
    }
    return out;
  });
}

TEST(SimdKernels, ComplexArithmeticBitwiseAcrossBackends) {
  expect_backends_agree([](const simd::Ops& k, std::size_t n,
                           std::size_t off) {
    auto ar = filled(n + off, 0.1), ai = filled(n + off, 0.2);
    auto br = filled(n + off, 0.3), bi = filled(n + off, 0.4);
    auto cr = filled(n + off, 0.5), ci = filled(n + off, 0.6);
    auto w = filled(n + off, 0.7);
    simd::AlignedVec o_re(n + off), o_im(n + off);
    std::vector<double> out;

    k.cmul(ar.data() + off, ai.data() + off, br.data() + off, bi.data() + off,
           o_re.data() + off, o_im.data() + off, n);
    k.cmul_accum(cr.data() + off, ci.data() + off, br.data() + off,
                 bi.data() + off, o_re.data() + off, o_im.data() + off, n);
    k.cscale(o_re.data() + off, o_im.data() + off, 0.8, -0.6, n);
    k.rscale_mul(o_re.data() + off, o_im.data() + off, w.data() + off, n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(o_re[off + i]);
      out.push_back(o_im[off + i]);
    }

    double dot[2];
    k.cdot3(ar.data() + off, ai.data() + off, br.data() + off,
            bi.data() + off, cr.data() + off, ci.data() + off, n, dot);
    out.push_back(dot[0]);
    out.push_back(dot[1]);

    simd::AlignedVec wr(n + off), wi(n + off);
    k.cdot3_partials(ar.data() + off, ai.data() + off, br.data() + off,
                     bi.data() + off, cr.data() + off, ci.data() + off,
                     wr.data() + off, wi.data() + off, /*accumulate_w=*/0, n,
                     dot);
    out.push_back(dot[0]);
    out.push_back(dot[1]);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(wr[off + i]);
      out.push_back(wi[off + i]);
    }

    out.push_back(k.norm_sum(ar.data() + off, ai.data() + off, n));
    return out;
  });
}

TEST(SimdKernels, MatvecBitwiseAcrossBackends) {
  const simd::Ops* scalar = simd::ops_for(simd::Backend::kScalar);
  ASSERT_NE(scalar, nullptr);
  const std::size_t rows = 5, cols = 16, stride = 16;
  const auto m_re = filled(rows * stride, 0.11);
  const auto m_im = filled(rows * stride, 0.22);
  const auto xr = filled(cols, 0.33), xi = filled(cols, 0.44);
  const auto vr = filled(rows, 0.55), vi = filled(rows, 0.66);

  const auto run = [&](const simd::Ops& k) {
    simd::AlignedVec yr(rows), yi(rows), tr(cols), ti(cols);
    k.cmatvec(m_re.data(), m_im.data(), rows, cols, stride, xr.data(),
              xi.data(), yr.data(), yi.data());
    k.cmatvec_t(m_re.data(), m_im.data(), rows, cols, stride, vr.data(),
                vi.data(), tr.data(), ti.data());
    std::vector<double> out(yr.begin(), yr.end());
    out.insert(out.end(), yi.begin(), yi.end());
    out.insert(out.end(), tr.begin(), tr.end());
    out.insert(out.end(), ti.begin(), ti.end());
    return out;
  };

  const auto ref = run(*scalar);
  for (const simd::Backend b : simd::available_backends()) {
    if (b == simd::Backend::kScalar) continue;
    EXPECT_EQ(ref, run(*simd::ops_for(b))) << simd::backend_name(b);
  }
}

TEST(SimdKernels, PowerGradientBitwiseAcrossBackends) {
  const simd::Ops* scalar = simd::ops_for(simd::Backend::kScalar);
  ASSERT_NE(scalar, nullptr);
  // Lengths with ragged tails on both sides of whole blocks, and one
  // unaligned offset for every operand.
  const auto run = [](const simd::Ops& k, std::size_t n, std::size_t off) {
    const auto cr = filled(n + off, 0.1), ci = filled(n + off, 0.2);
    const auto dr = filled(n + off, 0.3), di = filled(n + off, 0.4);
    auto grad = filled(n + off, 0.5);
    k.power_grad_accum(cr.data() + off, ci.data() + off, dr.data() + off,
                       di.data() + off, 0.7, -0.3, 2.5, grad.data() + off, n);
    k.power_grad_accum(dr.data() + off, di.data() + off, cr.data() + off,
                       ci.data() + off, -1.1, 0.9, -0.125, grad.data() + off,
                       n);
    return std::vector<double>(grad.begin() + off, grad.end());
  };
  for (const simd::Backend b : simd::available_backends()) {
    if (b == simd::Backend::kScalar) continue;
    for (const std::size_t n : {1, 3, 7, 9, 13, 21, 64, 67}) {
      for (const std::size_t off : {std::size_t{0}, std::size_t{1}}) {
        EXPECT_EQ(run(*scalar, n, off), run(*simd::ops_for(b), n, off))
            << simd::backend_name(b) << " n=" << n << " offset=" << off;
      }
    }
  }
  // The scalar reference is the objective's per-element formula, t = jc * d.
  const auto got = run(*scalar, 13, 0);
  const auto cr = filled(13, 0.1), ci = filled(13, 0.2);
  const auto dr = filled(13, 0.3), di = filled(13, 0.4);
  auto want = filled(13, 0.5);
  const auto formula = [](const simd::AlignedVec& jr, const simd::AlignedVec& ji,
                          const simd::AlignedVec& br, const simd::AlignedVec& bi,
                          double hr, double hi, double scale,
                          simd::AlignedVec& g) {
    for (std::size_t e = 0; e < g.size(); ++e) {
      const double t_re = jr[e] * br[e] - ji[e] * bi[e];
      const double t_im = jr[e] * bi[e] + ji[e] * br[e];
      g[e] += scale * (hr * t_re - (-hi) * t_im);
    }
  };
  formula(cr, ci, dr, di, 0.7, -0.3, 2.5, want);
  formula(dr, di, cr, ci, -1.1, 0.9, -0.125, want);
  EXPECT_EQ(got, std::vector<double>(want.begin(), want.end()));
}

/// The kernels' in-memory "true": an all-ones bit pattern.
double lane_true() {
  const std::uint64_t bits = ~std::uint64_t{0};
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// Lane l of `pl` = the rectangle of `frame` with the given half extents.
void set_lane(simd::PlaneRectLanes& pl, std::size_t l, const geom::Frame& frame,
              double half_u, double half_v) {
  pl.ox[l] = frame.origin().x;
  pl.oy[l] = frame.origin().y;
  pl.oz[l] = frame.origin().z;
  pl.nx[l] = frame.normal().x;
  pl.ny[l] = frame.normal().y;
  pl.nz[l] = frame.normal().z;
  pl.ux[l] = frame.u().x;
  pl.uy[l] = frame.u().y;
  pl.uz[l] = frame.u().z;
  pl.vx[l] = frame.v().x;
  pl.vy[l] = frame.v().y;
  pl.vz[l] = frame.v().z;
  pl.half_u[l] = half_u;
  pl.half_v[l] = half_v;
}

TEST(SimdKernels, GeometryAndEmBitwiseAcrossBackends) {
  expect_backends_agree([](const simd::Ops& k, std::size_t n,
                           std::size_t off) {
    auto px = filled(n + off, 1.1), py = filled(n + off, 1.2),
         pz = filled(n + off, 1.3);
    auto qx = filled(n + off, 2.1), qy = filled(n + off, 2.2),
         qz = filled(n + off, 2.3);
    simd::AlignedVec d(n + off), ux(n + off), uy(n + off), uz(n + off);
    std::vector<double> out;

    k.dist_dirs(px.data() + off, py.data() + off, pz.data() + off,
                qx.data() + off, qy.data() + off, qz.data() + off,
                d.data() + off, ux.data() + off, uy.data() + off,
                uz.data() + off, n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(d[off + i]);
      out.push_back(ux[off + i]);
      out.push_back(uy[off + i]);
      out.push_back(uz[off + i]);
    }

    const simd::SlabConsts slab{5.24, -0.55, 2.4};
    simd::AlignedVec cosi(n + off), rr(n + off), ri(n + off), tr(n + off),
        ti(n + off);
    for (std::size_t i = 0; i < n; ++i) {
      cosi[off + i] = 0.05 + 0.9 * std::fabs(synth(i, 3.3)) / 1.5;
    }
    k.fresnel_transmit(&slab, cosi.data() + off, tr.data() + off,
                       ti.data() + off, n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(tr[off + i]);
      out.push_back(ti[off + i]);
    }

    // Block kernels with per-lane parameters: every lane its own slab, and
    // its own plane, image and target.
    simd::SlabLanes slabs;
    simd::PlaneRectLanes planes;
    alignas(64) double c[W], fr[W], fi[W], ix[W], iy[W], iz[W], tx[W], ty[W],
        tz[W], hx[W], hy[W], hz[W], m[W];
    for (std::size_t l = 0; l < W; ++l) {
      slabs.eps_re[l] = 3.0 + std::fabs(synth(l + n, 4.1));
      slabs.eps_im[l] = -0.4 * std::fabs(synth(l + n, 4.2));
      slabs.k0t[l] = 1.0 + std::fabs(synth(l + n, 4.3));
      c[l] = 0.05 + 0.9 * std::fabs(synth(l + n, 4.4)) / 1.5;
      const geom::Frame frame(
          {synth(l, 5.1), synth(l, 5.2), synth(l, 5.3)},
          geom::Vec3{synth(l, 5.4), synth(l, 5.5), 0.3}.normalized());
      set_lane(planes, l, frame, 0.8 + 0.1 * static_cast<double>(l), 1.1);
      const geom::Vec3 img = frame.origin() + frame.normal() * 1.7 +
                             frame.u() * synth(l + n, 5.6);
      const geom::Vec3 tgt = frame.origin() - frame.normal() * 0.9 +
                             frame.v() * synth(l + n, 5.7);
      ix[l] = img.x, iy[l] = img.y, iz[l] = img.z;
      tx[l] = tgt.x, ty[l] = tgt.y, tz[l] = tgt.z;
      m[l] = lane_true();
    }
    k.fresnel_reflect_lanes(&slabs, c, fr, fi);
    k.plane_clip_lanes(&planes, ix, iy, iz, tx, ty, tz, hx, hy, hz, m);
    for (std::size_t l = 0; l < W; ++l) {
      out.push_back(fr[l]);
      out.push_back(fi[l]);
      out.push_back(hx[l]);
      out.push_back(hy[l]);
      out.push_back(hz[l]);
      out.push_back(m[l] != 0.0 ? 1.0 : 0.0);
    }

    simd::AlignedVec hr(n + off), hi(n + off);
    const double wnum = em::wavenumber(28e9);
    k.hop_gain(px.data() + off, py.data() + off, pz.data() + off, 4.0, -3.0,
               2.5, 0.0, 0.0, 1.0, wnum, 2.5e-5, std::sqrt(4.0 * M_PI),
               hr.data() + off, hi.data() + off, ux.data() + off,
               uy.data() + off, uz.data() + off, n);
    k.pair_gain(px.data() + off, py.data() + off, pz.data() + off, 4.0, -3.0,
                2.5, 0.0, 0.0, 1.0, 0.6, -0.8, 0.0, wnum,
                em::wavelength(28e9), 2.5e-5, 2.5e-5, rr.data() + off,
                ri.data() + off, n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(hr[off + i]);
      out.push_back(hi[off + i]);
      out.push_back(ux[off + i]);
      out.push_back(uy[off + i]);
      out.push_back(uz[off + i]);
      out.push_back(rr[off + i]);
      out.push_back(ri[off + i]);
    }

    k.sector_gain(0.0, 0.0, 1.0, -1.0, 0.5, 4.0, 0.3, ux.data() + off,
                  uy.data() + off, uz.data() + off, hr.data() + off, n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(hr[off + i]);
    return out;
  });
}

TEST(SimdKernels, PerLaneKernelsMatchTheUniformFormula) {
  // A block whose lanes share one plane and image clips like
  // Reflector::segment_plane_point, bit for bit; a mixed block gives each
  // lane what a block of that lane's parameters alone gives it.
  const em::MaterialDb materials = em::MaterialDb::standard();
  const double freq = 28e9;
  for (const simd::Backend b : simd::available_backends()) {
    const simd::Ops& k = *simd::ops_for(b);
    std::vector<sim::Reflector> reflectors;
    std::vector<geom::Vec3> images;
    for (std::size_t r = 0; r < W; ++r) {
      sim::Reflector refl;
      refl.frame = geom::Frame(
          {synth(r, 6.1), synth(r, 6.2), 1.0 + synth(r, 6.3)},
          geom::Vec3{synth(r, 6.4), 0.5, synth(r, 6.5)}.normalized());
      refl.half_u = 0.8 + 0.2 * static_cast<double>(r % 3);
      refl.half_v = 1.2;
      refl.material_id = static_cast<int>(r % materials.size());
      reflectors.push_back(refl);
      images.push_back(refl.frame.origin() + refl.frame.normal() * 2.0 +
                       refl.frame.u() * (0.2 * synth(r, 6.6)));
    }
    const auto targets_for = [&](std::size_t r, double* tx, double* ty,
                                 double* tz) {
      for (std::size_t l = 0; l < W; ++l) {
        // Lanes on both sides of the plane, inside and outside the
        // rectangle.
        const geom::Frame& f = reflectors[r].frame;
        const geom::Vec3 t = f.origin() +
                             f.normal() * (l % 4 == 3 ? 0.5 : -1.3) +
                             f.u() * (0.9 * synth(l + r, 6.7)) +
                             f.v() * (1.4 * synth(l + r, 6.8));
        tx[l] = t.x, ty[l] = t.y, tz[l] = t.z;
      }
    };

    // Uniform blocks against the scalar formula.
    alignas(64) double ix[W], iy[W], iz[W], tx[W], ty[W], tz[W], px[W],
        py[W], pz[W], m[W];
    std::vector<std::vector<double>> uniform_p(W), uniform_fresnel(W);
    alignas(64) double cosi[W], fr[W], fi[W];
    for (std::size_t l = 0; l < W; ++l) {
      cosi[l] = 0.02 + 0.97 * static_cast<double>(l) / (W - 1);
    }
    for (std::size_t r = 0; r < W; ++r) {
      simd::PlaneRectLanes pl;
      for (std::size_t l = 0; l < W; ++l) {
        set_lane(pl, l, reflectors[r].frame, reflectors[r].half_u,
                 reflectors[r].half_v);
        ix[l] = images[r].x, iy[l] = images[r].y, iz[l] = images[r].z;
        m[l] = lane_true();
      }
      targets_for(r, tx, ty, tz);
      k.plane_clip_lanes(&pl, ix, iy, iz, tx, ty, tz, px, py, pz, m);
      std::size_t valid = 0;
      for (std::size_t l = 0; l < W; ++l) {
        const auto want = reflectors[r].segment_plane_point(
            images[r], {tx[l], ty[l], tz[l]});
        ASSERT_EQ(want.has_value(), m[l] != 0.0)
            << simd::backend_name(b) << " plane " << r << " lane " << l;
        if (!want) continue;
        ++valid;
        EXPECT_EQ(px[l], want->x);
        EXPECT_EQ(py[l], want->y);
        EXPECT_EQ(pz[l], want->z);
      }
      EXPECT_GT(valid, 0u) << "plane " << r;
      EXPECT_LT(valid, W) << "plane " << r;
      uniform_p[r].assign({px[r], py[r], pz[r], m[r]});

      // Fresnel: one slab in every lane matches em::reflection_coefficient
      // to the kernel's ULP-level tolerance (kernel exp/sincos, no acos).
      const em::Material& mat = materials.get(reflectors[r].material_id);
      const simd::SlabConsts one = em::slab_consts(mat, freq);
      simd::SlabLanes slabs;
      for (std::size_t l = 0; l < W; ++l) {
        slabs.eps_re[l] = one.eps_re;
        slabs.eps_im[l] = one.eps_im;
        slabs.k0t[l] = one.k0t;
      }
      k.fresnel_reflect_lanes(&slabs, cosi, fr, fi);
      for (std::size_t l = 0; l < W; ++l) {
        const std::complex<double> want =
            em::reflection_coefficient(mat, freq, std::acos(cosi[l]));
        EXPECT_NEAR(fr[l], want.real(), 1e-12) << mat.name << " lane " << l;
        EXPECT_NEAR(fi[l], want.imag(), 1e-12) << mat.name << " lane " << l;
      }
      uniform_fresnel[r].assign({fr[r], fi[r]});
    }

    // A mixed block: lane l carries plane/slab l and gives the bits the
    // uniform block of plane/slab l gave its lane l.
    simd::PlaneRectLanes pl;
    simd::SlabLanes slabs;
    for (std::size_t l = 0; l < W; ++l) {
      set_lane(pl, l, reflectors[l].frame, reflectors[l].half_u,
               reflectors[l].half_v);
      ix[l] = images[l].x, iy[l] = images[l].y, iz[l] = images[l].z;
      alignas(64) double lx[W], ly[W], lz[W];
      targets_for(l, lx, ly, lz);
      tx[l] = lx[l], ty[l] = ly[l], tz[l] = lz[l];
      m[l] = lane_true();
      const simd::SlabConsts one =
          em::slab_consts(materials.get(reflectors[l].material_id), freq);
      slabs.eps_re[l] = one.eps_re;
      slabs.eps_im[l] = one.eps_im;
      slabs.k0t[l] = one.k0t;
    }
    k.plane_clip_lanes(&pl, ix, iy, iz, tx, ty, tz, px, py, pz, m);
    k.fresnel_reflect_lanes(&slabs, cosi, fr, fi);
    for (std::size_t l = 0; l < W; ++l) {
      EXPECT_EQ(m[l] != 0.0, uniform_p[l][3] != 0.0) << "lane " << l;
      if (m[l] != 0.0) {
        EXPECT_EQ(px[l], uniform_p[l][0]) << "lane " << l;
        EXPECT_EQ(py[l], uniform_p[l][1]) << "lane " << l;
        EXPECT_EQ(pz[l], uniform_p[l][2]) << "lane " << l;
      }
      EXPECT_EQ(fr[l], uniform_fresnel[l][0]) << "lane " << l;
      EXPECT_EQ(fi[l], uniform_fresnel[l][1]) << "lane " << l;
    }
  }
}

// --- override machinery ------------------------------------------------------

TEST(SimdDispatch, OverrideSelectsAndRestores) {
  BackendGuard guard;
  const auto backends = simd::available_backends();
  ASSERT_FALSE(backends.empty());
  bool has_scalar = false;
  for (const simd::Backend b : backends) {
    has_scalar |= (b == simd::Backend::kScalar);
    ASSERT_TRUE(simd::set_backend(b)) << simd::backend_name(b);
    EXPECT_EQ(simd::active_backend(), b);
    EXPECT_STREQ(simd::ops().name, simd::backend_name(b));
  }
  EXPECT_TRUE(has_scalar);  // the reference backend is always available

  // Unavailable backends are rejected without changing the active one.
  for (const simd::Backend b :
       {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kAvx512}) {
    if (simd::ops_for(b) == nullptr) {
      const simd::Backend before = simd::active_backend();
      EXPECT_FALSE(simd::set_backend(b));
      EXPECT_EQ(simd::active_backend(), before);
    }
  }
  simd::reset_backend();  // back to SURFOS_SIMD/CPU resolution
}

// --- channel-level agreement -------------------------------------------------

struct Scene {
  sim::CoverageRoomScenario scenario;
  std::unique_ptr<surface::SurfacePanel> panel_a;
  std::unique_ptr<surface::SurfacePanel> panel_b;
  std::vector<const surface::SurfacePanel*> panels;

  Scene() : scenario(sim::make_coverage_room(/*grid_n=*/5)) {
    surface::ElementDesign design;
    design.spacing_m = em::wavelength(em::band_center(scenario.band)) / 2.0;
    design.insertion_loss_db = 1.0;
    // 6x6 + 5x5: both a lane-multiple and a ragged element count, so the
    // channel path exercises padded tails on every backend.
    panel_a = std::make_unique<surface::SurfacePanel>(
        "simd-a", scenario.surface_pose, 6, 6, design,
        surface::OperationMode::kReflective,
        surface::Reconfigurability::kPassive,
        surface::ControlGranularity::kElement);
    const geom::Frame pose_b(
        scenario.surface_pose.origin() + geom::Vec3{0.9, 0.4, 0.0},
        scenario.surface_pose.normal() + geom::Vec3{0.2, 0.1, 0.0});
    panel_b = std::make_unique<surface::SurfacePanel>(
        "simd-b", pose_b, 5, 5, design, surface::OperationMode::kReflective,
        surface::Reconfigurability::kPassive,
        surface::ControlGranularity::kElement);
    panels = {panel_a.get(), panel_b.get()};
  }

  std::unique_ptr<sim::SceneChannel> make_channel() const {
    return std::make_unique<sim::SceneChannel>(
        scenario.environment.get(), em::band_center(scenario.band),
        scenario.ap(), panels, scenario.room_grid.points());
  }

  std::vector<surface::SurfaceConfig> focus_configs() const {
    const geom::Vec3 target =
        scenario.room_grid.point(scenario.room_grid.size() / 2);
    const double f = em::band_center(scenario.band);
    return {panel_a->focus_config(scenario.ap_position, target, f),
            panel_b->focus_config(scenario.ap_position, target, f)};
  }
};

struct ChannelSnapshot {
  std::vector<em::Cx> h_dir;
  std::vector<em::CxPlanes> f;
  std::vector<double> power;
  em::Cx h_eval;
  std::vector<em::CxPlanes> dh;
};

/// Same vector count, and every live element equal (padding lanes are
/// zero by the CxPlanes invariant and not compared).
bool same_planes(const std::vector<em::CxPlanes>& a,
                 const std::vector<em::CxPlanes>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t v = 0; v < a.size(); ++v) {
    if (a[v].size() != b[v].size()) return false;
    for (std::size_t e = 0; e < a[v].size(); ++e) {
      if (a[v].at(e) != b[v].at(e)) return false;
    }
  }
  return true;
}

ChannelSnapshot snapshot_under(simd::Backend b, const Scene& scene) {
  BackendGuard guard;
  EXPECT_TRUE(simd::set_backend(b));
  const auto channel = scene.make_channel();
  ChannelSnapshot snap;
  for (std::size_t j = 0; j < channel->rx_count(); ++j) {
    snap.h_dir.push_back(channel->direct(j));
  }
  for (std::size_t p = 0; p < channel->panel_count(); ++p) {
    snap.f.push_back(channel->tx_planes(p));
  }
  const auto configs = scene.focus_configs();
  snap.power = channel->power_map(configs);
  const auto coeffs = channel->coefficients_for(configs);
  snap.h_eval = channel->evaluate(0, coeffs);
  channel->evaluate_with_partials(0, coeffs, snap.h_eval, snap.dh);
  return snap;
}

TEST(SimdChannel, EndToEndBitIdenticalAcrossBackends) {
  const Scene scene;
  const auto ref = snapshot_under(simd::Backend::kScalar, scene);
  for (const simd::Backend b : simd::available_backends()) {
    if (b == simd::Backend::kScalar) continue;
    const auto got = snapshot_under(b, scene);
    EXPECT_EQ(ref.h_dir, got.h_dir) << simd::backend_name(b);
    EXPECT_TRUE(same_planes(ref.f, got.f)) << simd::backend_name(b);
    EXPECT_EQ(ref.power, got.power) << simd::backend_name(b);
    EXPECT_EQ(ref.h_eval, got.h_eval) << simd::backend_name(b);
    EXPECT_TRUE(same_planes(ref.dh, got.dh)) << simd::backend_name(b);
  }
}

TEST(SimdChannel, BatchDirectMatchesRayTracerToTolerance) {
  // The batched tracer reassociates and skips the acos/cos round trip, so
  // it is ULP-close — not bitwise — to the scalar RayTracer (DESIGN.md
  // tolerance policy). Relative 1e-9 is orders looser than observed and
  // orders tighter than any physical significance.
  const Scene scene;
  const auto channel = scene.make_channel();
  const sim::RayTracer tracer(scene.scenario.environment.get(),
                              em::band_center(scene.scenario.band));
  const em::AntennaPattern* tx_ant = scene.scenario.ap_antenna.get();
  for (std::size_t j = 0; j < channel->rx_count(); ++j) {
    em::Cx expected{};
    for (const auto& path :
         tracer.trace(scene.scenario.ap_position, channel->rx_point(j))) {
      // Same antenna weighting as the channel: TX gain on the departure
      // direction, (isotropic) RX gain on the reversed arrival direction.
      const double wt =
          tx_ant ? tx_ant->amplitude_gain(path.departure_direction()) : 1.0;
      expected += path.gain * wt;
    }
    const em::Cx got = channel->direct(j);
    EXPECT_NEAR(std::abs(got - expected), 0.0,
                1e-9 * std::max(1e-30, std::abs(expected)))
        << "rx " << j;
  }
}

// --- orchestrator-level agreement --------------------------------------------

orch::StepReport step_under(simd::Backend b) {
  BackendGuard guard;
  EXPECT_TRUE(simd::set_backend(b));
  sim::CoverageRoomScenario scene = sim::make_coverage_room(5);
  hal::SimClock clock;
  hal::DeviceRegistry registry;
  surface::ElementDesign d;
  d.spacing_m = em::wavelength(em::band_center(scene.band)) / 2.0;
  d.insertion_loss_db = 1.0;
  surface::SurfacePanel panel("wall", scene.surface_pose, 8, 8, d,
                              surface::OperationMode::kReflective,
                              surface::Reconfigurability::kProgrammable,
                              surface::ControlGranularity::kElement);
  registry.add_surface(std::make_unique<hal::ProgrammableSurfaceDriver>(
      "wall", &panel, hal::spec_for_panel(panel, scene.band), &clock));
  registry.add_endpoint({"laptop", hal::EndpointKind::kClient,
                         {1.2, 2.4, 1.0}, scene.band, std::nullopt});
  orch::OrchestratorContext context;
  context.environment = scene.environment.get();
  context.ap = scene.ap();
  context.default_band = scene.band;
  context.budget = scene.budget;
  orch::Orchestrator orchestrator(&registry, &clock, context, {});
  orchestrator.enhance_link({"laptop", 15.0, 50.0});
  return orchestrator.step();
}

TEST(SimdChannel, StepReportsIdenticalWithVectorPathOnAndOff) {
  const auto backends = simd::available_backends();
  const orch::StepReport ref = step_under(simd::Backend::kScalar);
  for (const simd::Backend b : backends) {
    if (b == simd::Backend::kScalar) continue;
    const orch::StepReport got = step_under(b);
    EXPECT_EQ(ref.assignment_count, got.assignment_count);
    EXPECT_EQ(ref.optimizations_run, got.optimizations_run);
    EXPECT_EQ(ref.starved, got.starved);
    ASSERT_EQ(ref.tasks.size(), got.tasks.size());
    for (std::size_t i = 0; i < ref.tasks.size(); ++i) {
      EXPECT_EQ(ref.tasks[i].id, got.tasks[i].id);
      EXPECT_EQ(ref.tasks[i].state, got.tasks[i].state);
      EXPECT_EQ(ref.tasks[i].goal_met, got.tasks[i].goal_met);
      ASSERT_EQ(ref.tasks[i].achieved.has_value(),
                got.tasks[i].achieved.has_value());
      if (ref.tasks[i].achieved) {
        // Bitwise: the measured metric flows through the vectorized
        // channel end to end.
        EXPECT_EQ(*ref.tasks[i].achieved, *got.tasks[i].achieved)
            << simd::backend_name(b);
      }
    }
    EXPECT_EQ(ref.trace.objective_evaluations,
              got.trace.objective_evaluations)
        << simd::backend_name(b);
    EXPECT_EQ(ref.trace.config_writes, got.trace.config_writes);
  }
}

}  // namespace
}  // namespace surfos
