// Pack-templated kernel bodies shared by every SIMD backend TU.
//
// Each backend defines a Pack type (8 doubles wide) and instantiates
// make_ops<Pack>() once. Because every backend runs the SAME kernel code
// at the SAME virtual width with the SAME horizontal-reduction tree, and
// the backend TUs are compiled with -ffp-contract=off, all backends are
// bit-identical; the scalar Pack is the reference implementation.
//
// Pack interface (static members):
//   W (== simd::kWidth), reg, mask
//   load/store (unaligned ok), set1, zero
//   add, sub, mul, div, sqrt_, abs_, neg, min_, max_
//   round_ne (round to nearest-even), floor_, exp2i (2^k for integral k)
//   xor_bits, and_bits, or_bits, andnot_bits (~a & b)
//   cmp_lt/le/gt/ge/eq -> mask; mand, mor; blend(m, a, b) = m ? a : b
//   any(mask); store_mask / load_mask (0.0 false, all-ones-bits true)
//
// Only included by the backend translation units.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/simd.hpp"

namespace surfos::util::simd::detail {

// Fixed pairwise reduction tree: identical on every backend regardless of
// how the register is held, because it always goes through memory.
template <class P>
inline double hsum(typename P::reg v) {
  static_assert(P::W == kWidth, "all backends share the virtual width");
  alignas(64) double b[P::W];
  P::store(b, v);
  return ((b[0] + b[1]) + (b[2] + b[3])) + ((b[4] + b[5]) + (b[6] + b[7]));
}

template <class P>
inline typename P::reg copysign_reg(typename P::reg x, typename P::reg y) {
  const typename P::reg sign = P::set1(-0.0);
  return P::or_bits(P::and_bits(y, sign), P::andnot_bits(sign, x));
}

// ---------------------------------------------------------------------------
// sin/cos: Cody-Waite pi/2 reduction + Cephes minimax polynomials on
// [-pi/4, pi/4]. Two-term reduction keeps ~1 ulp up to |x| ~ 1e6; channel
// phases (k * d) stay well below that.
// ---------------------------------------------------------------------------
template <class P>
inline void sincos_reg(typename P::reg x, typename P::reg& s_out,
                       typename P::reg& c_out) {
  using reg = typename P::reg;
  using mask = typename P::mask;
  const reg two_over_pi = P::set1(6.36619772367581382433e-01);
  const reg pio2_1 = P::set1(1.57079632673412561417e+00);
  const reg pio2_1t = P::set1(6.07710050650619224932e-11);

  const reg q = P::round_ne(P::mul(x, two_over_pi));
  // r = (x - q*pio2_1) - q*pio2_1t
  reg r = P::sub(x, P::mul(q, pio2_1));
  r = P::sub(r, P::mul(q, pio2_1t));

  // quadrant = q mod 4, computed in floating point (exact for |q| < 2^52)
  const reg qm = P::sub(q, P::mul(P::set1(4.0), P::floor_(P::mul(q, P::set1(0.25)))));
  const mask is1 = P::cmp_eq(qm, P::set1(1.0));
  const mask is2 = P::cmp_eq(qm, P::set1(2.0));
  const mask is3 = P::cmp_eq(qm, P::set1(3.0));

  const reg z = P::mul(r, r);
  // sin polynomial
  reg sp = P::set1(1.58962301576546568060e-10);
  sp = P::add(P::mul(sp, z), P::set1(-2.50507477628578072866e-8));
  sp = P::add(P::mul(sp, z), P::set1(2.75573136213857245213e-6));
  sp = P::add(P::mul(sp, z), P::set1(-1.98412698295895385996e-4));
  sp = P::add(P::mul(sp, z), P::set1(8.33333333332211858878e-3));
  sp = P::add(P::mul(sp, z), P::set1(-1.66666666666666307295e-1));
  const reg sin_r = P::add(r, P::mul(P::mul(r, z), sp));
  // cos polynomial
  reg cp = P::set1(-1.13585365213876817300e-11);
  cp = P::add(P::mul(cp, z), P::set1(2.08757008419747316778e-9));
  cp = P::add(P::mul(cp, z), P::set1(-2.75573141792967388112e-7));
  cp = P::add(P::mul(cp, z), P::set1(2.48015872888517179954e-5));
  cp = P::add(P::mul(cp, z), P::set1(-1.38888888888730564116e-3));
  cp = P::add(P::mul(cp, z), P::set1(4.16666666666665929218e-2));
  reg cos_r = P::sub(P::set1(1.0), P::mul(z, P::set1(0.5)));
  cos_r = P::add(cos_r, P::mul(P::mul(z, z), cp));

  // Quadrant selection: odd quadrants swap sin/cos; signs per quadrant.
  const mask swap = P::mor(is1, is3);
  reg s = P::blend(swap, cos_r, sin_r);
  reg c = P::blend(swap, sin_r, cos_r);
  const reg neg0 = P::set1(-0.0);
  const reg zero = P::zero();
  const reg ssign = P::blend(P::mor(is2, is3), neg0, zero);
  const reg csign = P::blend(P::mor(is1, is2), neg0, zero);
  s_out = P::xor_bits(s, ssign);
  c_out = P::xor_bits(c, csign);
}

// ---------------------------------------------------------------------------
// exp: Cephes rational approximation. result = 2^k * (1 + 2 px P / (Q - px P))
// Clamped: x < -708.396 -> +0 (matches the metal-slab decay underflow),
// x > 709.782 -> +inf.
// ---------------------------------------------------------------------------
template <class P>
inline typename P::reg exp_reg(typename P::reg x) {
  using reg = typename P::reg;
  const reg log2e = P::set1(1.4426950408889634073599);
  const reg c1 = P::set1(6.93145751953125e-1);
  const reg c2 = P::set1(1.42860682030941723212e-6);

  const reg k = P::round_ne(P::mul(x, log2e));
  reg px = P::sub(x, P::mul(k, c1));
  px = P::sub(px, P::mul(k, c2));
  const reg z = P::mul(px, px);

  reg p = P::set1(1.26177193074810590878e-4);
  p = P::add(P::mul(p, z), P::set1(3.02994407707441961300e-2));
  p = P::add(P::mul(p, z), P::set1(9.99999999999999999910e-1));
  p = P::mul(px, p);

  reg q = P::set1(3.00198505138664455042e-6);
  q = P::add(P::mul(q, z), P::set1(2.52448340349684104192e-3));
  q = P::add(P::mul(q, z), P::set1(2.27265548208155028766e-1));
  q = P::add(P::mul(q, z), P::set1(2.00000000000000000005e0));

  const reg e = P::add(P::set1(1.0), P::div(P::mul(P::set1(2.0), p), P::sub(q, p)));
  reg out = P::mul(e, P::exp2i(k));

  out = P::blend(P::cmp_lt(x, P::set1(-7.08396418532264106224e2)), P::zero(), out);
  out = P::blend(P::cmp_gt(x, P::set1(7.09782712893383996843e2)),
                 P::set1(std::numeric_limits<double>::infinity()), out);
  return out;
}

// Branchless complex sqrt (principal branch), needed by the Fresnel
// kernels: eps - sin^2 has non-positive imaginary part for lossy slabs.
template <class P>
inline void csqrt_reg(typename P::reg re, typename P::reg im,
                      typename P::reg& wr, typename P::reg& wi) {
  using reg = typename P::reg;
  const reg m = P::sqrt_(P::add(P::mul(re, re), P::mul(im, im)));
  const reg t = P::sqrt_(P::mul(P::set1(0.5), P::add(m, P::abs_(re))));
  const reg div = P::div(P::abs_(im), P::add(t, t));
  const auto re_pos = P::cmp_ge(re, P::zero());
  reg r = P::blend(re_pos, t, div);
  reg i = copysign_reg<P>(P::blend(re_pos, div, t), im);
  const auto zero_m = P::cmp_eq(t, P::zero());
  wr = P::blend(zero_m, P::zero(), r);
  wi = P::blend(zero_m, P::zero(), i);
}

// Complex divide with a fixed operation order (no range scaling; the
// Fresnel denominators are well-conditioned).
template <class P>
inline void cdiv_reg(typename P::reg ar, typename P::reg ai, typename P::reg br,
                     typename P::reg bi, typename P::reg& o_re,
                     typename P::reg& o_im) {
  using reg = typename P::reg;
  const reg d = P::add(P::mul(br, br), P::mul(bi, bi));
  o_re = P::div(P::add(P::mul(ar, br), P::mul(ai, bi)), d);
  o_im = P::div(P::sub(P::mul(ai, br), P::mul(ar, bi)), d);
}

// Shared slab response core: TE/TM amplitude coefficients and the
// internal propagation decay for one slab at cos(theta_i) per lane.
template <class P>
struct SlabRegs {
  typename P::reg te_r, te_i, tm_r, tm_i;   // interface coefficients
  typename P::reg dec_r, dec_i;             // exp(-j k0 t sqrt(eps - sin^2))
};

// The slab constants arrive as registers: broadcast for one slab, loaded
// per lane for the per-lane kernel; the arithmetic is the same either way.
template <class P>
inline SlabRegs<P> slab_core(typename P::reg eps_re, typename P::reg eps_im,
                             typename P::reg k0t, typename P::reg cosi) {
  using reg = typename P::reg;
  SlabRegs<P> out;
  const reg one = P::set1(1.0);
  const reg sin2 = P::sub(one, P::mul(cosi, cosi));
  const reg zr = P::sub(eps_re, sin2);
  const reg zi = eps_im;
  reg rr, ri;
  csqrt_reg<P>(zr, zi, rr, ri);
  // te = (cos - root) / (cos + root)
  cdiv_reg<P>(P::sub(cosi, rr), P::neg(ri), P::add(cosi, rr), ri, out.te_r,
              out.te_i);
  // tm = (eps cos - root) / (eps cos + root)
  const reg ecr = P::mul(eps_re, cosi);
  const reg eci = P::mul(eps_im, cosi);
  cdiv_reg<P>(P::sub(ecr, rr), P::sub(eci, ri), P::add(ecr, rr),
              P::add(eci, ri), out.tm_r, out.tm_i);
  // decay = exp(-j k0 t (rr + j ri)) = exp(k0 t ri) * e^{-j k0 t rr}
  const reg mag = exp_reg<P>(P::mul(k0t, ri));  // ri <= 0 for lossy slabs
  reg ph_s, ph_c;
  sincos_reg<P>(P::neg(P::mul(k0t, rr)), ph_s, ph_c);
  out.dec_r = P::mul(mag, ph_c);
  out.dec_i = P::mul(mag, ph_s);
  return out;
}

// out = mag * z / |z| with mag = sqrt(0.5 (|z_te|^2 + |z_tm|^2)), i.e. the
// power-average magnitude carried on the TE phase — the same convention as
// em::reflection_coefficient / transmission_coefficient, without the
// arg/polar round trip. Lanes where |z_te| == 0 produce exactly 0.
template <class P>
inline void avg_mag_on_te_phase(typename P::reg zte_r, typename P::reg zte_i,
                                typename P::reg ztm_r, typename P::reg ztm_i,
                                bool clamp_unit, typename P::reg& o_re,
                                typename P::reg& o_im) {
  using reg = typename P::reg;
  const reg n_te = P::add(P::mul(zte_r, zte_r), P::mul(zte_i, zte_i));
  const reg n_tm = P::add(P::mul(ztm_r, ztm_r), P::mul(ztm_i, ztm_i));
  reg mag = P::sqrt_(P::mul(P::set1(0.5), P::add(n_te, n_tm)));
  if (clamp_unit) mag = P::min_(mag, P::set1(1.0));
  reg scale = P::div(mag, P::sqrt_(n_te));
  scale = P::blend(P::cmp_gt(n_te, P::zero()), scale, P::zero());
  o_re = P::mul(zte_r, scale);
  o_im = P::mul(zte_i, scale);
}

template <class P>
inline void fresnel_transmit_reg(const SlabConsts* slab, typename P::reg cosi,
                                 typename P::reg& o_re, typename P::reg& o_im) {
  using reg = typename P::reg;
  const SlabRegs<P> s = slab_core<P>(P::set1(slab->eps_re),
                                     P::set1(slab->eps_im),
                                     P::set1(slab->k0t), cosi);
  const reg one = P::set1(1.0);
  // 1 - te^2, 1 - tm^2
  const reg te2_r = P::sub(P::mul(s.te_r, s.te_r), P::mul(s.te_i, s.te_i));
  const reg te2_i = P::add(P::mul(s.te_r, s.te_i), P::mul(s.te_i, s.te_r));
  const reg tm2_r = P::sub(P::mul(s.tm_r, s.tm_r), P::mul(s.tm_i, s.tm_i));
  const reg tm2_i = P::add(P::mul(s.tm_r, s.tm_i), P::mul(s.tm_i, s.tm_r));
  const reg a_r = P::sub(one, te2_r), a_i = P::neg(te2_i);
  const reg b_r = P::sub(one, tm2_r), b_i = P::neg(tm2_i);
  // t_te = (1 - te^2) * decay, t_tm = (1 - tm^2) * decay
  const reg tte_r = P::sub(P::mul(a_r, s.dec_r), P::mul(a_i, s.dec_i));
  const reg tte_i = P::add(P::mul(a_r, s.dec_i), P::mul(a_i, s.dec_r));
  const reg ttm_r = P::sub(P::mul(b_r, s.dec_r), P::mul(b_i, s.dec_i));
  const reg ttm_i = P::add(P::mul(b_r, s.dec_i), P::mul(b_i, s.dec_r));
  avg_mag_on_te_phase<P>(tte_r, tte_i, ttm_r, ttm_i, /*clamp_unit=*/true, o_re,
                         o_im);
}

template <class P>
inline void fresnel_reflect_reg(const SlabLanes* slab, typename P::reg cosi,
                                typename P::reg& o_re, typename P::reg& o_im) {
  const SlabRegs<P> s = slab_core<P>(P::load(slab->eps_re),
                                     P::load(slab->eps_im),
                                     P::load(slab->k0t), cosi);
  avg_mag_on_te_phase<P>(s.te_r, s.te_i, s.tm_r, s.tm_i, /*clamp_unit=*/false,
                         o_re, o_im);
}

// ---------------------------------------------------------------------------
// Plane-kernel loop helpers: full blocks load directly; the tail is staged
// through a zero-padded stack buffer (zero padding is harmless for every
// kernel here, including the reductions where 0-products add +0).
// ---------------------------------------------------------------------------
struct TailBuf {
  alignas(64) double v[kWidth];
  const double* stage(const double* p, std::size_t r) {
    for (std::size_t l = 0; l < kWidth; ++l) v[l] = l < r ? p[l] : 0.0;
    return v;
  }
};

inline void tail_store(double* dst, const double* src, std::size_t r) {
  for (std::size_t l = 0; l < r; ++l) dst[l] = src[l];
}

// ---------------------------------------------------------------------------
// Kernel table entries
// ---------------------------------------------------------------------------
template <class P>
struct Kernels {
  using reg = typename P::reg;
  using mask = typename P::mask;

  static void sincos(const double* x, double* s, double* c, std::size_t n) {
    std::size_t i = 0;
    for (; i + kWidth <= n; i += kWidth) {
      reg sr, cr;
      sincos_reg<P>(P::load(x + i), sr, cr);
      P::store(s + i, sr);
      P::store(c + i, cr);
    }
    if (i < n) {
      TailBuf tx;
      alignas(64) double ts[kWidth], tc[kWidth];
      reg sr, cr;
      sincos_reg<P>(P::load(tx.stage(x + i, n - i)), sr, cr);
      P::store(ts, sr);
      P::store(tc, cr);
      tail_store(s + i, ts, n - i);
      tail_store(c + i, tc, n - i);
    }
  }

  static void exp(const double* x, double* out, std::size_t n) {
    std::size_t i = 0;
    for (; i + kWidth <= n; i += kWidth)
      P::store(out + i, exp_reg<P>(P::load(x + i)));
    if (i < n) {
      TailBuf tx;
      alignas(64) double to[kWidth];
      P::store(to, exp_reg<P>(P::load(tx.stage(x + i, n - i))));
      tail_store(out + i, to, n - i);
    }
  }

  static void polar(const double* amp, double scale, const double* phase,
                    double* out_re, double* out_im, std::size_t n) {
    const reg sc = P::set1(scale);
    std::size_t i = 0;
    auto block = [&](const double* ph, const double* am, double* o_re,
                     double* o_im) {
      reg s, c;
      sincos_reg<P>(P::load(ph), s, c);
      reg a = am ? P::mul(P::load(am), sc) : sc;
      P::store(o_re, P::mul(a, c));
      P::store(o_im, P::mul(a, s));
    };
    for (; i + kWidth <= n; i += kWidth)
      block(phase + i, amp ? amp + i : nullptr, out_re + i, out_im + i);
    if (i < n) {
      TailBuf tp, ta;
      alignas(64) double tr[kWidth], ti[kWidth];
      block(tp.stage(phase + i, n - i),
            amp ? ta.stage(amp + i, n - i) : nullptr, tr, ti);
      tail_store(out_re + i, tr, n - i);
      tail_store(out_im + i, ti, n - i);
    }
  }

  static void cmul(const double* ar, const double* ai, const double* br,
                   const double* bi, double* o_re, double* o_im,
                   std::size_t n) {
    cmul_impl(ar, ai, br, bi, o_re, o_im, n, /*accum=*/false);
  }

  static void cmul_accum(const double* ar, const double* ai, const double* br,
                         const double* bi, double* o_re, double* o_im,
                         std::size_t n) {
    cmul_impl(ar, ai, br, bi, o_re, o_im, n, /*accum=*/true);
  }

  static void cmul_impl(const double* ar, const double* ai, const double* br,
                        const double* bi, double* o_re, double* o_im,
                        std::size_t n, bool accum) {
    std::size_t i = 0;
    auto block = [&](const double* pa_r, const double* pa_i, const double* pb_r,
                     const double* pb_i, double* po_r, double* po_i) {
      const reg xr = P::load(pa_r), xi = P::load(pa_i);
      const reg yr = P::load(pb_r), yi = P::load(pb_i);
      reg tr = P::sub(P::mul(xr, yr), P::mul(xi, yi));
      reg ti = P::add(P::mul(xr, yi), P::mul(xi, yr));
      if (accum) {
        tr = P::add(P::load(po_r), tr);
        ti = P::add(P::load(po_i), ti);
      }
      P::store(po_r, tr);
      P::store(po_i, ti);
    };
    for (; i + kWidth <= n; i += kWidth)
      block(ar + i, ai + i, br + i, bi + i, o_re + i, o_im + i);
    for (; i < n; ++i) {
      // Scalar tail with the same expression shape as the block body.
      const double xr = ar[i], xi = ai[i], yr = br[i], yi = bi[i];
      const double tr = xr * yr - xi * yi;
      const double ti = xr * yi + xi * yr;
      o_re[i] = accum ? o_re[i] + tr : tr;
      o_im[i] = accum ? o_im[i] + ti : ti;
    }
  }

  static void cscale(double* ar, double* ai, double sre, double sim,
                     std::size_t n) {
    const reg cr = P::set1(sre), ci = P::set1(sim);
    std::size_t i = 0;
    for (; i + kWidth <= n; i += kWidth) {
      const reg xr = P::load(ar + i), xi = P::load(ai + i);
      P::store(ar + i, P::sub(P::mul(xr, cr), P::mul(xi, ci)));
      P::store(ai + i, P::add(P::mul(xr, ci), P::mul(xi, cr)));
    }
    for (; i < n; ++i) {
      const double xr = ar[i], xi = ai[i];
      ar[i] = xr * sre - xi * sim;
      ai[i] = xr * sim + xi * sre;
    }
  }

  static void rscale_mul(double* ar, double* ai, const double* w,
                         std::size_t n) {
    std::size_t i = 0;
    for (; i + kWidth <= n; i += kWidth) {
      const reg ww = P::load(w + i);
      P::store(ar + i, P::mul(P::load(ar + i), ww));
      P::store(ai + i, P::mul(P::load(ai + i), ww));
    }
    for (; i < n; ++i) {
      ar[i] *= w[i];
      ai[i] *= w[i];
    }
  }

  // Shared accumulation body for cdot3 and cdot3_partials so the reduced
  // sum is bit-identical whichever entry point computed it.
  template <bool WriteW>
  static void cdot3_body(const double* ar, const double* ai, const double* br,
                         const double* bi, const double* cr, const double* ci,
                         double* wr, double* wi, bool accumulate_w,
                         std::size_t n, double out[2]) {
    reg acc_r = P::zero(), acc_i = P::zero();
    std::size_t i = 0;
    auto block = [&](const double* pa_r, const double* pa_i, const double* pb_r,
                     const double* pb_i, const double* pc_r, const double* pc_i,
                     double* pw_r, double* pw_i) {
      const reg xr = P::load(pa_r), xi = P::load(pa_i);
      const reg yr = P::load(pb_r), yi = P::load(pb_i);
      const reg tr = P::sub(P::mul(xr, yr), P::mul(xi, yi));
      const reg ti = P::add(P::mul(xr, yi), P::mul(xi, yr));
      if constexpr (WriteW) {
        if (accumulate_w) {
          P::store(pw_r, P::add(P::load(pw_r), tr));
          P::store(pw_i, P::add(P::load(pw_i), ti));
        } else {
          P::store(pw_r, tr);
          P::store(pw_i, ti);
        }
      }
      const reg zr = P::load(pc_r), zi = P::load(pc_i);
      acc_r = P::add(acc_r, P::sub(P::mul(tr, zr), P::mul(ti, zi)));
      acc_i = P::add(acc_i, P::add(P::mul(tr, zi), P::mul(ti, zr)));
    };
    for (; i + kWidth <= n; i += kWidth)
      block(ar + i, ai + i, br + i, bi + i, cr + i, ci + i,
            WriteW ? wr + i : nullptr, WriteW ? wi + i : nullptr);
    if (i < n) {
      const std::size_t r = n - i;
      TailBuf tar, tai, tbr, tbi, tcr, tci;
      alignas(64) double twr[kWidth], twi[kWidth];
      if constexpr (WriteW) {
        if (accumulate_w) {
          for (std::size_t l = 0; l < kWidth; ++l) {
            twr[l] = l < r ? wr[i + l] : 0.0;
            twi[l] = l < r ? wi[i + l] : 0.0;
          }
        }
      }
      block(tar.stage(ar + i, r), tai.stage(ai + i, r), tbr.stage(br + i, r),
            tbi.stage(bi + i, r), tcr.stage(cr + i, r), tci.stage(ci + i, r),
            twr, twi);
      if constexpr (WriteW) {
        tail_store(wr + i, twr, r);
        tail_store(wi + i, twi, r);
      }
    }
    out[0] = hsum<P>(acc_r);
    out[1] = hsum<P>(acc_i);
  }

  static void cdot3(const double* ar, const double* ai, const double* br,
                    const double* bi, const double* cr, const double* ci,
                    std::size_t n, double out[2]) {
    cdot3_body<false>(ar, ai, br, bi, cr, ci, nullptr, nullptr, false, n, out);
  }

  static void cdot3_partials(const double* ar, const double* ai,
                             const double* br, const double* bi,
                             const double* cr, const double* ci, double* wr,
                             double* wi, int accumulate_w, std::size_t n,
                             double out[2]) {
    cdot3_body<true>(ar, ai, br, bi, cr, ci, wr, wi, accumulate_w != 0, n, out);
  }

  // y[r] = sum_c M[r][c] x[c] — per-row complex dot with the shared
  // lane-striped accumulator + hsum tree.
  static void cmatvec(const double* m_re, const double* m_im, std::size_t rows,
                      std::size_t cols, std::size_t stride, const double* xr,
                      const double* xi, double* yr, double* yi) {
    for (std::size_t r = 0; r < rows; ++r) {
      const double* row_re = m_re + r * stride;
      const double* row_im = m_im + r * stride;
      reg acc_r = P::zero(), acc_i = P::zero();
      std::size_t c = 0;
      for (; c + kWidth <= cols; c += kWidth) {
        const reg mr = P::load(row_re + c), mi = P::load(row_im + c);
        const reg vr = P::load(xr + c), vi = P::load(xi + c);
        acc_r = P::add(acc_r, P::sub(P::mul(mr, vr), P::mul(mi, vi)));
        acc_i = P::add(acc_i, P::add(P::mul(mr, vi), P::mul(mi, vr)));
      }
      if (c < cols) {
        const std::size_t rem = cols - c;
        TailBuf tmr, tmi, tvr, tvi;
        const reg mr = P::load(tmr.stage(row_re + c, rem));
        const reg mi = P::load(tmi.stage(row_im + c, rem));
        const reg vr = P::load(tvr.stage(xr + c, rem));
        const reg vi = P::load(tvi.stage(xi + c, rem));
        acc_r = P::add(acc_r, P::sub(P::mul(mr, vr), P::mul(mi, vi)));
        acc_i = P::add(acc_i, P::add(P::mul(mr, vi), P::mul(mi, vr)));
      }
      yr[r] = hsum<P>(acc_r);
      yi[r] = hsum<P>(acc_i);
    }
  }

  // y[c] = sum_r M[r][c] x[r] — vectorized over columns; each output
  // element accumulates rows serially in row order.
  static void cmatvec_t(const double* m_re, const double* m_im,
                        std::size_t rows, std::size_t cols, std::size_t stride,
                        const double* xr, const double* xi, double* yr,
                        double* yi) {
    for (std::size_t c = 0; c < cols; ++c) {
      yr[c] = 0.0;
      yi[c] = 0.0;
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const double* row_re = m_re + r * stride;
      const double* row_im = m_im + r * stride;
      const reg sr = P::set1(xr[r]), si = P::set1(xi[r]);
      std::size_t c = 0;
      for (; c + kWidth <= cols; c += kWidth) {
        const reg mr = P::load(row_re + c), mi = P::load(row_im + c);
        P::store(yr + c, P::add(P::load(yr + c),
                                P::sub(P::mul(mr, sr), P::mul(mi, si))));
        P::store(yi + c, P::add(P::load(yi + c),
                                P::add(P::mul(mr, si), P::mul(mi, sr))));
      }
      for (; c < cols; ++c) {
        const double mr = row_re[c], mi = row_im[c];
        yr[c] += mr * xr[r] - mi * xi[r];
        yi[c] += mr * xi[r] + mi * xr[r];
      }
    }
  }

  static double norm_sum(const double* ar, const double* ai, std::size_t n) {
    reg acc = P::zero();
    std::size_t i = 0;
    for (; i + kWidth <= n; i += kWidth) {
      const reg xr = P::load(ar + i), xi = P::load(ai + i);
      acc = P::add(acc, P::add(P::mul(xr, xr), P::mul(xi, xi)));
    }
    if (i < n) {
      TailBuf tr, ti;
      const reg xr = P::load(tr.stage(ar + i, n - i));
      const reg xi = P::load(ti.stage(ai + i, n - i));
      acc = P::add(acc, P::add(P::mul(xr, xr), P::mul(xi, xi)));
    }
    return hsum<P>(acc);
  }

  static void power_grad_accum(const double* jc_re, const double* jc_im,
                               const double* dr, const double* di, double hr,
                               double hi, double scale, double* grad,
                               std::size_t n) {
    const reg vhr = P::set1(hr), vnhi = P::set1(-hi), vscale = P::set1(scale);
    std::size_t i = 0;
    for (; i + kWidth <= n; i += kWidth) {
      const reg jr = P::load(jc_re + i), ji = P::load(jc_im + i);
      const reg yr = P::load(dr + i), yi = P::load(di + i);
      const reg tr = P::sub(P::mul(jr, yr), P::mul(ji, yi));
      const reg ti = P::add(P::mul(jr, yi), P::mul(ji, yr));
      const reg re = P::sub(P::mul(vhr, tr), P::mul(vnhi, ti));
      P::store(grad + i, P::add(P::load(grad + i), P::mul(vscale, re)));
    }
    for (; i < n; ++i) {
      // Scalar tail with the same expression shape as the block body.
      const double tr = jc_re[i] * dr[i] - jc_im[i] * di[i];
      const double ti = jc_re[i] * di[i] + jc_im[i] * dr[i];
      grad[i] = grad[i] + scale * (hr * tr - (-hi) * ti);
    }
  }

  static void dist_dirs(const double* ax, const double* ay, const double* az,
                        const double* bx, const double* by, const double* bz,
                        double* d, double* ux, double* uy, double* uz,
                        std::size_t n) {
    std::size_t i = 0;
    for (; i + kWidth <= n; i += kWidth) {
      const reg dx = P::sub(P::load(bx + i), P::load(ax + i));
      const reg dy = P::sub(P::load(by + i), P::load(ay + i));
      const reg dz = P::sub(P::load(bz + i), P::load(az + i));
      const reg dd = P::sqrt_(
          P::add(P::add(P::mul(dx, dx), P::mul(dy, dy)), P::mul(dz, dz)));
      P::store(d + i, dd);
      P::store(ux + i, P::div(dx, dd));
      P::store(uy + i, P::div(dy, dd));
      P::store(uz + i, P::div(dz, dd));
    }
    for (; i < n; ++i) {
      const double dx = bx[i] - ax[i], dy = by[i] - ay[i], dz = bz[i] - az[i];
      const double dd = std::sqrt((dx * dx + dy * dy) + dz * dz);
      d[i] = dd;
      ux[i] = dx / dd;
      uy[i] = dy / dd;
      uz[i] = dz / dd;
    }
  }

  static void plane_clip_lanes(const PlaneRectLanes* pl, const double* img_x,
                               const double* img_y, const double* img_z,
                               const double* tx, const double* ty,
                               const double* tz, double* px, double* py,
                               double* pz, double* mask_io) {
    const reg ox = P::load(pl->ox), oy = P::load(pl->oy), oz = P::load(pl->oz);
    const reg nx = P::load(pl->nx), ny = P::load(pl->ny), nz = P::load(pl->nz);
    const reg ix = P::load(img_x), iy = P::load(img_y), iz = P::load(img_z);
    const reg txr = P::load(tx), tyr = P::load(ty), tzr = P::load(tz);
    // da = (img - o) . n, db = (target - o) . n
    const reg da = P::add(P::add(P::mul(P::sub(ix, ox), nx),
                                 P::mul(P::sub(iy, oy), ny)),
                          P::mul(P::sub(iz, oz), nz));
    const reg db = P::add(P::add(P::mul(P::sub(txr, ox), nx),
                                 P::mul(P::sub(tyr, oy), ny)),
                          P::mul(P::sub(tzr, oz), nz));
    mask m = P::cmp_lt(P::mul(da, db), P::zero());
    // t = da / (da - db); p = img + (target - img) * t
    const reg t = P::div(da, P::sub(da, db));
    const reg hx = P::add(ix, P::mul(P::sub(txr, ix), t));
    const reg hy = P::add(iy, P::mul(P::sub(tyr, iy), t));
    const reg hz = P::add(iz, P::mul(P::sub(tzr, iz), t));
    // in-plane coordinates of p relative to the rectangle center
    const reg rx = P::sub(hx, ox);
    const reg ry = P::sub(hy, oy);
    const reg rz = P::sub(hz, oz);
    const reg lu = P::add(P::add(P::mul(rx, P::load(pl->ux)),
                                 P::mul(ry, P::load(pl->uy))),
                          P::mul(rz, P::load(pl->uz)));
    const reg lv = P::add(P::add(P::mul(rx, P::load(pl->vx)),
                                 P::mul(ry, P::load(pl->vy))),
                          P::mul(rz, P::load(pl->vz)));
    m = P::mand(m, P::cmp_le(P::abs_(lu), P::load(pl->half_u)));
    m = P::mand(m, P::cmp_le(P::abs_(lv), P::load(pl->half_v)));
    P::store(px, hx);
    P::store(py, hy);
    P::store(pz, hz);
    P::store_mask(mask_io, P::mand(m, P::load_mask(mask_io)));
  }

  static void seg_transmission(const TriPairs* tris, const double* fx,
                               const double* fy, const double* fz,
                               const double* tx, const double* ty,
                               const double* tz, const double* ex,
                               const double* ey, const double* ez,
                               std::size_t n_excl, double excl_radius,
                               double* t_re, double* t_im) {
    const reg fxr = P::load(fx), fyr = P::load(fy), fzr = P::load(fz);
    const reg dx = P::sub(P::load(tx), fxr);
    const reg dy = P::sub(P::load(ty), fyr);
    const reg dz = P::sub(P::load(tz), fzr);
    const reg len = P::sqrt_(
        P::add(P::add(P::mul(dx, dx), P::mul(dy, dy)), P::mul(dz, dz)));
    const reg one = P::set1(1.0);
    const reg r2 = P::set1(excl_radius * excl_radius);
    reg pr = one, pi = P::zero();
    // Per-lane history of accepted crossings (distance, material) for the
    // cross-pair dedup below. A segment grazing the shared edge of two
    // same-material quads hits both at the same t; the scalar reference
    // (Mesh::all_hits_on_segment) keeps one crossing, so we must too.
    constexpr std::size_t kMaxHist = 16;
    double hist_t[kWidth][kMaxHist];
    int hist_m[kWidth][kMaxHist];
    std::size_t hist_n[kWidth] = {};
    for (std::size_t pair = 0; pair < tris->pair_count; ++pair) {
      mask hitm = P::cmp_lt(one, P::zero());  // all-false
      reg pair_td = P::zero();  // tdist of the accepted crossing, per lane
      for (std::size_t half = 0; half < 2; ++half) {
        const std::size_t tri = 2 * pair + half;
        const reg v0x = P::set1(tris->v0x[tri]), v0y = P::set1(tris->v0y[tri]),
                  v0z = P::set1(tris->v0z[tri]);
        const reg e1x = P::set1(tris->e1x[tri]), e1y = P::set1(tris->e1y[tri]),
                  e1z = P::set1(tris->e1z[tri]);
        const reg e2x = P::set1(tris->e2x[tri]), e2y = P::set1(tris->e2y[tri]),
                  e2z = P::set1(tris->e2z[tri]);
        // Moller-Trumbore with the unnormalized direction d = to - from.
        // The scalar path (geom::Triangle::intersect) uses the unit
        // direction, so its thresholds are scaled by |d| here:
        // det_unit = det / L, t_distance = t_param * L.
        const reg pvx = P::sub(P::mul(dy, e2z), P::mul(dz, e2y));
        const reg pvy = P::sub(P::mul(dz, e2x), P::mul(dx, e2z));
        const reg pvz = P::sub(P::mul(dx, e2y), P::mul(dy, e2x));
        const reg det = P::add(
            P::add(P::mul(e1x, pvx), P::mul(e1y, pvy)), P::mul(e1z, pvz));
        mask m = P::cmp_gt(P::abs_(det), P::mul(P::set1(1e-14), len));
        const reg inv = P::div(one, det);  // masked lanes may be inf/nan
        const reg sx = P::sub(fxr, v0x), sy = P::sub(fyr, v0y),
                  sz = P::sub(fzr, v0z);
        const reg u = P::mul(
            P::add(P::add(P::mul(sx, pvx), P::mul(sy, pvy)), P::mul(sz, pvz)),
            inv);
        m = P::mand(m, P::cmp_ge(u, P::set1(-1e-12)));
        m = P::mand(m, P::cmp_le(u, P::set1(1.0 + 1e-12)));
        const reg qvx = P::sub(P::mul(sy, e1z), P::mul(sz, e1y));
        const reg qvy = P::sub(P::mul(sz, e1x), P::mul(sx, e1z));
        const reg qvz = P::sub(P::mul(sx, e1y), P::mul(sy, e1x));
        const reg v = P::mul(
            P::add(P::add(P::mul(dx, qvx), P::mul(dy, qvy)), P::mul(dz, qvz)),
            inv);
        m = P::mand(m, P::cmp_ge(v, P::set1(-1e-12)));
        m = P::mand(m, P::cmp_le(P::add(u, v), P::set1(1.0 + 1e-12)));
        const reg tpar = P::mul(
            P::add(P::add(P::mul(e2x, qvx), P::mul(e2y, qvy)),
                   P::mul(e2z, qvz)),
            inv);
        const reg tdist = P::mul(tpar, len);
        m = P::mand(m, P::cmp_gt(tdist, P::set1(1e-7)));  // kRayEpsilon
        m = P::mand(m, P::cmp_lt(tdist, P::sub(len, P::set1(1e-7))));
        if (n_excl > 0 && P::any(m)) {
          const reg hx = P::add(fxr, P::mul(dx, tpar));
          const reg hy = P::add(fyr, P::mul(dy, tpar));
          const reg hz = P::add(fzr, P::mul(dz, tpar));
          for (std::size_t e = 0; e < n_excl; ++e) {
            const reg qx = P::sub(hx, P::load(ex + e * kWidth));
            const reg qy = P::sub(hy, P::load(ey + e * kWidth));
            const reg qz = P::sub(hz, P::load(ez + e * kWidth));
            const reg d2 = P::add(P::add(P::mul(qx, qx), P::mul(qy, qy)),
                                  P::mul(qz, qz));
            m = P::mand(m, P::cmp_ge(d2, r2));
          }
        }
        pair_td = P::blend(m, tdist, pair_td);
        hitm = P::mor(hitm, m);
      }
      // Uniform early-out: the mask is identical on every backend, so the
      // skip decision is deterministic and backend-independent.
      if (!P::any(hitm)) continue;
      // Cross-pair dedup against the per-lane hit history, matching the
      // scalar mesh rule: coincident (|dt| < 1e-9) same-material crossings
      // count once. Dropped hits are NOT recorded, reproducing
      // std::unique's compare-against-last-kept behavior. The lane values
      // are bit-identical across backends, so this host-side pass is too.
      {
        alignas(64) double hm[kWidth], td[kWidth];
        P::store_mask(hm, hitm);
        P::store(td, pair_td);
        const int mat = tris->mat[pair];
        bool changed = false;
        for (std::size_t l = 0; l < kWidth; ++l) {
          if (hm[l] == 0.0) continue;
          bool dup = false;
          for (std::size_t h = 0; h < hist_n[l]; ++h) {
            if (hist_m[l][h] == mat && std::fabs(hist_t[l][h] - td[l]) < 1e-9) {
              dup = true;
              break;
            }
          }
          if (dup) {
            hm[l] = 0.0;
            changed = true;
          } else if (hist_n[l] < kMaxHist) {
            hist_t[l][hist_n[l]] = td[l];
            hist_m[l][hist_n[l]] = mat;
            ++hist_n[l];
          }
        }
        if (changed) {
          hitm = P::load_mask(hm);
          if (!P::any(hitm)) continue;
        }
      }
      // cos_i = |d . n| / L for the pair's shared plane normal.
      const reg ndot = P::add(P::add(P::mul(dx, P::set1(tris->nx[pair])),
                                     P::mul(dy, P::set1(tris->ny[pair]))),
                              P::mul(dz, P::set1(tris->nz[pair])));
      const reg cosi = P::min_(one, P::div(P::abs_(ndot), len));
      reg tr, ti;
      fresnel_transmit_reg<P>(&tris->slab[pair], cosi, tr, ti);
      // Only the lanes that cross this pair take its factor, so a lane's
      // product never depends on which other lanes share its block.
      const reg npr = P::sub(P::mul(pr, tr), P::mul(pi, ti));
      const reg npi = P::add(P::mul(pr, ti), P::mul(pi, tr));
      pr = P::blend(hitm, npr, pr);
      pi = P::blend(hitm, npi, pi);
    }
    P::store(t_re, pr);
    P::store(t_im, pi);
  }

  static void fresnel_reflect_lanes(const SlabLanes* slab, const double* cos_i,
                                    double* o_re, double* o_im) {
    reg rr, ri;
    fresnel_reflect_reg<P>(slab, P::load(cos_i), rr, ri);
    P::store(o_re, rr);
    P::store(o_im, ri);
  }

  static void fresnel_transmit(const SlabConsts* slab, const double* cos_i,
                               double* o_re, double* o_im, std::size_t n) {
    std::size_t i = 0;
    for (; i + kWidth <= n; i += kWidth) {
      reg rr, ri;
      fresnel_transmit_reg<P>(slab, P::load(cos_i + i), rr, ri);
      P::store(o_re + i, rr);
      P::store(o_im + i, ri);
    }
    if (i < n) {
      TailBuf tc;
      alignas(64) double tr[kWidth], ti[kWidth];
      reg rr, ri;
      fresnel_transmit_reg<P>(slab, P::load(tc.stage(cos_i + i, n - i)), rr,
                              ri);
      P::store(tr, rr);
      P::store(ti, ri);
      tail_store(o_re + i, tr, n - i);
      tail_store(o_im + i, ti, n - i);
    }
  }

  static void freespace_mul(double lam_over_4pi, double k, const double* L,
                            double* g_re, double* g_im) {
    const reg len = P::load(L);
    const reg m = P::div(P::set1(lam_over_4pi), len);
    reg s, c;
    sincos_reg<P>(P::neg(P::mul(P::set1(k), len)), s, c);
    const reg fr = P::mul(m, c), fi = P::mul(m, s);
    const reg gr = P::load(g_re), gi = P::load(g_im);
    P::store(g_re, P::sub(P::mul(gr, fr), P::mul(gi, fi)));
    P::store(g_im, P::add(P::mul(gr, fi), P::mul(gi, fr)));
  }

  static void masked_accum(const double* mask_p, const double* g_re,
                           const double* g_im, const double* w, double* h_re,
                           double* h_im) {
    const mask m = P::load_mask(mask_p);
    const reg ww = P::load(w);
    const reg tr = P::blend(m, P::mul(P::load(g_re), ww), P::zero());
    const reg ti = P::blend(m, P::mul(P::load(g_im), ww), P::zero());
    P::store(h_re, P::add(P::load(h_re), tr));
    P::store(h_im, P::add(P::load(h_im), ti));
  }

  static void mask_norm_ge(const double* ar, const double* ai, double thresh,
                           double* mask_io) {
    const reg xr = P::load(ar), xi = P::load(ai);
    const reg nn = P::add(P::mul(xr, xr), P::mul(xi, xi));
    const mask m = P::cmp_ge(nn, P::set1(thresh));
    P::store_mask(mask_io, P::mand(m, P::load_mask(mask_io)));
  }

  static void hop_gain(const double* px, const double* py, const double* pz,
                       double qx, double qy, double qz, double nx, double ny,
                       double nz, double k, double area, double sqrt4pi,
                       double* hop_re, double* hop_im, double* ux, double* uy,
                       double* uz, std::size_t n) {
    const reg qxr = P::set1(qx), qyr = P::set1(qy), qzr = P::set1(qz);
    const reg nxr = P::set1(nx), nyr = P::set1(ny), nzr = P::set1(nz);
    const reg area_r = P::set1(area), s4p = P::set1(sqrt4pi);
    const reg kneg = P::set1(-k);
    const reg dmin = P::set1(1e-6);
    const reg zero = P::zero();
    std::size_t i = 0;
    auto block = [&](const double* ppx, const double* ppy, const double* ppz,
                     double* ore, double* oim, double* oux, double* ouy,
                     double* ouz) {
      const reg dx = P::sub(qxr, P::load(ppx));
      const reg dy = P::sub(qyr, P::load(ppy));
      const reg dz = P::sub(qzr, P::load(ppz));
      const reg d = P::sqrt_(
          P::add(P::add(P::mul(dx, dx), P::mul(dy, dy)), P::mul(dz, dz)));
      const mask ok = P::cmp_ge(d, dmin);
      const reg cosv = P::div(
          P::abs_(P::add(P::add(P::mul(dx, nxr), P::mul(dy, nyr)),
                         P::mul(dz, nzr))),
          d);
      const reg amp = P::div(P::sqrt_(P::mul(area_r, cosv)), P::mul(s4p, d));
      reg s, c;
      sincos_reg<P>(P::mul(kneg, d), s, c);
      P::store(ore, P::blend(ok, P::mul(amp, c), zero));
      P::store(oim, P::blend(ok, P::mul(amp, s), zero));
      P::store(oux, P::blend(ok, P::div(dx, d), zero));
      P::store(ouy, P::blend(ok, P::div(dy, d), zero));
      P::store(ouz, P::blend(ok, P::div(dz, d), zero));
    };
    for (; i + kWidth <= n; i += kWidth)
      block(px + i, py + i, pz + i, hop_re + i, hop_im + i, ux + i, uy + i,
            uz + i);
    if (i < n) {
      const std::size_t r = n - i;
      TailBuf tpx, tpy, tpz;
      alignas(64) double tre[kWidth], tim[kWidth], tux[kWidth], tuy[kWidth],
          tuz[kWidth];
      // Pad with the first lane's position so padded lanes stay finite.
      auto pad = [&](TailBuf& b, const double* p) {
        for (std::size_t l = 0; l < kWidth; ++l) b.v[l] = p[l < r ? l : 0];
        return b.v;
      };
      block(pad(tpx, px + i), pad(tpy, py + i), pad(tpz, pz + i), tre, tim,
            tux, tuy, tuz);
      tail_store(hop_re + i, tre, r);
      tail_store(hop_im + i, tim, r);
      tail_store(ux + i, tux, r);
      tail_store(uy + i, tuy, r);
      tail_store(uz + i, tuz, r);
    }
  }

  static void pair_gain(const double* px, const double* py, const double* pz,
                        double qx, double qy, double qz, double npx,
                        double npy, double npz, double nqx, double nqy,
                        double nqz, double k, double lambda, double area_p,
                        double area_q, double* o_re, double* o_im,
                        std::size_t n) {
    const reg qxr = P::set1(qx), qyr = P::set1(qy), qzr = P::set1(qz);
    const reg lam = P::set1(lambda);
    const reg ap = P::set1(area_p), aq = P::set1(area_q);
    const reg kneg = P::set1(-k);
    const reg zero = P::zero();
    std::size_t i = 0;
    auto block = [&](const double* ppx, const double* ppy, const double* ppz,
                     double* ore, double* oim) {
      // d points p -> q; cos_p against the p-panel normal, cos_q against
      // the q-panel normal, both taken as absolute values.
      const reg dx = P::sub(qxr, P::load(ppx));
      const reg dy = P::sub(qyr, P::load(ppy));
      const reg dz = P::sub(qzr, P::load(ppz));
      const reg d = P::sqrt_(
          P::add(P::add(P::mul(dx, dx), P::mul(dy, dy)), P::mul(dz, dz)));
      mask ok = P::cmp_ge(d, P::set1(1e-6));
      const reg cp = P::div(
          P::abs_(P::add(P::add(P::mul(dx, P::set1(npx)),
                                P::mul(dy, P::set1(npy))),
                         P::mul(dz, P::set1(npz)))),
          d);
      const reg cq = P::div(
          P::abs_(P::add(P::add(P::mul(dx, P::set1(nqx)),
                                P::mul(dy, P::set1(nqy))),
                         P::mul(dz, P::set1(nqz)))),
          d);
      ok = P::mand(ok, P::cmp_gt(cp, zero));
      ok = P::mand(ok, P::cmp_gt(cq, zero));
      const reg amp = P::div(
          P::mul(P::sqrt_(P::mul(ap, cp)), P::sqrt_(P::mul(aq, cq))),
          P::mul(lam, d));
      reg s, c;
      sincos_reg<P>(P::mul(kneg, d), s, c);
      P::store(ore, P::blend(ok, P::mul(amp, c), zero));
      P::store(oim, P::blend(ok, P::mul(amp, s), zero));
    };
    for (; i + kWidth <= n; i += kWidth)
      block(px + i, py + i, pz + i, o_re + i, o_im + i);
    if (i < n) {
      const std::size_t r = n - i;
      TailBuf tpx, tpy, tpz;
      alignas(64) double tre[kWidth], tim[kWidth];
      auto pad = [&](TailBuf& b, const double* p) {
        for (std::size_t l = 0; l < kWidth; ++l) b.v[l] = p[l < r ? l : 0];
        return b.v;
      };
      block(pad(tpx, px + i), pad(tpy, py + i), pad(tpz, pz + i), tre, tim);
      tail_store(o_re + i, tre, r);
      tail_store(o_im + i, tim, r);
    }
  }

  static void sector_gain(double bx, double by, double bz, double sign,
                          double cos_half, double peak_amp, double side_amp,
                          const double* ux, const double* uy, const double* uz,
                          double* out, std::size_t n) {
    const reg bxr = P::set1(sign * bx), byr = P::set1(sign * by),
              bzr = P::set1(sign * bz);
    const reg ch = P::set1(cos_half);
    const reg pk = P::set1(peak_amp), sd = P::set1(side_amp);
    std::size_t i = 0;
    for (; i + kWidth <= n; i += kWidth) {
      const reg c = P::add(P::add(P::mul(bxr, P::load(ux + i)),
                                  P::mul(byr, P::load(uy + i))),
                           P::mul(bzr, P::load(uz + i)));
      P::store(out + i, P::blend(P::cmp_ge(c, ch), pk, sd));
    }
    for (; i < n; ++i) {
      const double c = (sign * bx) * ux[i] + (sign * by) * uy[i] +
                       (sign * bz) * uz[i];
      out[i] = c >= cos_half ? peak_amp : side_amp;
    }
  }
};

template <class P>
inline Ops make_ops(const char* name, Backend backend) {
  Ops t{};
  t.name = name;
  t.backend = backend;
  t.sincos = &Kernels<P>::sincos;
  t.exp = &Kernels<P>::exp;
  t.polar = &Kernels<P>::polar;
  t.cmul = &Kernels<P>::cmul;
  t.cmul_accum = &Kernels<P>::cmul_accum;
  t.cscale = &Kernels<P>::cscale;
  t.rscale_mul = &Kernels<P>::rscale_mul;
  t.cdot3 = &Kernels<P>::cdot3;
  t.cdot3_partials = &Kernels<P>::cdot3_partials;
  t.cmatvec = &Kernels<P>::cmatvec;
  t.cmatvec_t = &Kernels<P>::cmatvec_t;
  t.norm_sum = &Kernels<P>::norm_sum;
  t.power_grad_accum = &Kernels<P>::power_grad_accum;
  t.dist_dirs = &Kernels<P>::dist_dirs;
  t.plane_clip_lanes = &Kernels<P>::plane_clip_lanes;
  t.seg_transmission = &Kernels<P>::seg_transmission;
  t.fresnel_reflect_lanes = &Kernels<P>::fresnel_reflect_lanes;
  t.fresnel_transmit = &Kernels<P>::fresnel_transmit;
  t.freespace_mul = &Kernels<P>::freespace_mul;
  t.masked_accum = &Kernels<P>::masked_accum;
  t.mask_norm_ge = &Kernels<P>::mask_norm_ge;
  t.hop_gain = &Kernels<P>::hop_gain;
  t.pair_gain = &Kernels<P>::pair_gain;
  t.sector_gain = &Kernels<P>::sector_gain;
  return t;
}

}  // namespace surfos::util::simd::detail
