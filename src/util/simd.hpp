// Lane-width-agnostic SIMD kernel layer for the dense channel math.
//
// Every backend (scalar, AVX2, AVX-512) implements the same virtual
// lane width of kWidth = 8 doubles and the same horizontal-reduction tree,
// so all backends produce BIT-IDENTICAL results for every kernel: the
// scalar backend is the reference implementation and the vector backends
// must agree with it exactly (enforced by tests/test_simd.cpp). To keep
// that guarantee the backend translation units are compiled with
// -ffp-contract=off (no FMA contraction) and the scalar TU additionally
// with -fno-tree-vectorize so it stays genuinely scalar for benchmarking.
//
// Backend selection: runtime dispatch picks the best backend the CPU
// supports (avx512 > avx2 > scalar); the SURFOS_SIMD environment
// knob (auto|scalar|avx2|avx512) overrides it, falling back down the
// preference order when the requested backend is unavailable.
//
// Kernels come in two shapes:
//  - "plane" kernels take arbitrary length n over SoA double planes
//    (unaligned pointers are allowed; alignment is a performance hint);
//  - "block" kernels operate on exactly kWidth lanes (the batched ray
//    tracer processes its paths in blocks of 8).
// Lane masks stored in memory use the convention 0.0 = false and an
// all-ones bit pattern = true; kernels only ever test/blend/bitwise-op
// mask values, never do arithmetic on them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace surfos::util::simd {

/// Virtual lane width shared by all backends (doubles per block).
inline constexpr std::size_t kWidth = 8;

enum class Backend { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// 64-byte aligned allocator for SoA planes.
///
/// A block of up to kPaddedMaxBytes (padding included) takes `bytes + 64`
/// from plain `::operator new`, so the allocator's per-thread cache serves
/// the common sub-kilobyte planes (aligned `operator new` goes to glibc's
/// arena path under its lock), and the plane starts at the first 64-byte
/// boundary strictly inside the block. The distance back to the block's
/// start (1..64) is kept in the byte just below the plane; nothing is
/// assumed about the raw block's own alignment. A larger block keeps aligned
/// `operator new`: no thread cache serves it, and with the padded layout the
/// freed 460 KB planes of a 144-RX x 400-element coverage step reached the
/// heap top, where glibc trimmed and re-faulted them every step
/// (bench_trace_overhead ran 2x slower). The size picks the path in both
/// calls, as an allocator's deallocate gets allocate's `n`.
template <class T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlign = 64;
  static constexpr std::size_t kPaddedMaxBytes = 16 * 1024;
  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    if (n > (static_cast<std::size_t>(-1) - kAlign) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    const std::size_t bytes = n * sizeof(T);
    if (bytes + kAlign > kPaddedMaxBytes) {
      return static_cast<T*>(::operator new(bytes, std::align_val_t{kAlign}));
    }
    auto* raw = static_cast<unsigned char*>(::operator new(bytes + kAlign));
    const std::size_t pad =
        kAlign - reinterpret_cast<std::uintptr_t>(raw) % kAlign;  // 1..64
    unsigned char* aligned = raw + pad;
    aligned[-1] = static_cast<unsigned char>(pad);
    return reinterpret_cast<T*>(aligned);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes + kAlign > kPaddedMaxBytes) {
      ::operator delete(p, bytes, std::align_val_t{kAlign});
      return;
    }
    auto* aligned = reinterpret_cast<unsigned char*>(p);
    ::operator delete(aligned - aligned[-1], bytes + kAlign);
  }
  template <class U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <class U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

using AlignedVec = std::vector<double, AlignedAllocator<double>>;

/// Per-(material, frequency) slab constants consumed by the Fresnel
/// kernels: complex relative permittivity and k0 * thickness.
struct SlabConsts {
  double eps_re = 1.0;
  double eps_im = 0.0;
  double k0t = 0.0;
};

/// One finite rectangular plane (a Reflector) per lane for the
/// backward-clip kernel: lane l of every field describes lane l's plane.
struct PlaneRectLanes {
  alignas(64) double ox[kWidth], oy[kWidth], oz[kWidth];  // origin (center)
  alignas(64) double nx[kWidth], ny[kWidth], nz[kWidth];  // unit normal
  alignas(64) double ux[kWidth], uy[kWidth], uz[kWidth];  // in-plane u axis
  alignas(64) double vx[kWidth], vy[kWidth], vz[kWidth];  // in-plane v axis
  alignas(64) double half_u[kWidth], half_v[kWidth];      // half extents
};

/// One set of slab constants per lane for the per-lane Fresnel kernel.
struct SlabLanes {
  alignas(64) double eps_re[kWidth], eps_im[kWidth], k0t[kWidth];
};

/// Scene triangles grouped as coplanar pairs (Environment geometry is
/// built from add_quad/add_box, which emit two consecutive coplanar
/// triangles per quad sharing plane and material). The transmission
/// kernel ORs the two hit masks per pair and applies the slab response
/// once, which reproduces the quad-diagonal dedup of
/// Mesh::all_hits_on_segment.
struct TriPairs {
  std::size_t pair_count = 0;
  // Per-triangle (length 2 * pair_count): vertex 0 and the two edges.
  std::vector<double> v0x, v0y, v0z;
  std::vector<double> e1x, e1y, e1z;
  std::vector<double> e2x, e2y, e2z;
  // Per-pair: shared unit normal, material id, and slab constants at the
  // trace frequency. `mat` feeds the cross-pair coincident-hit dedup: a
  // segment through a shared edge of two same-material quads is one
  // physical crossing (Mesh::all_hits_on_segment collapses |dt| < 1e-9
  // same-material hits globally, not just within a quad).
  std::vector<double> nx, ny, nz;
  std::vector<int> mat;
  std::vector<SlabConsts> slab;
};

/// Backend kernel table. All pointers are non-null in a valid table.
/// "Plane" kernels take a length n; "block" kernels process exactly
/// kWidth lanes. No pointer aliasing between distinct arguments unless a
/// parameter is documented as in/out.
struct Ops {
  const char* name;
  Backend backend;

  // --- elementwise transcendentals (plane) --------------------------------
  // s[i] = sin(x[i]), c[i] = cos(x[i]). Accurate for |x| up to ~1e6
  // (Cody-Waite two-term pi/2 reduction); scene phases are k*d ~ 1e4.
  void (*sincos)(const double* x, double* s, double* c, std::size_t n);
  // out[i] = exp(x[i]); underflows to +0 below -708.396, overflows to +inf
  // above 709.783 (matches the metal-slab decay underflow of std::exp).
  void (*exp)(const double* x, double* out, std::size_t n);
  // out[i] = (amp ? amp[i] : 1) * scale * e^{j phase[i]}.
  void (*polar)(const double* amp, double scale, const double* phase,
                double* out_re, double* out_im, std::size_t n);

  // --- complex plane arithmetic (plane) -----------------------------------
  // o = a * b (complex, elementwise).
  void (*cmul)(const double* ar, const double* ai, const double* br,
               const double* bi, double* o_re, double* o_im, std::size_t n);
  // o += a * b.
  void (*cmul_accum)(const double* ar, const double* ai, const double* br,
                     const double* bi, double* o_re, double* o_im,
                     std::size_t n);
  // a *= (sre + j sim), in place.
  void (*cscale)(double* ar, double* ai, double sre, double sim,
                 std::size_t n);
  // a *= w (real plane), in place.
  void (*rscale_mul)(double* ar, double* ai, const double* w, std::size_t n);
  // out = sum_i (a[i] * b[i]) * c[i]  (canonical product order: a*b first).
  void (*cdot3)(const double* ar, const double* ai, const double* br,
                const double* bi, const double* cr, const double* ci,
                std::size_t n, double out[2]);
  // w = a * b (or w += a * b when accumulate_w != 0) and
  // out = sum_i (a[i] * b[i]) * c[i] using the freshly computed products,
  // so the sum is bit-identical to cdot3 over the same planes.
  void (*cdot3_partials)(const double* ar, const double* ai, const double* br,
                         const double* bi, const double* cr, const double* ci,
                         double* wr, double* wi, int accumulate_w,
                         std::size_t n, double out[2]);
  // y[r] = sum_c M[r][c] * x[c]; M is row-major with row stride `stride`
  // doubles in each of the re/im planes; x has length >= cols, y >= rows.
  void (*cmatvec)(const double* m_re, const double* m_im, std::size_t rows,
                  std::size_t cols, std::size_t stride, const double* xr,
                  const double* xi, double* yr, double* yi);
  // y[c] = sum_r M[r][c] * x[r] (transpose apply; y accumulated over rows
  // in row order, so each output element keeps a serial accumulation
  // order independent of the backend).
  void (*cmatvec_t)(const double* m_re, const double* m_im, std::size_t rows,
                    std::size_t cols, std::size_t stride, const double* xr,
                    const double* xi, double* yr, double* yi);
  // sum_i (ar[i]^2 + ai[i]^2).
  double (*norm_sum)(const double* ar, const double* ai, std::size_t n);
  // One receiver's phase gradient of |h|^2, added into grad: with
  // jc[i] = j * c[i] (the caller's, formed once per coefficient set) and
  // t = jc[i] * d[i] (d = dh/dc),
  // grad[i] += scale * (hr * t_re - (-hi) * t_im), i.e.
  // scale * Re(conj(h) * j * c_i * dh/dc_i). The complex products are
  // spelled out as std::complex multiplication performs them on finite
  // values, in the same order.
  void (*power_grad_accum)(const double* jc_re, const double* jc_im,
                           const double* dr, const double* di, double hr,
                           double hi, double scale, double* grad,
                           std::size_t n);

  // --- geometry / EM kernels ----------------------------------------------
  // d[i] = |b[i]-a[i]|, u[i] = (b[i]-a[i])/d[i] (plane kernel, length n).
  void (*dist_dirs)(const double* ax, const double* ay, const double* az,
                    const double* bx, const double* by, const double* bz,
                    double* d, double* ux, double* uy, double* uz,
                    std::size_t n);
  // Block kernel: clip each lane's segment image->target against that
  // lane's finite plane. p = intersection point, mask_io &= (segment
  // crosses the plane inside the rectangle). Mirrors
  // Reflector::segment_plane_point.
  void (*plane_clip_lanes)(const PlaneRectLanes* pl, const double* img_x,
                           const double* img_y, const double* img_z,
                           const double* tx, const double* ty,
                           const double* tz, double* px, double* py,
                           double* pz, double* mask_io);
  // Block kernel: product of slab transmission coefficients over all
  // scene triangles crossed by segment from->to, excluding hits within
  // excl_radius of the n_excl exclusion points (laid out point-major:
  // ex[e * kWidth + lane]). Writes the complex product per lane; a lane's
  // product depends on that lane's inputs alone.
  void (*seg_transmission)(const TriPairs* tris, const double* fx,
                           const double* fy, const double* fz,
                           const double* tx, const double* ty,
                           const double* tz, const double* ex,
                           const double* ey, const double* ez,
                           std::size_t n_excl, double excl_radius,
                           double* t_re, double* t_im);
  // Block kernel: slab reflection coefficient from cos(incidence), each
  // lane with its own slab constants.
  void (*fresnel_reflect_lanes)(const SlabLanes* slab, const double* cos_i,
                                double* o_re, double* o_im);
  // Slab transmission coefficient plane from cos(incidence).
  void (*fresnel_transmit)(const SlabConsts* slab, const double* cos_i,
                           double* o_re, double* o_im, std::size_t n);
  // Block kernel: g *= (lam_over_4pi / L) * e^{-j k L}.
  void (*freespace_mul)(double lam_over_4pi, double k, const double* L,
                        double* g_re, double* g_im);
  // Block kernel: h += mask ? g * w : 0 (w real).
  void (*masked_accum)(const double* mask, const double* g_re,
                       const double* g_im, const double* w, double* h_re,
                       double* h_im);
  // Block kernel: mask_io &= (ar^2 + ai^2 >= thresh).
  void (*mask_norm_ge)(const double* ar, const double* ai, double thresh,
                       double* mask_io);
  // Plane kernel: element -> point hop gain.
  // d = |q - p[i]|; cos = |(q-p[i]) . n| / d;
  // hop = sqrt(area * cos) / (sqrt4pi * d) * e^{-j k d};
  // u[i] = (q - p[i]) / d. Lanes with d < 1e-6 get hop = 0, u = 0.
  void (*hop_gain)(const double* px, const double* py, const double* pz,
                   double qx, double qy, double qz, double nx, double ny,
                   double nz, double k, double area, double sqrt4pi,
                   double* hop_re, double* hop_im, double* ux, double* uy,
                   double* uz, std::size_t n);
  // Plane kernel: element -> element gain row (one destination element q
  // against all source elements p[i]):
  // amp = sqrt(area_p * cos_p) * sqrt(area_q * cos_q) / (lambda * d);
  // out = amp * e^{-j k d}; zero when either cos <= 0 or d < 1e-6.
  void (*pair_gain)(const double* px, const double* py, const double* pz,
                    double qx, double qy, double qz, double npx, double npy,
                    double npz, double nqx, double nqy, double nqz, double k,
                    double lambda, double area_p, double area_q, double* o_re,
                    double* o_im, std::size_t n);
  // Plane kernel: sector antenna amplitude over unit directions.
  // out[i] = (sign * (b . u[i]) >= cos_half) ? peak_amp : side_amp.
  void (*sector_gain)(double bx, double by, double bz, double sign,
                      double cos_half, double peak_amp, double side_amp,
                      const double* ux, const double* uy, const double* uz,
                      double* out, std::size_t n);
};

/// Active kernel table. First use resolves SURFOS_SIMD and CPU features.
const Ops& ops();

/// Table for a specific backend, or nullptr if unavailable on this host
/// (e.g. kAvx512 on a CPU without it). kScalar is always available.
const Ops* ops_for(Backend b);

/// Test/bench hook: force a backend for subsequent ops() calls. Returns
/// false (and leaves the active backend unchanged) if unavailable.
bool set_backend(Backend b);

/// Re-resolve from SURFOS_SIMD + CPU detection (undoes set_backend).
void reset_backend();

Backend active_backend();
const char* backend_name(Backend b);
std::vector<Backend> available_backends();

}  // namespace surfos::util::simd
