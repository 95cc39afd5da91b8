// Structure-of-arrays complex storage: the one complex vector (CxPlanes)
// and matrix (CxPlaneMat) type of the code base. Channel vectors, surface
// coefficients, cascades, steering matrices, covariances and sensing
// snapshots are all planes.
//
// CxPlanes holds one complex vector as two 64-byte-aligned double planes
// (re, im), zero-padded up to a multiple of the SIMD virtual lane width so
// kernels can always run full blocks: padded lanes hold exactly +0.0 and
// contribute +0 products to every reduction, which keeps results
// independent of the padding. CxPlaneMat is the row-major matrix variant
// with a padded row stride. The invariant "padding is zero" is maintained
// by resize/zero and by every kernel that writes rows (tails only store
// live lanes).
#pragma once

#include <algorithm>
#include <cstddef>

#include "em/cx.hpp"
#include "util/simd.hpp"

namespace surfos::em {

/// Rounds a logical length up to a whole number of SIMD lanes.
inline std::size_t padded_len(std::size_t n) noexcept {
  const std::size_t w = util::simd::kWidth;
  return (n + w - 1) / w * w;
}

class CxPlanes {
 public:
  CxPlanes() = default;
  explicit CxPlanes(std::size_t n) { resize(n); }

  void resize(std::size_t n) {
    n_ = n;
    re_.assign(padded_len(n), 0.0);
    im_.assign(padded_len(n), 0.0);
  }
  void zero() {
    std::fill(re_.begin(), re_.end(), 0.0);
    std::fill(im_.begin(), im_.end(), 0.0);
  }

  std::size_t size() const noexcept { return n_; }
  std::size_t padded_size() const noexcept { return re_.size(); }
  /// Heap bytes held by the two planes (precompute-store accounting).
  std::size_t bytes() const noexcept {
    return (re_.capacity() + im_.capacity()) * sizeof(double);
  }

  double* re() noexcept { return re_.data(); }
  double* im() noexcept { return im_.data(); }
  const double* re() const noexcept { return re_.data(); }
  const double* im() const noexcept { return im_.data(); }

  Cx at(std::size_t i) const noexcept { return {re_[i], im_[i]}; }
  void set(std::size_t i, Cx v) noexcept {
    re_[i] = v.real();
    im_[i] = v.imag();
  }

 private:
  std::size_t n_ = 0;
  util::simd::AlignedVec re_, im_;
};

/// Row-major complex matrix as SoA planes; each row starts at a 64-byte
/// boundary (stride = padded cols) and its padding lanes are zero.
class CxPlaneMat {
 public:
  CxPlaneMat() = default;
  CxPlaneMat(std::size_t rows, std::size_t cols) { resize(rows, cols); }

  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    stride_ = padded_len(cols);
    re_.assign(rows * stride_, 0.0);
    im_.assign(rows * stride_, 0.0);
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t stride() const noexcept { return stride_; }
  /// Heap bytes held by the two planes (precompute-store accounting).
  std::size_t bytes() const noexcept {
    return (re_.capacity() + im_.capacity()) * sizeof(double);
  }

  double* row_re(std::size_t r) noexcept { return re_.data() + r * stride_; }
  double* row_im(std::size_t r) noexcept { return im_.data() + r * stride_; }
  const double* row_re(std::size_t r) const noexcept {
    return re_.data() + r * stride_;
  }
  const double* row_im(std::size_t r) const noexcept {
    return im_.data() + r * stride_;
  }
  const double* re() const noexcept { return re_.data(); }
  const double* im() const noexcept { return im_.data(); }

  Cx at(std::size_t r, std::size_t c) const noexcept {
    return {row_re(r)[c], row_im(r)[c]};
  }
  void set(std::size_t r, std::size_t c, Cx v) noexcept {
    row_re(r)[c] = v.real();
    row_im(r)[c] = v.imag();
  }

 private:
  std::size_t rows_ = 0, cols_ = 0, stride_ = 0;
  util::simd::AlignedVec re_, im_;
};

}  // namespace surfos::em
