#include "sense/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace surfos::sense {

EigenResult hermitian_eigen(const em::CxPlaneMat& matrix, double tolerance,
                            std::size_t max_sweeps) {
  const std::size_t n = matrix.rows();
  if (n != matrix.cols()) {
    throw std::invalid_argument("hermitian_eigen: non-square matrix");
  }
  // Working copy, Hermitian-symmetrized from the upper triangle.
  em::CxPlaneMat a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    a.set(r, r, {matrix.at(r, r).real(), 0.0});
    for (std::size_t c = r + 1; c < n; ++c) {
      a.set(r, c, matrix.at(r, c));
      a.set(c, r, std::conj(matrix.at(r, c)));
    }
  }
  em::CxPlaneMat v(n, n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, i, {1.0, 0.0});

  auto off_norm = [&]() {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = r + 1; c < n; ++c) sum += std::norm(a.at(r, c));
    }
    return sum;
  };

  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_norm() < tolerance * tolerance * static_cast<double>(n * n)) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const em::Cx apq = a.at(p, q);
        if (std::abs(apq) < 1e-300) continue;
        // Complex Jacobi rotation zeroing a(p, q):
        //   phase factor e^{j*phi} = apq / |apq|, then a real 2x2 rotation.
        const double app = a.at(p, p).real();
        const double aqq = a.at(q, q).real();
        const double abs_apq = std::abs(apq);
        const em::Cx phase = apq / abs_apq;
        const double tau = (aqq - app) / (2.0 * abs_apq);
        const double t = (tau >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        const em::Cx sp = s * phase;  // complex s incorporating the phase

        for (std::size_t k = 0; k < n; ++k) {
          const em::Cx akp = a.at(k, p);
          const em::Cx akq = a.at(k, q);
          a.set(k, p, c * akp - std::conj(sp) * akq);
          a.set(k, q, sp * akp + c * akq);
        }
        for (std::size_t k = 0; k < n; ++k) {
          const em::Cx apk = a.at(p, k);
          const em::Cx aqk = a.at(q, k);
          a.set(p, k, c * apk - sp * aqk);
          a.set(q, k, std::conj(sp) * apk + c * aqk);
        }
        for (std::size_t k = 0; k < n; ++k) {
          const em::Cx vkp = v.at(k, p);
          const em::Cx vkq = v.at(k, q);
          v.set(k, p, c * vkp - std::conj(sp) * vkq);
          v.set(k, q, sp * vkp + c * vkq);
        }
      }
    }
  }

  EigenResult result;
  result.values.resize(n);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = a.at(i, i).real();
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return diag[x] < diag[y]; });
  result.vectors.resize(n, n);
  for (std::size_t c = 0; c < n; ++c) {
    result.values[c] = diag[order[c]];
    for (std::size_t r = 0; r < n; ++r) {
      result.vectors.set(r, c, v.at(r, order[c]));
    }
  }
  return result;
}

}  // namespace surfos::sense
