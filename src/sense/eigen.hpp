// Hermitian eigendecomposition (cyclic complex Jacobi), sized for sensing
// covariance matrices (hundreds of elements). Self-contained: the repository
// carries no external linear-algebra dependency. Input, working matrix and
// eigenvectors are em::CxPlaneMat, the one complex matrix type.
#pragma once

#include <vector>

#include "em/soa.hpp"

namespace surfos::sense {

struct EigenResult {
  std::vector<double> values;  ///< Ascending.
  em::CxPlaneMat vectors;      ///< Column c is the eigenvector of values[c].
};

/// Decomposes a Hermitian matrix (only the upper triangle is trusted).
/// Throws std::invalid_argument for non-square input.
EigenResult hermitian_eigen(const em::CxPlaneMat& matrix,
                            double tolerance = 1e-12,
                            std::size_t max_sweeps = 64);

}  // namespace surfos::sense
