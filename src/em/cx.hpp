// The complex scalar of the channel math.
//
// Cx is one complex sample (a channel tap, a coefficient, a steering
// element). Complex vectors and matrices are em::CxPlanes / em::CxPlaneMat
// (em/soa.hpp): every layer, the channel boundary and the sensing services
// alike, stores them as aligned re/im planes.
#pragma once

#include <cmath>
#include <complex>

namespace surfos::em {

using Cx = std::complex<double>;

inline Cx expj(double phase) noexcept {
  return {std::cos(phase), std::sin(phase)};
}

}  // namespace surfos::em
