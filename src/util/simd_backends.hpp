// Internal: per-backend Ops providers. Each function returns nullptr when
// the backend cannot exist on the compilation target (e.g. AVX2 on a non-x86 target);
// availability on the *running* CPU is checked by the dispatcher.
#pragma once

namespace surfos::util::simd {
struct Ops;
namespace detail {
const Ops* scalar_ops();
const Ops* avx2_ops();
const Ops* avx512_ops();
}  // namespace detail
}  // namespace surfos::util::simd
