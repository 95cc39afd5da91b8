// Runtime backend dispatch: CPU feature detection + SURFOS_SIMD override.
#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/simd_backends.hpp"

namespace surfos::util::simd {
namespace {

bool cpu_supports(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Backend::kAvx512:
#if defined(__x86_64__) || defined(_M_X64)
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq");
#else
      return false;
#endif
  }
  return false;
}

const Ops* table_for(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return detail::scalar_ops();
    case Backend::kAvx2:
      return detail::avx2_ops();
    case Backend::kAvx512:
      return detail::avx512_ops();
  }
  return nullptr;
}

// Preference order for "auto": widest first.
constexpr Backend kAutoOrder[] = {Backend::kAvx512, Backend::kAvx2,
                                  Backend::kScalar};

const Ops* best_available() {
  for (const Backend b : kAutoOrder) {
    const Ops* t = ops_for(b);
    if (t != nullptr) return t;
  }
  return detail::scalar_ops();  // unreachable; scalar always exists
}

bool parse_backend(const char* s, Backend* out) {
  if (std::strcmp(s, "scalar") == 0) *out = Backend::kScalar;
  else if (std::strcmp(s, "avx2") == 0) *out = Backend::kAvx2;
  else if (std::strcmp(s, "avx512") == 0) *out = Backend::kAvx512;
  else return false;
  return true;
}

const Ops* resolve_from_env() {
  // The one SURFOS_* read outside core::knob: it names a code path, not a
  // size, and the precompute digest needs it fixed before the first kernel.
  const char* env = std::getenv("SURFOS_SIMD");
  if (env != nullptr && *env != '\0' && std::strcmp(env, "auto") != 0) {
    Backend requested;
    if (parse_backend(env, &requested)) {
      const Ops* t = ops_for(requested);
      if (t != nullptr) return t;
    }
    // Unknown name or backend unavailable on this host: fall through to
    // auto selection rather than failing.
  }
  return best_available();
}

std::atomic<const Ops*> g_active{nullptr};

}  // namespace

const Ops* ops_for(Backend b) {
  if (!cpu_supports(b)) return nullptr;
  return table_for(b);
}

const Ops& ops() {
  const Ops* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = resolve_from_env();
    // Benign race: every thread resolves to the same table.
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

bool set_backend(Backend b) {
  const Ops* t = ops_for(b);
  if (t == nullptr) return false;
  g_active.store(t, std::memory_order_release);
  return true;
}

void reset_backend() {
  g_active.store(resolve_from_env(), std::memory_order_release);
}

Backend active_backend() { return ops().backend; }

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (const Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    if (ops_for(b) != nullptr) out.push_back(b);
  }
  return out;
}

}  // namespace surfos::util::simd
