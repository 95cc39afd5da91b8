// Shared provenance stamp for every BENCH_*.json: which library version and
// git commit produced the numbers. SURFOS_GIT_SHA comes from bench_stamp.hpp,
// which bench/git_stamp.cmake regenerates on every build: the short HEAD
// sha, "-dirty" when tracked files differ from HEAD, "unknown" outside a git
// checkout.
#pragma once

#include <ostream>

#include "bench_stamp.hpp"
#include "core/version.hpp"

namespace surfos::bench {

/// Writes the shared `version`/`git_sha` JSON fields (with trailing comma —
/// callers continue the object).
inline void write_meta(std::ostream& os) {
  os << "  \"version\": \"" << kVersionString << "\",\n";
  os << "  \"git_sha\": \"" << SURFOS_GIT_SHA << "\",\n";
}

}  // namespace surfos::bench
