// Content-addressed precompute store: cross-site / cross-epoch sharing of
// SceneChannel's precomputed SoA artifacts.
//
// A SceneChannel's precompute splits cleanly into an RX-independent part
// (the per-panel TX->element vectors f and the panel->panel cascade
// matrices) and a per-RX part (the element->RX vectors g plus the direct
// component h_dir), and every value is bit-deterministic in the scene
// inputs: geometry, materials, panel layout, TX placement, antenna
// patterns, frequency, and channel options (PR 4/6 determinism
// guarantees). That makes the artifacts content-addressable — a structural
// 128-bit digest (util/digest.hpp) over those inputs keys an immutable,
// refcounted artifact that any number of channels across any number of
// Fleet sites share by shared_ptr instead of recomputing. A 100-site fleet
// of identical rooms precomputes once; a daemon endpoint arriving at a
// position any site has seen before costs a cache hit.
//
// The store is process-global (like the thread pool and the telemetry
// registry), mutex-guarded, and bounded by a byte-budget LRU
// (SURFOS_PRECOMPUTE_CACHE, default 256 MiB). Eviction skips pinned
// entries: an artifact some live channel still references (use_count > 1
// under the store lock) is never dropped, so a hit can never invalidate a
// channel out from under its owner. Concurrent misses of the same key may
// build duplicates; the first publish wins and later builders adopt it, so
// sites stepped concurrently on one store stay value-identical.
//
// clear() forgets every resident artifact, so the next SceneChannel
// construction is a cold build through the same fill code — how tests and
// benches time or compare genuine fills.
// Telemetry: sim.precompute.{hits,misses,evictions} counters (scheduling-
// dependent across threads, hence _SCHED) and the sim.precompute.bytes
// gauge.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "em/cx.hpp"
#include "em/soa.hpp"
#include "util/digest.hpp"

namespace surfos::sim {

/// The store's byte budget, from SURFOS_PRECOMPUTE_CACHE (bytes; 0 = no
/// caching beyond pinned entries). Re-read per insert, so surfos-ctl
/// set-knob takes effect at the next publish.
std::size_t precompute_cache_bytes() noexcept;

/// RX-independent precompute for one scene digest: TX->element vectors and
/// panel->panel cascades. Immutable once published.
struct ScenePrecompute {
  std::vector<em::CxPlanes> f;                         ///< [panel]
  std::vector<std::vector<em::CxPlaneMat>> cascades;   ///< [q][p]
  std::size_t bytes = 0;  ///< Set by finalize_bytes() before publishing.

  void finalize_bytes() noexcept {
    std::size_t total = sizeof(*this);
    for (const em::CxPlanes& p : f) total += p.bytes();
    for (const auto& row : cascades) {
      for (const em::CxPlaneMat& m : row) total += m.bytes();
    }
    bytes = total;
  }
};

/// Per-RX-point precompute under one scene digest: element->RX vectors for
/// every panel plus the direct component. Immutable once published.
struct RxRowPrecompute {
  std::vector<em::CxPlanes> g;  ///< [panel]
  em::Cx h_dir{};
  std::size_t bytes = 0;

  void finalize_bytes() noexcept {
    std::size_t total = sizeof(*this);
    for (const em::CxPlanes& p : g) total += p.bytes();
    bytes = total;
  }
};

class PrecomputeStore {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;    ///< Current resident artifact bytes.
    std::size_t entries = 0;  ///< Current resident artifact count.
  };

  /// The process-wide store every SceneChannel shares.
  static PrecomputeStore& instance();

  /// Returns the scene artifact for `key`, building (outside the lock) and
  /// publishing it on a miss; `build` returns a finalized artifact. When
  /// concurrent callers race on one key, the first publish wins and the
  /// others adopt it.
  std::shared_ptr<const ScenePrecompute> acquire_scene(
      const util::ConfigDigest& key,
      const std::function<std::shared_ptr<const ScenePrecompute>()>& build);

  /// The row artifact for `key`, or nullptr on a miss (counted).
  std::shared_ptr<const RxRowPrecompute> lookup_row(
      const util::ConfigDigest& key);

  /// Publishes a freshly built row; returns the resident artifact (the
  /// published one, or an earlier concurrent publisher's — first wins).
  std::shared_ptr<const RxRowPrecompute> publish_row(
      const util::ConfigDigest& key,
      std::shared_ptr<const RxRowPrecompute> row);

  Stats stats() const;
  std::size_t bytes() const;
  /// Drops every resident entry (live channels keep their shared_ptrs;
  /// the store just forgets). Counters are monotonic and survive.
  void clear();

 private:
  enum class Kind : std::uint8_t { kScene, kRow };

  struct Key {
    Kind kind = Kind::kScene;
    util::ConfigDigest digest;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return static_cast<std::size_t>(
          (k.digest.lo ^ (k.digest.hi * 0x9e3779b97f4a7c15ull)) +
          static_cast<std::uint64_t>(k.kind));
    }
  };
  struct Entry {
    std::shared_ptr<const void> ptr;
    std::size_t bytes = 0;
    std::list<Key>::iterator lru;  ///< Position in lru_ (front = recent).
  };

  PrecomputeStore() = default;

  std::shared_ptr<const void> get(const Key& key);
  /// Inserts (or adopts the resident entry on a publish race) and enforces
  /// the byte budget. Returns the resident pointer.
  std::shared_ptr<const void> put(const Key& key,
                                  std::shared_ptr<const void> ptr,
                                  std::size_t artifact_bytes);
  void enforce_budget_locked();

  mutable std::mutex mutex_;
  std::unordered_map<Key, Entry, KeyHash> map_;
  std::list<Key> lru_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace surfos::sim
