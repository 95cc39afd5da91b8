#include "sim/precompute_store.hpp"

#include "core/config.hpp"
#include "telemetry/telemetry.hpp"

namespace surfos::sim {

std::size_t precompute_cache_bytes() noexcept {
  return core::knob(core::Knob::kPrecomputeCache);
}

PrecomputeStore& PrecomputeStore::instance() {
  static PrecomputeStore store;
  return store;
}

std::shared_ptr<const void> PrecomputeStore::get(const Key& key) {
  std::lock_guard lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    SURFOS_COUNT_SCHED("sim.precompute.misses", 1);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  ++hits_;
  SURFOS_COUNT_SCHED("sim.precompute.hits", 1);
  return it->second.ptr;
}

std::shared_ptr<const void> PrecomputeStore::put(const Key& key,
                                                 std::shared_ptr<const void> ptr,
                                                 std::size_t artifact_bytes) {
  std::lock_guard lock(mutex_);
  if (const auto it = map_.find(key); it != map_.end()) {
    // Publish race: an earlier builder won. Adopt its artifact so every
    // racer shares one copy (values are digest-determined, so which build
    // survives is value-neutral).
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return it->second.ptr;
  }
  lru_.push_front(key);
  map_.emplace(key, Entry{ptr, artifact_bytes, lru_.begin()});
  bytes_ += artifact_bytes;
  enforce_budget_locked();
  SURFOS_GAUGE_SET("sim.precompute.bytes", static_cast<double>(bytes_));
  return ptr;
}

void PrecomputeStore::enforce_budget_locked() {
  const std::size_t budget = precompute_cache_bytes();
  if (bytes_ <= budget) return;
  // Walk from least-recent, skipping pinned entries (use_count > 1 means a
  // live channel still holds the artifact — the freshly inserted entry is
  // always pinned by its publisher's copy, so it can never evict itself).
  auto it = lru_.end();
  while (bytes_ > budget && it != lru_.begin()) {
    --it;
    const auto map_it = map_.find(*it);
    if (map_it->second.ptr.use_count() > 1) continue;
    bytes_ -= map_it->second.bytes;
    map_.erase(map_it);
    it = lru_.erase(it);
    ++evictions_;
    SURFOS_COUNT_SCHED("sim.precompute.evictions", 1);
  }
}

std::shared_ptr<const ScenePrecompute> PrecomputeStore::acquire_scene(
    const util::ConfigDigest& key,
    const std::function<std::shared_ptr<const ScenePrecompute>()>& build) {
  const Key k{Kind::kScene, key};
  if (auto hit = get(k)) {
    return std::static_pointer_cast<const ScenePrecompute>(hit);
  }
  // Build outside the lock: scene fills are the expensive path and distinct
  // scenes must not serialize on each other.
  std::shared_ptr<const ScenePrecompute> built = build();
  const std::size_t artifact_bytes = built->bytes;
  return std::static_pointer_cast<const ScenePrecompute>(
      put(k, std::move(built), artifact_bytes));
}

std::shared_ptr<const RxRowPrecompute> PrecomputeStore::lookup_row(
    const util::ConfigDigest& key) {
  if (auto hit = get(Key{Kind::kRow, key})) {
    return std::static_pointer_cast<const RxRowPrecompute>(hit);
  }
  return nullptr;
}

std::shared_ptr<const RxRowPrecompute> PrecomputeStore::publish_row(
    const util::ConfigDigest& key, std::shared_ptr<const RxRowPrecompute> row) {
  const std::size_t artifact_bytes = row->bytes;
  return std::static_pointer_cast<const RxRowPrecompute>(
      put(Key{Kind::kRow, key}, std::move(row), artifact_bytes));
}

PrecomputeStore::Stats PrecomputeStore::stats() const {
  std::lock_guard lock(mutex_);
  Stats out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  out.bytes = bytes_;
  out.entries = map_.size();
  return out;
}

std::size_t PrecomputeStore::bytes() const {
  std::lock_guard lock(mutex_);
  return bytes_;
}

void PrecomputeStore::clear() {
  std::lock_guard lock(mutex_);
  map_.clear();
  lru_.clear();
  bytes_ = 0;
  SURFOS_GAUGE_SET("sim.precompute.bytes", 0.0);
}

}  // namespace surfos::sim
