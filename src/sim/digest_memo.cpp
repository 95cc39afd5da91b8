#include "sim/digest_memo.hpp"

#include "core/config.hpp"
#include "telemetry/telemetry.hpp"

namespace surfos::sim {

// Read per construction, not latched: 0 is a valid setting (memoization
// off); negatives and junk fall back to the default instead of wrapping.
DigestMemo::DigestMemo() : DigestMemo(core::knob("SURFOS_EVAL_CACHE", 64, 0)) {}

DigestMemo::DigestMemo(std::size_t capacity) : capacity_(capacity) {}

std::size_t DigestMemo::size() const {
  std::lock_guard lock(mutex_);
  return map_.size();
}

bool DigestMemo::lookup(const util::ConfigDigest& key,
                        std::vector<double>& out) const {
  if (capacity_ == 0) return false;
  std::lock_guard lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    SURFOS_COUNT_SCHED("sim.memo.misses", 1);
    return false;
  }
  ++stats_.hits;
  SURFOS_COUNT_SCHED("sim.memo.hits", 1);
  out.assign(it->second.begin(), it->second.end());
  return true;
}

bool DigestMemo::lookup(const util::ConfigDigest& key, double& out) const {
  if (capacity_ == 0) return false;
  std::lock_guard lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end() || it->second.size() != 1) {
    ++stats_.misses;
    SURFOS_COUNT_SCHED("sim.memo.misses", 1);
    return false;
  }
  ++stats_.hits;
  SURFOS_COUNT_SCHED("sim.memo.hits", 1);
  out = it->second.front();
  return true;
}

void DigestMemo::store(const util::ConfigDigest& key,
                       std::span<const double> values) {
  if (capacity_ == 0) return;
  std::lock_guard lock(mutex_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    // Concurrent evaluators of the same config both store; results are
    // deterministic per key, so overwriting is value-neutral.
    it->second.assign(values.begin(), values.end());
    return;
  }
  while (map_.size() >= capacity_ && !order_.empty()) {
    map_.erase(order_.front());
    order_.pop_front();
    ++stats_.evictions;
    SURFOS_COUNT_SCHED("sim.memo.evictions", 1);
  }
  map_.emplace(key, std::vector<double>(values.begin(), values.end()));
  order_.push_back(key);
}

void DigestMemo::store(const util::ConfigDigest& key, double value) {
  store(key, std::span<const double>(&value, 1));
}

void DigestMemo::clear() {
  std::lock_guard lock(mutex_);
  map_.clear();
  order_.clear();
}

DigestMemo::Stats DigestMemo::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace surfos::sim
