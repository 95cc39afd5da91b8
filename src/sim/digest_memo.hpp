// Digest memoization: bounded, digest-keyed (util/digest.hpp) result vectors
// for configurations the orchestrator replays across optimizer restarts,
// line-search revisits and measure() re-sweeps. A memo hit returns the stored
// vector, so memoized results are byte-identical to recomputation by
// construction.
//
// Capacity comes from the SURFOS_EVAL_CACHE knob (entries; 0 disables
// memoization), read through core::knob when a memo is built, so a
// `surfos-ctl set-knob` applies to every memo constructed afterwards.
// Hit/miss/eviction counts land in the sim.memo.* telemetry counters.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/digest.hpp"

namespace surfos::sim {

/// Bounded, thread-safe digest -> value-vector memo with FIFO eviction.
/// Scalars are stored as size-1 vectors. Capacity 0 disables storage.
class DigestMemo {
 public:
  /// Capacity from the SURFOS_EVAL_CACHE knob (unset/invalid -> 64).
  DigestMemo();
  explicit DigestMemo(std::size_t capacity);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const;

  /// On hit, copies the stored vector into `out` and returns true.
  bool lookup(const util::ConfigDigest& key, std::vector<double>& out) const;
  /// Scalar convenience: returns the stored value on hit.
  bool lookup(const util::ConfigDigest& key, double& out) const;

  void store(const util::ConfigDigest& key, std::span<const double> values);
  void store(const util::ConfigDigest& key, double value);

  void clear();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  Stats stats() const;

 private:
  struct KeyHash {
    std::size_t operator()(const util::ConfigDigest& d) const noexcept {
      return static_cast<std::size_t>(d.lo ^ (d.hi * 0x9e3779b97f4a7c15ull));
    }
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<util::ConfigDigest, std::vector<double>, KeyHash> map_;
  std::deque<util::ConfigDigest> order_;  ///< Insertion order for eviction.
  mutable Stats stats_;
};

}  // namespace surfos::sim
