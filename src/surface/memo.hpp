// Per-call memo for the surface-config projection: a realized config holds
// few distinct values (a column-granular 2-bit panel has at most four phases
// over 64 elements), so realize/quantize/coefficients compute each pure
// per-element function once per distinct input and hand every element the
// same bits it would have computed itself. Keys are exact bit patterns, so
// -0.0 and 0.0 (or two NaNs with different payloads) stay distinct.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace surfos::surface {

inline std::uint64_t bits_of(double x) noexcept {
  return std::bit_cast<std::uint64_t>(x);
}

/// Remembers up to N (key, value) pairs, first come first kept; once full a
/// new key is computed without being stored.
template <class Key, class Value, std::size_t N = 8>
class DistinctMemo {
 public:
  template <class F>
  Value operator()(const Key& key, F&& compute) {
    for (std::size_t i = 0; i < size_; ++i) {
      if (keys_[i] == key) return values_[i];
    }
    const Value value = compute();
    if (size_ < N) {
      keys_[size_] = key;
      values_[size_] = value;
      ++size_;
    }
    return value;
  }

 private:
  std::array<Key, N> keys_{};
  std::array<Value, N> values_{};
  std::size_t size_ = 0;
};

}  // namespace surfos::surface
