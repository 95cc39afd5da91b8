// Config digests: cheap, high-quality 128-bit fingerprints of the scene
// inputs a channel precompute depends on (geometry, materials, panel layout,
// TX/RX placement, antenna patterns, options).
//
// The digest is the content address of sim::PrecomputeStore's artifacts:
// two independent 64-bit streams — FNV-1a and a splitmix64-mixed fold — over
// the exact bit patterns of the input words. Hashing bit patterns (not
// rounded values) keeps the contract simple: a hit can only occur for inputs
// that are bit-identical, so a shared artifact is byte-identical to what a
// fresh fill would produce. With 128 independent bits, an accidental
// collision across a bounded store (thousands of entries) is ~2^-100 per
// lookup — far below hardware error rates.
#pragma once

#include <cstdint>
#include <cstddef>
#include <cstring>

namespace surfos::util {

struct ConfigDigest {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const ConfigDigest&, const ConfigDigest&) = default;
};

namespace detail {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t splitmix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace detail

/// Incremental digest builder: feed 64-bit words, read the running digest.
class DigestBuilder {
 public:
  void add_word(std::uint64_t word) noexcept {
    // FNV-1a over the word's bytes, batched per byte for exact FNV semantics.
    for (int b = 0; b < 8; ++b) {
      lo_ = (lo_ ^ ((word >> (8 * b)) & 0xffu)) * detail::kFnvPrime;
    }
    hi_ = detail::splitmix64(hi_ ^ word);
  }

  void add_double(double value) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    add_word(bits);
  }

  void add_size(std::size_t value) noexcept {
    add_word(static_cast<std::uint64_t>(value));
  }

  ConfigDigest digest() const noexcept { return {lo_, hi_}; }

 private:
  std::uint64_t lo_ = detail::kFnvOffset;
  std::uint64_t hi_ = 0x6a09e667f3bcc908ull;  // sqrt(2) fractional bits
};

/// Order-dependent combination of two digests (e.g. scene x RX point).
inline ConfigDigest combine(const ConfigDigest& a,
                            const ConfigDigest& b) noexcept {
  DigestBuilder builder;
  builder.add_word(a.lo);
  builder.add_word(a.hi);
  builder.add_word(b.lo);
  builder.add_word(b.hi);
  return builder.digest();
}

}  // namespace surfos::util
