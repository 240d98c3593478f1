// In-tree 64-bit Mersenne Twister whose state can be read and written.
//
// Stream- and state-compatible with libstdc++'s std::mt19937_64: the
// same seeding recurrence, the same refill of all 312 words once the
// read position reaches the end, the same tempering, and the same state
// (312 words plus the read position). It satisfies
// UniformRandomBitGenerator with constexpr min()/max() of the standard
// engine, so every std::*_distribution draws bit-identical values from
// it. The state accessors let the snapshot codec (stats/rng_codec.h)
// copy the words directly instead of round-tripping the engine through
// its iostream representation.
//
// operator() and refill() stay in the header: the particle filter draws
// from this engine twice per particle every epoch.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace uniloc::stats {

class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t state_size = 312;
  static constexpr result_type default_seed = 5489u;
  using State = std::array<std::uint64_t, state_size>;

  Mt19937_64() : Mt19937_64(default_seed) {}
  explicit Mt19937_64(result_type value) { seed(value); }

  void seed(result_type value) {
    x_[0] = value;
    for (std::size_t i = 1; i < state_size; ++i) {
      const std::uint64_t prev = x_[i - 1];
      x_[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
    }
    p_ = state_size;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (p_ >= state_size) refill();
    result_type z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

  void discard(unsigned long long z) {
    while (z > state_size - p_) {
      z -= state_size - p_;
      refill();
    }
    p_ += static_cast<std::size_t>(z);
  }

  /// The 312 state words and the read position, exactly as the standard
  /// engine holds them (and prints them, words first).
  const State& state() const { return x_; }
  std::size_t position() const { return p_; }

  /// Replace the whole state. A position past the end would make the
  /// next draw index out of bounds, so it is refused (state unchanged).
  bool set_state(const State& words, std::size_t position) {
    if (position > state_size) return false;
    x_ = words;
    p_ = position;
    return true;
  }

  friend bool operator==(const Mt19937_64&, const Mt19937_64&) = default;

 private:
  static constexpr std::size_t kShift = 156;  // m
  static constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
  static constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
  static constexpr std::uint64_t kLowerMask = ~kUpperMask;
  static constexpr std::uint64_t kInitMultiplier = 6364136223846793005ULL;

  static std::uint64_t twist(std::uint64_t hi, std::uint64_t lo,
                             std::uint64_t far) {
    const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
    return far ^ (y >> 1) ^ ((y & 1u) ? kMatrixA : 0u);
  }

  void refill() {
    std::size_t k = 0;
    for (; k < state_size - kShift; ++k) {
      x_[k] = twist(x_[k], x_[k + 1], x_[k + kShift]);
    }
    for (; k < state_size - 1; ++k) {
      x_[k] = twist(x_[k], x_[k + 1], x_[k + kShift - state_size]);
    }
    x_[state_size - 1] = twist(x_[state_size - 1], x_[0], x_[kShift - 1]);
    p_ = 0;
  }

  State x_{};
  std::size_t p_{state_size};
};

}  // namespace uniloc::stats
