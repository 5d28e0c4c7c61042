// Deterministic, fast PRNG for simulations: xoshiro256** seeded via splitmix64.
//
// All experiments in this library take explicit seeds so every number in
// EXPERIMENTS.md is reproducible bit-for-bit. The generator satisfies the
// UniformRandomBitGenerator concept, so it composes with <random> distributions,
// but the helpers below (uniform / bernoulli / geometric) avoid libstdc++'s
// distribution objects for cross-platform reproducibility.
#pragma once

#include <cstdint>
#include <limits>

namespace mh {

/// splitmix64: used for seed expansion (public domain algorithm by S. Vigna).
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256**: the workhorse generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed = 0xdeadbeefULL) noexcept { reseed(seed); }

  constexpr void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of entropy.
  constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  constexpr bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Uniform integer in [0, n). Unbiased via rejection (n must be > 0).
  constexpr std::uint64_t below(std::uint64_t n) noexcept {
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  /// Derive an independent child generator (for per-thread / per-experiment streams).
  constexpr Rng split() noexcept { return Rng((*this)() ^ 0x9e3779b97f4a7c15ULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

/// Sample from a geometric law Pr[X = k] = (1-beta) * beta^k, k = 0, 1, 2, ...
/// (the shape of the dominant reach distribution X_inf in Eq. (9) of the paper).
std::uint64_t sample_geometric(Rng& rng, double beta);

}  // namespace mh
