// Counter-based RNG stream splitting for the parallel experiment engine.
//
// Every sample index i gets its own xoshiro256** stream whose seed is a pure
// function of (root seed, i). Shards can therefore process any subset of the
// index space on any thread and still produce, collectively, the exact same
// draws as a serial sweep — determinism is a property of the index space, not
// of the schedule. This replaces the sequential `Rng::split()` chain, which
// can only be evaluated in order.
#pragma once

#include <cstdint>

#include "support/random.hpp"

namespace mh::engine {

class SeedSequence {
 public:
  explicit constexpr SeedSequence(std::uint64_t root) noexcept : root_(root) {}

  /// Seed of the index-th stream: two splitmix64 rounds over a golden-ratio
  /// counter, so neighbouring indices (and neighbouring roots) decorrelate.
  [[nodiscard]] constexpr std::uint64_t derive(std::uint64_t index) const noexcept {
    std::uint64_t s = root_ + 0x9e3779b97f4a7c15ULL * (index + 1);
    const std::uint64_t a = splitmix64(s);
    return a ^ splitmix64(s);
  }

  /// The index-th independent generator (Rng expands the seed further).
  [[nodiscard]] constexpr Rng stream(std::uint64_t index) const noexcept {
    return Rng(derive(index));
  }

  [[nodiscard]] constexpr std::uint64_t root() const noexcept { return root_; }

 private:
  std::uint64_t root_;
};

}  // namespace mh::engine
