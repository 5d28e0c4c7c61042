// The characteristic walk of Sections 4-5: S_0 = 0 and
//   S_t = S_{t-1} + 1  if w_t = A,
//   S_t = S_{t-1} - 1  if w_t is honest (h or H).
//
// An interval [lo, hi] is hH-heavy iff S_hi - S_{lo-1} < 0, which makes the walk
// the natural device for O(n) Catalan-slot detection:
//   * slot s is left-Catalan  iff S_s < min_{0 <= j < s} S_j (strict new minimum),
//   * slot s is right-Catalan iff w_s is honest and S_r <= S_s for every r >= s.
#pragma once

#include <cstdint>
#include <vector>

#include "chars/char_string.hpp"

namespace mh {

class CharWalk {
 public:
  explicit CharWalk(const CharString& w);

  [[nodiscard]] std::size_t length() const noexcept { return position_.size() - 1; }

  /// S_t for t in [0, n].
  [[nodiscard]] std::int64_t position(std::size_t t) const;

  /// min_{0 <= j <= t} S_j  and  max_{t <= j <= n} S_j.
  [[nodiscard]] std::int64_t prefix_min(std::size_t t) const;
  [[nodiscard]] std::int64_t suffix_max(std::size_t t) const;

  /// True iff S_s is a strict new minimum: S_s < S_j for all 0 <= j < s.
  [[nodiscard]] bool strict_new_minimum(std::size_t s) const;

 private:
  std::vector<std::int64_t> position_;    // S_0 .. S_n
  std::vector<std::int64_t> prefix_min_;  // prefix_min_[t] = min_{j<=t} S_j
  std::vector<std::int64_t> suffix_max_;  // suffix_max_[t] = max_{j>=t} S_j
};

}  // namespace mh
