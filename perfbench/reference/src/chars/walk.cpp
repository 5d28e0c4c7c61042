#include "chars/walk.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace mh {

CharWalk::CharWalk(const CharString& w) {
  const std::size_t n = w.size();
  position_.resize(n + 1);
  position_[0] = 0;
  for (std::size_t t = 1; t <= n; ++t)
    position_[t] = position_[t - 1] + (w.adversarial(t) ? 1 : -1);

  prefix_min_.resize(n + 1);
  prefix_min_[0] = position_[0];
  for (std::size_t t = 1; t <= n; ++t) prefix_min_[t] = std::min(prefix_min_[t - 1], position_[t]);

  suffix_max_.resize(n + 1);
  suffix_max_[n] = position_[n];
  for (std::size_t t = n; t-- > 0;) suffix_max_[t] = std::max(suffix_max_[t + 1], position_[t]);
}

std::int64_t CharWalk::position(std::size_t t) const {
  MH_REQUIRE(t < position_.size());
  return position_[t];
}

std::int64_t CharWalk::prefix_min(std::size_t t) const {
  MH_REQUIRE(t < prefix_min_.size());
  return prefix_min_[t];
}

std::int64_t CharWalk::suffix_max(std::size_t t) const {
  MH_REQUIRE(t < suffix_max_.size());
  return suffix_max_[t];
}

bool CharWalk::strict_new_minimum(std::size_t s) const {
  MH_REQUIRE(s >= 1 && s < position_.size());
  return position_[s] < prefix_min_[s - 1];
}

}  // namespace mh
