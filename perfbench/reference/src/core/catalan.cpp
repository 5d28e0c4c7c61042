#include "core/catalan.hpp"

namespace mh {

CatalanFlags catalan_flags(const CharString& w) {
  const std::size_t n = w.size();
  CatalanFlags flags;
  flags.left.assign(n, false);
  flags.right.assign(n, false);
  flags.catalan.assign(n, false);

  const CharWalk walk(w);
  for (std::size_t s = 1; s <= n; ++s) {
    // Left-Catalan: every [l, s] is hH-heavy, i.e. S_s - S_{l-1} < 0 for all
    // l <= s, i.e. S_s < min_{0 <= j <= s-1} S_j.
    flags.left[s - 1] = walk.strict_new_minimum(s);
    // Right-Catalan: every [s, r] is hH-heavy, i.e. S_r < S_{s-1} for all
    // r >= s. Since S_s = S_{s-1} - 1 exactly when w_s is honest, this is
    // equivalent to: w_s honest and max_{r >= s} S_r <= S_s.
    flags.right[s - 1] = w.honest(s) && walk.suffix_max(s) <= walk.position(s);
    flags.catalan[s - 1] = flags.left[s - 1] && flags.right[s - 1];
  }
  return flags;
}

CatalanFlags catalan_flags_bruteforce(const CharString& w) {
  const std::size_t n = w.size();
  CatalanFlags flags;
  flags.left.assign(n, true);
  flags.right.assign(n, true);
  flags.catalan.assign(n, false);
  for (std::size_t s = 1; s <= n; ++s) {
    for (std::size_t l = 1; l <= s; ++l)
      if (!w.hH_heavy(l, s)) flags.left[s - 1] = false;
    for (std::size_t r = s; r <= n; ++r)
      if (!w.hH_heavy(s, r)) flags.right[s - 1] = false;
    flags.catalan[s - 1] = flags.left[s - 1] && flags.right[s - 1];
  }
  return flags;
}

bool is_left_catalan(const CharString& w, std::size_t s) {
  const CharWalk walk(w);
  return walk.strict_new_minimum(s);
}

bool is_right_catalan(const CharString& w, std::size_t s) {
  const CharWalk walk(w);
  return w.honest(s) && walk.suffix_max(s) <= walk.position(s);
}

bool is_catalan(const CharString& w, std::size_t s) {
  return is_left_catalan(w, s) && is_right_catalan(w, s);
}

std::size_t first_uniquely_honest_catalan(const CharString& w, std::size_t from,
                                          std::size_t to) {
  const CatalanFlags flags = catalan_flags(w);
  for (std::size_t s = from; s <= to && s <= w.size(); ++s)
    if (flags.catalan[s - 1] && w.uniquely_honest(s)) return s;
  return 0;
}

std::size_t first_consecutive_catalan_pair(const CharString& w, std::size_t from,
                                           std::size_t to) {
  const CatalanFlags flags = catalan_flags(w);
  for (std::size_t s = from; s + 1 <= to && s + 1 <= w.size(); ++s)
    if (flags.catalan[s - 1] && flags.catalan[s]) return s;
  return 0;
}

}  // namespace mh
