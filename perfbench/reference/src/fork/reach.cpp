#include "fork/reach.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace mh {

std::uint32_t gap(const Fork& fork, VertexId v) { return fork.height() - fork.depth(v); }

std::uint32_t reserve(const Fork& fork, const CharString& w, VertexId v) {
  const std::uint32_t l = fork.label(v);
  MH_REQUIRE(l <= w.size());
  if (l + 1 > w.size()) return 0;
  return static_cast<std::uint32_t>(w.count_adversarial(l + 1, w.size()));
}

std::int64_t reach(const Fork& fork, const CharString& w, VertexId v) {
  return static_cast<std::int64_t>(reserve(fork, w, v)) - static_cast<std::int64_t>(gap(fork, v));
}

std::int64_t max_reach(const Fork& fork, const CharString& w) {
  std::int64_t best = reach(fork, w, kRoot);
  for (VertexId v = 1; v < fork.vertex_count(); ++v)
    best = std::max(best, reach(fork, w, v));
  return best;
}

std::vector<std::int64_t> all_reaches(const Fork& fork, const CharString& w) {
  std::vector<std::int64_t> out(fork.vertex_count());
  for (VertexId v = 0; v < out.size(); ++v) out[v] = reach(fork, w, v);
  return out;
}

}  // namespace mh
