#include "fork/balanced.hpp"

#include <algorithm>
#include <limits>

#include "fork/reach.hpp"
#include "support/check.hpp"

namespace mh {

bool is_x_balanced(const Fork& fork, const CharString& w, std::size_t x_len) {
  MH_REQUIRE(x_len <= w.size());
  const std::vector<VertexId> heads = fork.longest_tines();
  for (std::size_t a = 0; a < heads.size(); ++a)
    for (std::size_t b = a + 1; b < heads.size(); ++b)
      if (fork.disjoint_over_suffix(heads[a], heads[b], x_len)) return true;
  return false;
}

bool is_balanced(const Fork& fork, const CharString& w) { return is_x_balanced(fork, w, 0); }

VertexId pad_with_adversarial(Fork& fork, const CharString& w, VertexId v,
                              std::uint32_t target_length) {
  MH_REQUIRE(fork.depth(v) <= target_length);
  std::uint32_t needed = target_length - fork.depth(v);
  VertexId head = v;
  for (std::size_t slot = fork.label(v) + 1; slot <= w.size() && needed > 0; ++slot) {
    if (!w.adversarial(slot)) continue;
    head = fork.add_vertex(head, static_cast<std::uint32_t>(slot));
    --needed;
  }
  MH_REQUIRE_MSG(needed == 0, "insufficient reserve to pad the tine to the target length");
  return head;
}

std::optional<Fork> extend_to_x_balanced(const Fork& fork, const CharString& w,
                                         std::size_t x_len) {
  // Prefer a witness made of two distinct tines: padding both to the current
  // height yields an x-balanced fork outright. Adversarial labels can be
  // reused across tines (reserve is a per-tine right, not a consumable pool),
  // so both pads draw from their own reserves independently.
  const std::vector<std::int64_t> reaches = all_reaches(fork, w);
  constexpr std::int64_t kNegInf = std::numeric_limits<std::int64_t>::min() / 4;

  std::int64_t best_distinct = kNegInf;
  VertexId d1 = kRoot, d2 = kRoot;
  std::int64_t best_self = kNegInf;
  VertexId s1 = kRoot;
  for (VertexId u = 0; u < fork.vertex_count(); ++u) {
    if (fork.label(u) <= x_len && reaches[u] > best_self) {
      best_self = reaches[u];
      s1 = u;
    }
    for (VertexId v = u + 1; v < fork.vertex_count(); ++v) {
      if (!fork.disjoint_over_suffix(u, v, x_len)) continue;
      const std::int64_t m = std::min(reaches[u], reaches[v]);
      if (m > best_distinct) {
        best_distinct = m;
        d1 = u;
        d2 = v;
      }
    }
  }

  Fork out = fork;
  if (best_distinct >= 0) {
    pad_with_adversarial(out, w, d1, out.height());
    pad_with_adversarial(out, w, d2, out.height());
  } else if (best_self >= 0) {
    // Split the self-pair witness into two fresh adversarial chains diverging
    // at the witness vertex. If the witness already sits at maximum depth the
    // chains need one extra level (and hence reach >= 1) to be distinct tines.
    const std::uint32_t gap_here = out.height() - out.depth(s1);
    const std::uint32_t target = gap_here >= 1 ? out.height() : out.height() + 1;
    if (gap_here == 0 && best_self < 1) return std::nullopt;
    pad_with_adversarial(out, w, s1, target);
    pad_with_adversarial(out, w, s1, target);
  } else {
    return std::nullopt;  // mu_x(F) < 0: Fact 6 rules out a balanced extension
  }
  MH_ASSERT(is_x_balanced(out, w, x_len));
  return out;
}

}  // namespace mh
