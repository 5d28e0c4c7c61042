#include "fork/margin.hpp"

#include <algorithm>
#include <limits>

#include "fork/reach.hpp"
#include "support/check.hpp"

namespace mh {

namespace {

constexpr std::int64_t kNegInf = std::numeric_limits<std::int64_t>::min() / 4;

struct SubtreeBest {
  std::int64_t reach = kNegInf;
  VertexId arg = kRoot;
};

/// subtree_best[v] = (max reach in subtree of v, witnessing vertex).
/// Children always carry larger ids than parents (append-only construction),
/// so a reverse scan computes the aggregation without explicit recursion.
std::vector<SubtreeBest> subtree_bests(const Fork& fork, const std::vector<std::int64_t>& reaches) {
  std::vector<SubtreeBest> best(fork.vertex_count());
  for (VertexId v = static_cast<VertexId>(fork.vertex_count()); v-- > 0;) {
    best[v] = SubtreeBest{reaches[v], v};
    for (VertexId c : fork.children(v))
      if (best[c].reach > best[v].reach) best[v] = best[c];
  }
  return best;
}

}  // namespace

MarginWitness relative_margin_witness(const Fork& fork, const CharString& w, std::size_t x_len) {
  MH_REQUIRE(x_len <= w.size());
  const std::vector<std::int64_t> reaches = all_reaches(fork, w);
  const std::vector<SubtreeBest> best = subtree_bests(fork, reaches);

  MarginWitness out{kRoot, kRoot, kNegInf};
  auto consider = [&](VertexId t1, VertexId t2, std::int64_t value) {
    if (value > out.value) out = MarginWitness{t1, t2, value};
  };

  for (VertexId p : fork.all_vertices()) {
    if (fork.label(p) > x_len) continue;
    // Self-pair (p, p): a tine whose head lies in x is disjoint from itself
    // over the suffix.
    consider(p, p, reaches[p]);

    // (p, u) with u strictly below p, and (u, v) below two distinct children:
    // both pairs have p as their deepest common vertex.
    SubtreeBest top1, top2;
    for (VertexId c : fork.children(p)) {
      const SubtreeBest& b = best[c];
      if (b.reach > top1.reach) {
        top2 = top1;
        top1 = b;
      } else if (b.reach > top2.reach) {
        top2 = b;
      }
    }
    if (top1.reach > kNegInf) consider(p, top1.arg, std::min(reaches[p], top1.reach));
    if (top2.reach > kNegInf) consider(top1.arg, top2.arg, std::min(top1.reach, top2.reach));
  }

  MH_ASSERT_MSG(out.value > kNegInf, "the root self-pair is always admissible");
  return out;
}

std::int64_t relative_margin(const Fork& fork, const CharString& w, std::size_t x_len) {
  return relative_margin_witness(fork, w, x_len).value;
}

std::int64_t margin(const Fork& fork, const CharString& w) {
  return relative_margin(fork, w, 0);
}

std::int64_t relative_margin_bruteforce(const Fork& fork, const CharString& w,
                                        std::size_t x_len) {
  MH_REQUIRE(x_len <= w.size());
  const std::vector<std::int64_t> reaches = all_reaches(fork, w);
  std::int64_t out = kNegInf;
  const std::size_t n = fork.vertex_count();
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = u; v < n; ++v) {
      if (!fork.disjoint_over_suffix(u, v, x_len)) continue;
      out = std::max(out, std::min(reaches[u], reaches[v]));
    }
  return out;
}

}  // namespace mh
