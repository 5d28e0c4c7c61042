#include "core/astar.hpp"

#include <algorithm>
#include <limits>

#include "fork/reach.hpp"
#include "support/check.hpp"

namespace mh {

std::vector<VertexId> astar_extension_plan(const Fork& fork, const CharString& processed,
                                           Symbol next) {
  MH_REQUIRE(next != Symbol::A);
  const std::vector<std::int64_t> reaches = all_reaches(fork, processed);
  const std::int64_t rho = *std::max_element(reaches.begin(), reaches.end());
  MH_ASSERT(rho >= 0);

  std::vector<VertexId> zero, maximal;
  for (VertexId v = 0; v < fork.vertex_count(); ++v) {
    if (reaches[v] == 0) zero.push_back(v);
    if (reaches[v] == rho) maximal.push_back(v);
  }

  if (zero.empty()) {
    // Only possible after a trailing run of A's (every tine's reach was lifted
    // above zero). No decomposition has mu_x(F) = 0, so a single conservative
    // extension of any maximum-reach tine preserves canonicity.
    MH_ASSERT(rho >= 1);
    return {maximal.front()};
  }

  // z1: zero-reach tine diverging earliest from some max-reach tine.
  VertexId z1 = zero.front();
  std::uint32_t best_div = std::numeric_limits<std::uint32_t>::max();
  for (VertexId z : zero)
    for (VertexId r : maximal) {
      const std::uint32_t div = fork.label(fork.lca(z, r));
      if (div < best_div) {
        best_div = div;
        z1 = z;
      }
    }

  if (next == Symbol::h || rho >= 1) return {z1};

  // next = H with rho = 0 (so R = Z): extend the earliest-diverging pair of
  // zero-reach tines; if only one exists, extend it twice — the two new leaves
  // diverge at its head, which is what keeps mu_x pinned at 0 for every x past
  // that head (the second recurrence case of Theorem 5).
  if (zero.size() >= 2) {
    VertexId za = zero[0], zb = zero[1];
    std::uint32_t div = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t i = 0; i < zero.size(); ++i)
      for (std::size_t j = i + 1; j < zero.size(); ++j) {
        const std::uint32_t d = fork.label(fork.lca(zero[i], zero[j]));
        if (d < div) {
          div = d;
          za = zero[i];
          zb = zero[j];
        }
      }
    return {za, zb};
  }
  return {z1, z1};
}

void AStarAdversary::extend_conservatively(VertexId tine, std::uint32_t target_length,
                                           std::uint32_t label) {
  // Pad with adversarial vertices drawn from the tine's reserve (the first
  // adversarial slots after its head), then place the honest leaf. Reserves
  // are per-tine rights, so concurrent extensions may reuse slot labels.
  MH_ASSERT(fork_.depth(tine) < target_length);
  std::uint32_t pads = target_length - 1 - fork_.depth(tine);
  VertexId head = tine;
  for (std::size_t slot = fork_.label(tine) + 1; slot <= w_.size() && pads > 0; ++slot) {
    if (!w_.adversarial(slot)) continue;
    head = fork_.add_vertex(head, static_cast<std::uint32_t>(slot));
    --pads;
  }
  MH_ASSERT_MSG(pads == 0, "conservative extension requires reach >= 0");
  fork_.add_vertex(head, label);
}

void AStarAdversary::step(Symbol b) {
  const auto slot = static_cast<std::uint32_t>(w_.size() + 1);
  if (b == Symbol::A) {
    w_.push_back(b);
    return;
  }
  const std::uint32_t target = fork_.height() + 1;
  for (VertexId tine : astar_extension_plan(fork_, w_, b))
    extend_conservatively(tine, target, slot);
  w_.push_back(b);
}

Fork build_canonical_fork(const CharString& w) {
  AStarAdversary adversary;
  for (Symbol s : w.symbols()) adversary.step(s);
  return adversary.fork();
}

}  // namespace mh
