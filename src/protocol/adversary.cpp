#include "protocol/adversary.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace mh {

const char* strategy_name(Strategy s) noexcept {
  switch (s) {
    case Strategy::PrivateChain: return "private-chain";
    case Strategy::Balance: return "balance";
    case Strategy::Randomized: return "randomized";
  }
  return "?";
}

std::unique_ptr<Adversary> make_strategy(Strategy strategy, std::size_t target_slot,
                                         std::size_t k, std::uint64_t seed) {
  switch (strategy) {
    case Strategy::PrivateChain: return std::make_unique<PrivateChainAdversary>(target_slot, k);
    case Strategy::Balance: return std::make_unique<BalanceAttacker>();
    case Strategy::Randomized: return std::make_unique<RandomizedAdversary>(seed);
  }
  return nullptr;
}

PrivateChainAdversary::PrivateChainAdversary(std::size_t target_slot,
                                             std::size_t confirmation_depth)
    : target_slot_(target_slot), confirmation_depth_(confirmation_depth) {
  MH_REQUIRE(target_slot >= 1);
}

void PrivateChainAdversary::on_slot_begin(std::size_t slot, Simulation& sim) {
  if (!forked_ && slot >= target_slot_) {
    // Fork from the best public chain as seen at the onset of the target slot.
    std::size_t best = 0;
    BlockHash head = genesis_block().hash;
    for (const HonestNode& node : sim.nodes())
      if (node.best_length() >= best) {
        best = node.best_length();
        head = node.best_head();
      }
    fork_point_ = head;
    fork_point_length_ = best;
    private_tip_ = head;
    private_length_ = best;
    forked_ = true;
  }
  if (!forked_ || released_) return;

  if (sim.schedule().leaders(slot).adversarial) {
    private_tip_ = sim.mint_adversarial(private_tip_, slot, payload_++).hash;
    ++private_length_;
  }

  std::size_t public_best = 0;
  for (const HonestNode& node : sim.nodes())
    public_best = std::max(public_best, node.best_length());

  if (slot > target_slot_ + confirmation_depth_ && private_length_ >= public_best &&
      private_length_ > fork_point_length_) {
    // Reveal the whole private chain; every node sees a maximal-length chain
    // that diverges before the target slot.
    for (BlockHash h : sim.global_tree().chain(private_tip_)) {
      if (sim.global_tree().length(h) <= fork_point_length_) continue;
      sim.network().inject_all(sim.global_tree().block(h), slot);
    }
    released_ = true;
  }
}

void BalanceAttacker::absorb_new_blocks(const Simulation& sim) {
  const std::span<const Block> blocks = sim.all_blocks();
  for (; seen_blocks_ < blocks.size(); ++seen_blocks_) {
    const Block& b = blocks[seen_blocks_];
    if (b.hash == genesis_block().hash) continue;
    const int branch = branch_of(sim, b.hash);
    const std::size_t len = sim.global_tree().length(b.hash);
    if (branch == 1 && len > len_a_) {
      len_a_ = len;
      tip_a_ = b.hash;
    } else if (branch == 2 && len > len_b_) {
      len_b_ = len;
      tip_b_ = b.hash;
    }
  }
}

int BalanceAttacker::branch_of(const Simulation& sim, BlockHash h) {
  if (h == genesis_block().hash) return 0;
  const auto cached = branch_.find(h);
  if (cached != branch_.end()) return cached->second;

  const BlockHash parent = sim.global_tree().block(h).parent;
  int branch;
  if (parent == genesis_block().hash) {
    // A fresh child of genesis founds branch A, then branch B; later children
    // are folded into the currently shorter branch.
    if (root_a_ == 0) {
      root_a_ = h;
      branch = 1;
    } else if (root_b_ == 0) {
      root_b_ = h;
      branch = 2;
    } else {
      branch = len_a_ <= len_b_ ? 1 : 2;
    }
  } else {
    branch = branch_of(sim, parent);
  }
  branch_[h] = branch;
  return branch;
}

void BalanceAttacker::on_slot_begin(std::size_t slot, Simulation& sim) {
  absorb_new_blocks(sim);
  if (!sim.schedule().leaders(slot).adversarial) return;

  auto extend = [&](BlockHash& tip, std::size_t& len, bool is_branch_a) {
    BlockHash parent = tip != 0 ? tip : genesis_block().hash;
    if (sim.global_tree().block(parent).slot >= slot) return;  // already minted here
    const Block b = sim.mint_adversarial(parent, slot, payload_++);
    sim.network().inject_all(b, slot);
    tip = b.hash;
    len = sim.global_tree().length(b.hash);
    branch_[b.hash] = is_branch_a ? 1 : 2;
    if (is_branch_a && root_a_ == 0) root_a_ = b.hash;
    if (!is_branch_a && root_b_ == 0) root_b_ = b.hash;
  };

  // Re-level the lagging branch, or grow both in lockstep when level (an
  // adversarial leadership may issue one block per chain). Decisions are made
  // on a snapshot so the second extension cannot overshoot the first.
  const std::size_t la = len_a_, lb = len_b_;
  if (la < lb) {
    extend(tip_a_, len_a_, true);
  } else if (lb < la) {
    extend(tip_b_, len_b_, false);
  } else {
    extend(tip_a_, len_a_, true);
    extend(tip_b_, len_b_, false);
  }
}

BlockHash BalanceAttacker::break_tie(PartyId, const std::vector<BlockHash>& candidates,
                                     Simulation& sim) {
  absorb_new_blocks(sim);
  // Alternate the preferred branch so concurrent leaders of one slot extend
  // different branches; within the preference, pick any candidate on it.
  const int preferred = (tie_calls_++ % 2 == 0) ? (len_a_ <= len_b_ ? 1 : 2)
                                                : (len_a_ <= len_b_ ? 2 : 1);
  for (BlockHash h : candidates)
    if (branch_of(sim, h) == preferred) return h;
  return candidates.front();
}

void RandomizedAdversary::on_slot_begin(std::size_t slot, Simulation& sim) {
  if (!sim.schedule().leaders(slot).adversarial) return;
  const std::size_t delta = sim.network().delta();

  // Candidate parents: the current maximum-length heads (aggressive play),
  // occasionally widened by a uniformly random earlier block (explorative
  // play); either way the label-increase axiom is respected.
  std::vector<BlockHash> parents;
  for (BlockHash h : sim.global_tree().max_length_heads())
    if (sim.global_tree().block(h).slot < slot) parents.push_back(h);
  if (parents.empty() || rng_.bernoulli(0.25)) {
    const std::span<const Block> blocks = sim.all_blocks();
    for (int tries = 0; tries < 4; ++tries) {
      const Block& b = blocks[rng_.below(blocks.size())];
      if (b.slot < slot) {
        parents.push_back(b.hash);
        break;
      }
    }
  }
  if (parents.empty()) return;

  const BlockHash parent = parents[rng_.below(parents.size())];
  const Block block = sim.mint_adversarial(parent, slot, payload_++);
  ++minted_;

  // Release policy: keep private, leak to one victim, or publish the whole
  // chain (ancestors ship along so no recipient sees an orphan), with an
  // adversary-chosen visibility slot within the Delta window.
  switch (rng_.below(4)) {
    case 0: break;  // stay private; a later mint may still publish ancestors
    case 1: {
      const PartyId victim = static_cast<PartyId>(rng_.below(sim.nodes().size()));
      const std::size_t visible = slot + rng_.below(delta + 1);
      sim.network().publish_chain(sim.global_tree(), block.hash, visible, victim);
      break;
    }
    default:
      sim.network().publish_chain(sim.global_tree(), block.hash, slot + rng_.below(delta + 1));
  }
}

std::vector<std::size_t> RandomizedAdversary::delivery_delays(const Block&, std::size_t,
                                                              Simulation& sim) {
  std::vector<std::size_t> delays(sim.nodes().size(), 0);
  const std::size_t delta = sim.network().delta();
  if (delta == 0) return delays;
  for (std::size_t& d : delays) d = rng_.below(delta + 1);
  return delays;
}

BlockHash RandomizedAdversary::break_tie(PartyId, const std::vector<BlockHash>& candidates,
                                         Simulation&) {
  return candidates[rng_.below(candidates.size())];
}

bool BalanceAttacker::balanced(const Simulation& sim) {
  absorb_new_blocks(sim);
  if (tip_a_ == 0 || tip_b_ == 0) return false;
  std::size_t best = 0;
  for (const HonestNode& node : sim.nodes()) best = std::max(best, node.best_length());
  return len_a_ == len_b_ && len_a_ >= best;
}

}  // namespace mh
