// Concrete adversarial strategies.
//
//   * PrivateChainAdversary — the classic double-spend attack on one slot:
//     fork just before the target slot, mint privately on every adversarial
//     leadership, release when the private chain matches the public length
//     after the confirmation window.
//   * BalanceAttacker — the protocol-level counterpart of the fork-theoretic
//     optimal adversary: keeps two chains of equal maximal length alive using
//     (a) tie-breaking to split concurrent honest leaders across branches
//     (this is where multiply honest slots help the attacker) and (b) its own
//     leaderships to re-level and extend both branches. Under the consistent
//     tie-breaking rule (A0') lever (a) disappears, which is Theorem 2's point.
//   * RandomizedAdversary — a seeded strategy-fuzzer: random minting targets,
//     random release scope, random per-recipient delays in [0, Delta], random
//     tie-breaking. It explores execution corners no hand-written strategy
//     reaches, which is what the differential oracle wants: whatever it does,
//     the analytic margin must still dominate the outcome.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "protocol/simulation.hpp"
#include "support/random.hpp"

namespace mh {

class PrivateChainAdversary : public Adversary {
 public:
  /// Attacks the settlement of `target_slot` with confirmation depth k.
  PrivateChainAdversary(std::size_t target_slot, std::size_t confirmation_depth);

  void on_slot_begin(std::size_t slot, Simulation& sim) override;

  [[nodiscard]] bool released() const noexcept { return released_; }
  [[nodiscard]] std::size_t private_length() const noexcept { return private_length_; }

 private:
  std::size_t target_slot_;
  std::size_t confirmation_depth_;
  BlockHash fork_point_ = 0;
  BlockHash private_tip_ = 0;
  std::size_t fork_point_length_ = 0;
  std::size_t private_length_ = 0;
  bool forked_ = false;
  bool released_ = false;
  std::uint64_t payload_ = 0x5eedULL;
};

class BalanceAttacker : public Adversary {
 public:
  BalanceAttacker() = default;

  void on_slot_begin(std::size_t slot, Simulation& sim) override;
  BlockHash break_tie(PartyId node, const std::vector<BlockHash>& candidates,
                      Simulation& sim) override;

  /// Are both branches populated and of equal, maximal length in `sim`?
  /// (Non-const: it first absorbs any blocks forged since the last slot hook.)
  [[nodiscard]] bool balanced(const Simulation& sim);

 private:
  /// 0 = not yet assigned, 1 = branch A, 2 = branch B.
  int branch_of(const Simulation& sim, BlockHash h);
  void absorb_new_blocks(const Simulation& sim);

  std::unordered_map<BlockHash, int> branch_;
  BlockHash root_a_ = 0;
  BlockHash root_b_ = 0;
  BlockHash tip_a_ = 0;
  BlockHash tip_b_ = 0;
  std::size_t len_a_ = 0;
  std::size_t len_b_ = 0;
  std::size_t seen_blocks_ = 0;
  std::uint64_t payload_ = 0xba1a0ceULL;
  std::size_t tie_calls_ = 0;
};

/// A seeded randomized strategy: every adversarial lever (minting parent,
/// injection scope and timing, delivery delays, tie-breaking) is drawn from
/// its own Rng, so the strategy space is sampled rather than scripted. All
/// choices respect the model's axioms (labels increase, delays <= Delta,
/// ties broken among the offered candidates), so executions stay inside the
/// fork framework and the oracle's domination invariants apply.
class RandomizedAdversary : public Adversary {
 public:
  explicit RandomizedAdversary(std::uint64_t seed) : rng_(seed) {}

  void on_slot_begin(std::size_t slot, Simulation& sim) override;
  std::vector<std::size_t> delivery_delays(const Block& block, std::size_t slot,
                                           Simulation& sim) override;
  BlockHash break_tie(PartyId node, const std::vector<BlockHash>& candidates,
                      Simulation& sim) override;

  [[nodiscard]] std::size_t minted() const noexcept { return minted_; }

 private:
  Rng rng_;
  std::size_t minted_ = 0;
  std::uint64_t payload_ = 0xf022edULL;
};

/// The strategies the oracle and the protocol experiments run.
enum class Strategy : std::uint8_t { PrivateChain = 0, Balance = 1, Randomized = 2 };

const char* strategy_name(Strategy s) noexcept;

/// Instantiates `strategy` against the settlement of `target_slot` at depth
/// k; `seed` feeds only the randomized strategy.
std::unique_ptr<Adversary> make_strategy(Strategy strategy, std::size_t target_slot,
                                         std::size_t k, std::uint64_t seed);

}  // namespace mh
