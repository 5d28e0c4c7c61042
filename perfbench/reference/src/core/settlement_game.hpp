// The (D, T; s, k)-settlement game of Section 2.2, played at the fork level.
//
// The challenger executes the honest longest-chain plays; a ForkAdversary
// chooses (a) how many honest vertices a multiply honest slot creates,
// (b) which maximum-length tine each one extends (the A0 tie-breaking lever),
// and (c) arbitrary adversarial augmentations between slots. Under the
// consistent tie-breaking axiom A0' the challenger overrides (b): every
// honest vertex of a slot extends the same, deterministically chosen tine.
//
// The game is the semantic anchor for everything else: A* is one strategy
// (the optimal one, Theorem 6), the protocol simulator realizes the same game
// over a network, and the recurrence of Theorem 5 prices every strategy.
#pragma once

#include <cstddef>
#include <vector>

#include "chars/char_string.hpp"
#include "fork/fork.hpp"

namespace mh {

class ForkAdversary {
 public:
  virtual ~ForkAdversary() = default;

  /// Number of honest vertices for an H slot (>= 1; h slots are fixed at 1).
  virtual std::size_t honest_multiplicity(std::size_t /*slot*/, const Fork&,
                                          const CharString&) {
    return 1;
  }

  /// Under A0: which maximum-length tine does honest vertex `index` of this
  /// slot extend? `candidates` holds the heads of all maximal tines.
  virtual VertexId choose_tip(std::size_t /*slot*/, std::size_t /*index*/,
                              const std::vector<VertexId>& candidates, const Fork&,
                              const CharString&) {
    return candidates.front();
  }

  /// Adversarial augmentation after slot `slot` (game step 3(b)/(c)): may add
  /// vertices labeled with adversarial slots <= slot. The challenger validates
  /// nothing here; tests do.
  virtual void augment(std::size_t /*slot*/, Fork&, const CharString&) {}
};

struct GameOptions {
  /// A0' (consistent tie-breaking): the challenger picks the extension tine
  /// deterministically (min head hash stand-in: smallest (depth, label, id))
  /// and all concurrent honest vertices extend it.
  bool consistent_tie_breaking = false;
};

/// Plays the game over the whole string; returns the final fork A_T.
Fork play_settlement_game(const CharString& w, ForkAdversary& adversary,
                          const GameOptions& options = {});

/// Did the adversary win the (s, k)-settlement game with this final fork?
/// (Two maximum-length tines diverging prior to s, per Definition 3; callers
/// wanting the any-time variant replay prefixes.)
bool adversary_wins(const Fork& fork, const CharString& w, std::size_t s, std::size_t k);

// ---------------------------------------------------------------------------
// Strategies

/// Plays greedily for two long diverging chains: doubles up on multiply honest
/// slots whenever the two deepest tines are level, splits concurrent leaders
/// across them, and spends adversarial slots re-leveling the shorter branch.
/// A fork-level mirror of the protocol BalanceAttacker.
class GreedyBalanceStrategy : public ForkAdversary {
 public:
  std::size_t honest_multiplicity(std::size_t slot, const Fork& fork,
                                  const CharString& w) override;
  VertexId choose_tip(std::size_t slot, std::size_t index,
                      const std::vector<VertexId>& candidates, const Fork& fork,
                      const CharString& w) override;
  void augment(std::size_t slot, Fork& fork, const CharString& w) override;
};

/// The optimal adversary A* expressed through the game interface: pads the
/// Figure-4 zero-reach tine(s) to maximal length during augmentation so the
/// challenger's next honest vertex lands exactly where A* wants it. Playing
/// this strategy through the game must reproduce the canonical fork margins
/// (tested against Theorem 5/6).
class AStarGameStrategy : public ForkAdversary {
 public:
  std::size_t honest_multiplicity(std::size_t slot, const Fork& fork,
                                  const CharString& w) override;
  VertexId choose_tip(std::size_t slot, std::size_t index,
                      const std::vector<VertexId>& candidates, const Fork& fork,
                      const CharString& w) override;
  void augment(std::size_t slot, Fork& fork, const CharString& w) override;

 private:
  /// Tines padded during the last augmentation, in extension order.
  std::vector<VertexId> planned_tips_;
};

}  // namespace mh
