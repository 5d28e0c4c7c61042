// The optimal online adversary A* of Figure 4 (Theorem 6): consumes a
// characteristic string one symbol at a time and maintains a *canonical* closed
// fork F for the prefix processed so far, i.e. a fork with
//
//   rho(F) = rho(w)   and   mu_x(F) = mu_x(y) for every decomposition w = xy.
//
// A canonical fork simultaneously witnesses the settlement attack against every
// slot, which is what makes A* "optimal online".
//
// Mechanics per honest symbol (adversarial symbols leave the fork untouched and
// implicitly grow every tine's reserve):
//   * Z = zero-reach tines, R = maximum-reach tines of F;
//   * extend the zero-reach tine z1 that diverges earliest from a max-reach
//     tine; on an H symbol with rho(F) = 0 also extend the matching r1
//     (a second concurrent honest block), doubling up on z1 itself when it is
//     the only zero-reach tine;
//   * if Z is empty (the string ends in a run of A's), extend a max-reach tine.
// Extensions are *conservative* (Definition 15): pad with gap-many adversarial
// vertices drawn from the tine's reserve, then place the honest leaf at
// height(F) + 1.
#pragma once

#include "chars/char_string.hpp"
#include "fork/fork.hpp"

namespace mh {

class AStarAdversary {
 public:
  AStarAdversary() = default;

  /// Feed the next symbol (slot |w|+1 of the string processed so far).
  void step(Symbol b);

  /// The canonical closed fork for the string processed so far.
  [[nodiscard]] const Fork& fork() const noexcept { return fork_; }
  [[nodiscard]] const CharString& processed() const noexcept { return w_; }

 private:
  void extend_conservatively(VertexId tine, std::uint32_t target_length, std::uint32_t label);

  Fork fork_;
  CharString w_;
};

/// Runs A* over the whole string and returns the canonical fork.
Fork build_canonical_fork(const CharString& w);

/// The Figure-4 selection rule, exposed for reuse (the settlement-game port of
/// A* stages the same choices through augmentation): given the closed fork for
/// `processed` and the upcoming honest symbol, returns the tines to extend
/// conservatively — one entry for a single extension, two for the H-with-
/// zero-reach double play (entries may coincide: extend that tine twice).
std::vector<VertexId> astar_extension_plan(const Fork& fork, const CharString& processed,
                                           Symbol next);

}  // namespace mh
