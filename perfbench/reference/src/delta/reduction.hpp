// The Delta-reduction map rho_Delta of Definition 22, which lifts the
// synchronous analysis to the Delta-synchronous setting:
//
//   * empty slots vanish;
//   * an honest slot survives as itself only if the next Delta slots contain
//     no honest slot (i.e. are all in {Bot, A}); otherwise it becomes A.
//
// The map induces a bijection pi from non-empty slots of w onto positions of
// w' = rho_Delta(w) and, crucially, a fork isomorphism (Proposition 3): every
// Delta-fork for w is a synchronous fork for w' after relabeling.
#pragma once

#include <vector>

#include "chars/bernoulli.hpp"
#include "chars/char_string.hpp"
#include "delta/semi_sync.hpp"

namespace mh {

struct ReductionResult {
  CharString reduced;                ///< rho_Delta(w)
  std::vector<std::size_t> pi;       ///< pi[j] = original slot of reduced position j+1
  std::vector<std::size_t> inverse;  ///< inverse[t-1] = reduced position of slot t (0 if empty)
};

/// Applies rho_Delta exactly as in Definition 22: an honest slot survives iff
/// the next Delta slots contain no honest slot. Delta = 0 deletes empty slots.
ReductionResult reduce(const TetraString& w, std::size_t delta);

/// The conservative variant used by the stochastic analysis (Proposition 4's
/// segment decomposition): an honest slot survives only when *immediately*
/// followed by at least Delta empty slots. Its output is coordinatewise more
/// adversarial than `reduce`'s (so every bound proven for it transfers), and
/// its symbols are genuinely i.i.d. with the law of `reduced_law` below.
ReductionResult reduce_conservative(const TetraString& w, std::size_t delta);

/// Proposition 4 / Eq. (22): the i.i.d. law of the conservative reduction's
/// symbols (exact for positions that exclude the last Delta slots):
///   Pr[h] = ph alpha/f, Pr[H] = pH alpha/f, Pr[A] = 1 - alpha + pA alpha/f,
/// with f = 1 - pBot and alpha = (1-f)^Delta.
SymbolLaw reduced_law(const TetraLaw& law, std::size_t delta);

}  // namespace mh
