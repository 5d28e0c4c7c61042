// Stochastic dominance on characteristic strings (Definition 6) under the
// coordinatewise partial order with h < H < A (Section 2.2).
//
// Monotone couplings: to show W <= B in the settlement analysis one exhibits a
// coupling (W, B) with W <= B pointwise. `coupled_sample` realizes the standard
// inverse-CDF coupling: a single uniform drives both laws, so whenever law2 is
// "more adversarial" than law1 coordinatewise (in the CDF sense below), the
// sampled strings compare. Used by tests of the dominance claims in Thms. 1/2.
#pragma once

#include <utility>

#include "chars/bernoulli.hpp"

namespace mh {

/// The partial order on strings of equal length: x <= y iff x_i <= y_i for all i
/// with h < H < A. Returns false for strings of unequal length.
[[nodiscard]] bool leq(const CharString& x, const CharString& y);

/// Single-symbol CDF order: law1 "<= " law2 iff for every down-set of {h,H,A}
/// (namely {h} and {h,H}) law1 assigns at least as much mass. Equivalent to
/// law1.pA <= law2.pA and law1.ph >= law2.ph + (slack allowed on pH).
[[nodiscard]] bool symbol_law_dominated(const SymbolLaw& law1, const SymbolLaw& law2);

/// Inverse-CDF coupled sample: one uniform per slot drives both laws with the
/// symbol order h < H < A. If symbol_law_dominated(law1, law2), the results
/// satisfy leq(first, second) always.
[[nodiscard]] std::pair<CharString, CharString> coupled_sample(const SymbolLaw& law1,
                                                               const SymbolLaw& law2,
                                                               std::size_t length, Rng& rng);

}  // namespace mh
