// Appendix A: common-prefix violations imply balanced forks, proven without
// Catalan slots. The centerpiece is Theorem 9's constructive fork surgery:
// given a fork whose (viable) slot divergence is at least k+1, produce a
// decomposition w = xyz with |y| >= k and an x-balanced fork for xy.
//
// The surgery follows the proof:
//   1. pick a viable tine pair (t1, t2) maximizing the slot divergence (27),
//      then minimizing |l(t2) - l(t1)| (28), then maximizing length(t1) (29);
//   2. let u = t1 /\ t2, alpha = l(u), and beta = the first honest index at or
//      after l(t2); x = w_1..w_alpha, y = w_{alpha+1}..w_{beta-1};
//   3. "pinch" the fork at u (redirect every vertex of depth depth(u)+1 to
//      hang from u) — legal because maximality forces u to be the unique
//      deepest vertex of the x-prefix;
//   4. restrict to labels <= beta-1, drop subtrees deeper than the shorter of
//      the two divergent tines, and trim the longer tine's trailing
//      adversarial vertices; the result is x-balanced.
//
// The construction is sound for any fork (the result, when produced, is a
// verified x-balanced fork); completeness — that it succeeds whenever a
// k-CP^slot violation exists — holds for divergence-maximal forks, which is
// what the theorem quantifies over.
#pragma once

#include <optional>

#include "chars/char_string.hpp"
#include "fork/fork.hpp"

namespace mh {

/// The pinch operation F -> F^{|>u<|}: every edge toward a vertex of depth
/// depth(u)+1 is redirected to originate from u. Depths are preserved.
/// Requires every vertex at depth depth(u)+1 to carry a label > l(u)
/// (otherwise the result would not be a fork); throws when violated.
Fork pinch_at(const Fork& fork, VertexId u);

struct Theorem9Witness {
  std::size_t x_len = 0;  ///< alpha = |x|
  std::size_t y_len = 0;  ///< |y| >= k
  Fork balanced;          ///< the x-balanced fork for xy
};

/// Theorem 9: if the fork contains a pair of viable tines with slot
/// divergence >= k+1, construct the decomposition and the x-balanced fork.
/// Returns nullopt when no such pair exists or when the given fork is not
/// divergence-maximal enough for the surgery's invariants to hold.
std::optional<Theorem9Witness> theorem9_balanced_fork(const Fork& fork, const CharString& w,
                                                      std::size_t k);

}  // namespace mh
