// Slot settlement (Definition 3), the settlement game, and the string-level
// violation predicates the evaluation section computes.
//
// The paper reports (Table 1) the probability that mu_x(y) >= 0 for |y| = k,
// i.e. that the optimal adversary holds two maximum-length chains diverging
// before slot s = |x|+1 precisely when the k-th slot after s concludes. We
// expose that predicate, the "within horizon" variant (a violation at any
// time >= k before the end of the string), and fork-level structural checks.
#pragma once

#include "chars/char_string.hpp"
#include "fork/fork.hpp"

namespace mh {

/// Do the two maximum-length tines disagree about slot s (different vertices
/// labeled s, or only one of them carries such a vertex)?
bool diverge_prior_to(const Fork& fork, VertexId t1, VertexId t2, std::size_t s);

/// Fork-level violation: F contains two maximum-length tines diverging prior
/// to s (Definition 3 applied to this single fork).
bool settlement_violation_in_fork(const Fork& fork, std::size_t s);

/// Table-1 semantics: mu_x(y) >= 0 for x = w_1..w_{s-1} and |y| = k.
/// Requires s - 1 + k <= |w|.
bool margin_violation_at(const CharString& w, std::size_t s, std::size_t k);

/// Game semantics over the observed horizon: mu_x(y_j) >= 0 for some
/// j in [k, |w| - s + 1] (the adversary may win at any time >= s + k - 1).
bool margin_violation_within(const CharString& w, std::size_t s, std::size_t k);

/// Sufficient settlement condition via Theorem 3 + Eq. (1): a uniquely honest
/// Catalan slot in [s, s+k-1] forces every later viable chain through a unique
/// vertex, settling slot s with confirmation depth k.
bool settled_via_catalan(const CharString& w, std::size_t s, std::size_t k);

}  // namespace mh
