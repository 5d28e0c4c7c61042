// The common prefix property (Section 9). k-CP^slot asserts that for every
// pair of viable tines t1, t2 with l(t1) <= l(t2), the trim of t1 to labels
// <= l(t1) - k is a prefix of t2. A k-CP (block-depth) violation implies a
// k-CP^slot violation, so bounding the latter bounds both.
#pragma once

#include "chars/char_string.hpp"
#include "core/bounds.hpp"
#include "fork/fork.hpp"

namespace mh {

/// A tine is viable (Section 2) if its length is >= the depth of every honest
/// vertex with label <= its own.
bool is_viable_tine(const Fork& fork, const CharString& w, VertexId v);

/// Does the fork satisfy k-CP^slot (Definition 24)?
bool satisfies_k_cp_slot(const Fork& fork, const CharString& w, std::size_t k);

/// Slot divergence of the fork (Definition 25): max over viable tine pairs of
/// l(t1) - l(t1 /\ t2) with l(t1) <= l(t2). A fork violates k-CP^slot iff its
/// slot divergence is >= k + 1.
std::size_t slot_divergence(const Fork& fork, const CharString& w);

/// Sufficient string-level guarantee via Eq. (25) + Theorem 3: w satisfies
/// k-CP^slot whenever every k-slot window contains a uniquely honest Catalan
/// slot. Returns true when that sufficient condition holds.
bool cp_slot_guaranteed_by_catalan(const CharString& w, std::size_t k);

/// Theorem 8 bound: Pr[w violates k-CP^slot] <= T * Bound1-tail(k).
long double theorem8_bound(const SymbolLaw& law, std::size_t horizon, std::size_t k);

}  // namespace mh
