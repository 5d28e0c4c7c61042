// Balanced and x-balanced forks (Definition 18) and the constructive half of
// Fact 6: a fork with mu_x(F) >= 0 extends, using only adversarial vertices,
// into an x-balanced fork.
#pragma once

#include <optional>

#include "fork/fork.hpp"
#include "fork/margin.hpp"

namespace mh {

/// F is x-balanced iff two distinct maximum-length tines are disjoint over the
/// suffix past x_len. x_len = 0 gives the plain "balanced" notion.
bool is_x_balanced(const Fork& fork, const CharString& w, std::size_t x_len);
bool is_balanced(const Fork& fork, const CharString& w);

/// Pads the tine ending at `v` with adversarial vertices (labels drawn from the
/// adversarial slots of w after l(v), in increasing order) until its length
/// reaches `target_length`. Requires reserve(v) >= target_length - depth(v).
/// Returns the new head.
VertexId pad_with_adversarial(Fork& fork, const CharString& w, VertexId v,
                              std::uint32_t target_length);

/// Fact 6 (constructive direction): given a fork with mu_x(F) >= 0, extend the
/// margin-witness tines with adversarial vertices so both reach the height of
/// the augmented fork; the result is x-balanced. Returns nullopt when
/// mu_x(F) < 0 (no balanced extension exists by Fact 6).
std::optional<Fork> extend_to_x_balanced(const Fork& fork, const CharString& w,
                                         std::size_t x_len);

}  // namespace mh
