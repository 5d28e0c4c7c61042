// Gap, reserve, and reach (Definition 13), and maximum reach rho(F)
// (Definition 14). The definitions are stated for closed forks; the formulas
// extend verbatim to any fork and callers that need the paper's exact setting
// check closedness themselves (tests do).
#pragma once

#include <cstdint>

#include "fork/fork.hpp"

namespace mh {

/// gap(t) = height(F) - length(t).
std::uint32_t gap(const Fork& fork, VertexId v);

/// reserve(t) = number of adversarial indices of w strictly after l(t).
std::uint32_t reserve(const Fork& fork, const CharString& w, VertexId v);

/// reach(t) = reserve(t) - gap(t).
std::int64_t reach(const Fork& fork, const CharString& w, VertexId v);

/// rho(F) = max_t reach(t); never negative for closed forks.
std::int64_t max_reach(const Fork& fork, const CharString& w);

/// Batch computation: reach of every vertex, indexed by VertexId.
std::vector<std::int64_t> all_reaches(const Fork& fork, const CharString& w);

}  // namespace mh
