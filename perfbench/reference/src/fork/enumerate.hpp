// Exhaustive enumeration of forks for tiny characteristic strings.
//
// This is a *test oracle*: margins, settlement predicates, UVP and Catalan
// characterizations are all defined as maxima over all forks, and for strings
// of length <= 6 we can simply visit the fork space and take the maximum
// directly. The space is infinite in principle (adversarial slots may label
// any number of vertices), so the enumeration bounds per-slot multiplicities;
// upper-bound checks (Proposition 1) are exact regardless, and the matching
// lower bounds come from the A* adversary.
#pragma once

#include <cstddef>
#include <functional>

#include "fork/fork.hpp"

namespace mh {

struct EnumerationOptions {
  std::size_t max_adversarial_per_slot = 2;  ///< vertices added per A slot (0..max)
  std::size_t max_honest_per_H_slot = 2;     ///< vertices added per H slot (1..max)
  bool closed_only = true;                   ///< visit only closed forks
  std::size_t max_visits = 5'000'000;        ///< safety valve; throws when exceeded
};

/// Visits every fork for w realizable under the multiplicity bounds. Forks are
/// constructed respecting (F1)-(F4); the visitor receives each fork by const
/// reference (copies are the visitor's business).
void enumerate_forks(const CharString& w, const EnumerationOptions& options,
                     const std::function<void(const Fork&)>& visit);

/// Convenience: max of a statistic over all (closed) forks for w.
std::int64_t max_over_forks(const CharString& w, const EnumerationOptions& options,
                            const std::function<std::int64_t(const Fork&)>& statistic);

}  // namespace mh
