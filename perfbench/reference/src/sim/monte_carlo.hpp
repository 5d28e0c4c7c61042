// Monte-Carlo estimators for the stochastic events of the analysis. These
// complement the exact DP (cross-validation) and cover events for which the
// paper gives only bounds (Catalan scarcity, Delta-settlement, CP windows).
// All estimators run on the sharded experiment engine (src/engine): sample i
// always draws from the i-th counter-based stream of `seed`, so estimates are
// bit-for-bit identical for every `threads` setting.
#pragma once

#include <cstddef>

#include "chars/bernoulli.hpp"
#include "delta/semi_sync.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"

namespace mh {

struct McOptions {
  std::size_t samples = 100'000;
  std::uint64_t seed = 1;
  /// Horizon slack appended after the window so right-Catalan/settlement
  /// checks see "the future" (geometric decay makes ~k + 4/eps plenty).
  std::size_t horizon_slack = 512;
  /// Worker threads for the sharded engine; 0 = hardware concurrency. Results
  /// are bit-for-bit independent of this knob (counter-based sample streams).
  std::size_t threads = 0;
};

/// Pr[mu_x(y) >= 0] with |y| = k and rho(x) ~ X_inf, by simulating the scalar
/// Theorem-5 recurrence (validates the exact DP).
Proportion mc_settlement_violation(const SymbolLaw& law, std::size_t k, const McOptions& opt);

/// Pr[mu_x(y_j) >= 0 for some j in [k, k + extra]]: the "violation at any time
/// >= k within the horizon" variant (monotone in `extra`).
Proportion mc_settlement_violation_eventual(const SymbolLaw& law, std::size_t k,
                                            std::size_t extra, const McOptions& opt);

/// Pr[no uniquely honest Catalan slot in w_1..w_k] (the Bound 1 event; the
/// string continues for horizon_slack further slots).
Proportion mc_no_unique_catalan(const SymbolLaw& law, std::size_t k, const McOptions& opt);

/// Pr[no two consecutive Catalan slots in w_1..w_k] (the Bound 2 event).
Proportion mc_no_consecutive_catalan(const SymbolLaw& law, std::size_t k, const McOptions& opt);

/// Pr[the Lemma-2 event fails for a window of length k at the start of the
/// reduced string] — the Monte-Carlo side of Theorem 7.
Proportion mc_delta_settlement_failure(const TetraLaw& law, std::size_t delta, std::size_t k,
                                       const McOptions& opt);

/// Pr[some length-k window of a length-T string has no uniquely honest
/// Catalan slot] — the Theorem-8 (k-CP^slot) union event.
Proportion mc_cp_window_failure(const SymbolLaw& law, std::size_t horizon, std::size_t k,
                                const McOptions& opt);

/// Distribution (histogram) of the first uniquely honest Catalan slot over
/// strings of length `horizon`; bin `horizon+1` counts "none found".
std::vector<std::size_t> mc_first_catalan_histogram(const SymbolLaw& law, std::size_t horizon,
                                                    const McOptions& opt);

}  // namespace mh
