// Distributions of the initial reach rho(x):
//
//   * X_m   — the law of rho(x) for |x| = m under an i.i.d. symbol law; a
//             reflected +-1 walk on the nonnegative integers (A steps up with
//             probability pA, honest symbols step down, clamped at 0);
//   * X_inf — the dominant stationary law of Eq. (9):
//             Pr[X_inf = r] = (1 - beta) beta^r with beta = (1-eps)/(1+eps),
//             which stochastically dominates every X_m ([4, Lemma 6.1]).
//
// Table 1 conditions on |x| -> infinity and therefore seeds the settlement DP
// with X_inf; the finite-m law is used by tests (dominance, convergence).
#pragma once

#include <cstddef>
#include <vector>

#include "chars/bernoulli.hpp"

namespace mh {

/// Probability mass function over r = 0..(size-1); masses beyond the cap are
/// accumulated in `tail`.
struct ReachPmf {
  std::vector<long double> mass;
  long double tail = 0.0L;

  [[nodiscard]] long double total() const;
  /// Pr[X > r] including the tail bucket. O(mass.size()) per call — for all
  /// tails at once, run a suffix-sum scan as pmf_dominated does.
  [[nodiscard]] long double upper_tail(std::size_t r) const;
};

/// The law of rho(x), |x| = m, capped at `cap` (exact: the excess is in tail).
ReachPmf finite_reach_distribution(const SymbolLaw& law, std::size_t m, std::size_t cap);

/// X_inf truncated at `cap`; tail = beta^{cap+1} exactly.
ReachPmf stationary_reach_distribution(const SymbolLaw& law, std::size_t cap);

/// beta = (1 - eps) / (1 + eps) = pA / (1 - pA).
long double reach_beta(const SymbolLaw& law);

/// CDF-wise stochastic dominance: every upper tail of `lower` is <= that of
/// `upper` (within tolerance). Used to verify X_m <= X_inf.
bool pmf_dominated(const ReachPmf& lower, const ReachPmf& upper, long double tol = 1e-12L);

}  // namespace mh
