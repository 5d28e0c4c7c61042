// The exact settlement-probability engine of Section 6.6 (the Table 1 engine).
//
// It evolves the joint law of (rho(x y_t), mu_x(y_t)) under the Theorem-5
// recurrence, seeded with the reach law of x (X_inf for |x| -> infinity, as in
// Table 1, or any explicit ReachPmf). The reported quantity is
//
//     P(k) = Pr[ mu_x(y) >= 0 ],  |y| = k,
//
// the probability that the optimal adversary holds two maximum-length chains
// diverging before slot |x|+1 at the close of the k-th subsequent slot.
//
// Exactness + O(K^3) total cost for the whole series come from two lossless
// state reductions relative to the horizon K:
//   * margin sinks: a state with mu > K - t can never drop below 0 by the
//     horizon (it violates at *every* remaining k) and one with mu < -(K - t)
//     can never recover (violates at none); both leave the live state space;
//   * reach collapse: the recurrence reads rho only through "rho > 0 at
//     mu = 0", and a state with rho > K - t keeps rho > 0 through the horizon,
//     so all such reaches form one equivalence class.
// The X_inf tail above K is exactly the always-violating mass beta^{K+1}.
// Both entry points run on the banded gather kernel (core/dp_kernel.hpp) and
// take a DpPrecision: the long double Reference path reproduces the original
// dense scatter implementation bit for bit; the double Fast path trades the
// last few digits (relative error ~1e-14, pinned by tests/test_dp_kernel.cpp)
// for SIMD-able arithmetic and half the memory traffic.
#pragma once

#include <cstddef>
#include <vector>

#include "chars/bernoulli.hpp"
#include "core/dp_kernel.hpp"
#include "core/reach_distribution.hpp"

namespace mh {

enum class InitialReach {
  Zero,        ///< rho(x) = 0 (e.g. x = eps): P(k) conditioned on a fresh start
  Stationary,  ///< rho(x) ~ X_inf (the |x| -> infinity regime of Table 1)
};

struct SettlementSeries {
  /// violation[k] = P(k) for k = 0..k_max (violation[0] = 1: mu_x(eps) >= 0).
  std::vector<long double> violation;
  /// Mass that was provably violating at every k <= k_max (diagnostic).
  long double always_violating = 0.0L;
  /// Mass that provably violates at no k <= k_max (diagnostic).
  long double never_violating = 0.0L;
};

/// Full series P(0..k_max) for the i.i.d. law. O(k_max^3) time, O(k_max^2) space.
SettlementSeries exact_settlement_series(const SymbolLaw& law, std::size_t k_max,
                                         InitialReach init = InitialReach::Stationary,
                                         DpPrecision precision = DpPrecision::Reference);

/// Same, seeded with an arbitrary initial reach law (e.g. X_m for finite |x|).
/// `initial.mass` must cover r = 0..k_max; excess mass and `initial.tail` are
/// folded into the always-violating sink (exact, since mu_0 = rho_0 > k_max).
SettlementSeries exact_settlement_series(const SymbolLaw& law, std::size_t k_max,
                                         const ReachPmf& initial,
                                         DpPrecision precision = DpPrecision::Reference);

/// Single-point convenience: the Table 1 entry for (law, k).
long double settlement_violation_probability(const SymbolLaw& law, std::size_t k,
                                             InitialReach init = InitialReach::Stationary,
                                             DpPrecision precision = DpPrecision::Reference);

/// The full game value of the settlement game (Definition 5 semantics): the
/// probability that the optimal adversary wins at SOME observation time
/// >= k, over the infinite future:  Pr[exists j >= k : mu_x(y_j) >= 0].
///
/// Computation: the joint (rho, mu) law is evolved exactly to step k; beyond
/// the first hitting time of mu = 0 the pinning cases never apply while
/// mu < 0, so the remaining process is a bare +-1 walk and the classical
/// gambler's ruin gives Pr[return to 0 from -m] = beta^m in closed form.
long double eventual_settlement_insecurity(const SymbolLaw& law, std::size_t k,
                                           InitialReach init = InitialReach::Stationary,
                                           DpPrecision precision = DpPrecision::Reference);

}  // namespace mh
