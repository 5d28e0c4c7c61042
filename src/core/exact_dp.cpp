#include "core/exact_dp.hpp"

#include <algorithm>
#include <cmath>

#include "core/dp_kernel.hpp"
#include "support/check.hpp"

namespace mh {

namespace {

// The fixed-horizon series driver on the banded kernel. Per step t -> t+1 the
// live margin band tightens from both sides toward the horizon: the top
// column falls to K-t-1 (A-mass above it is violating at every remaining k),
// the floor rises to -(K-t-1) (honest mass below it can violate at none),
// and the reach cap falls to K-t (all larger reaches are one equivalence
// class under clamping). Inside that band the kernel computes only the
// reachable cells: the seeded diagonal s = r plus the triangle s >= 2r - t,
// because the gap r - s grows only on an honest step taken at r = 0 (see
// dp_kernel.cpp). At K = 250 that is 1 027 469 cells over the series where
// the band holds 4 651 250, with every result bit-identical to the full band.
template <typename Scalar>
SettlementSeries settlement_series_impl(const SymbolLaw& law, std::size_t k_max,
                                        const ReachPmf& initial) {
  const auto K = static_cast<std::ptrdiff_t>(k_max);
  const auto pA = static_cast<Scalar>(law.pA);
  const auto ph = static_cast<Scalar>(law.ph);
  const auto pH = static_cast<Scalar>(law.pH);

  BandedDp<Scalar> dp(k_max);
  dp.seed(initial);

  SettlementSeries series;
  series.violation.assign(k_max + 1, 0.0L);
  for (std::ptrdiff_t t = 0; t <= K; ++t) {
    series.violation[static_cast<std::size_t>(t)] = static_cast<long double>(dp.nonneg_mass());
    if (t == K) break;
    const std::ptrdiff_t shi_next = K - t - 1;
    dp.step(pA, ph, pH, std::max(dp.slo() - 1, -shi_next), shi_next, K - t,
            /*safe_sink=*/true);
  }
  series.always_violating = static_cast<long double>(dp.viol());
  series.never_violating = static_cast<long double>(dp.safe());
  return series;
}

// Phase 1 of the eventual-settlement value: exact joint evolution to step k.
// Unlike the fixed-horizon series there is NO safe sink — a deeply negative
// margin can still recover after step k — so the band floor falls freely.
template <typename Scalar>
long double eventual_insecurity_impl(const SymbolLaw& law, std::size_t k,
                                     const ReachPmf& initial) {
  const auto K = static_cast<std::ptrdiff_t>(k);
  const auto pA = static_cast<Scalar>(law.pA);
  const auto ph = static_cast<Scalar>(law.ph);
  const auto pH = static_cast<Scalar>(law.pH);
  const auto beta = static_cast<Scalar>(reach_beta(law));

  BandedDp<Scalar> dp(k);
  dp.seed(initial);
  for (std::ptrdiff_t t = 0; t < K; ++t)
    dp.step(pA, ph, pH, dp.slo() - 1, K - t - 1, K - t, /*safe_sink=*/false);

  // Phase 2: at step k, mu >= 0 wins outright; mu = -m < 0 wins iff the bare
  // walk ever climbs back to 0: probability beta^m (gambler's ruin).
  std::vector<Scalar> beta_pow(k + 1, Scalar(1));
  for (std::size_t m = 1; m <= k; ++m) beta_pow[m] = beta_pow[m - 1] * beta;
  DpAccum<Scalar> total;
  total.add(dp.viol());
  dp.for_each_live([&](std::ptrdiff_t /*r*/, std::ptrdiff_t s, Scalar q) {
    if (q == Scalar(0)) return;
    total.add(s >= 0 ? q : q * beta_pow[static_cast<std::size_t>(-s)]);
  });
  return static_cast<long double>(total.value());
}

ReachPmf zero_reach(std::size_t k_max) {
  ReachPmf zero;
  zero.mass.assign(k_max + 1, 0.0L);
  zero.mass[0] = 1.0L;
  return zero;
}

ReachPmf initial_reach(const SymbolLaw& law, std::size_t k_max, InitialReach init) {
  return init == InitialReach::Zero ? zero_reach(k_max)
                                    : stationary_reach_distribution(law, k_max);
}

}  // namespace

SettlementSeries exact_settlement_series(const SymbolLaw& law, std::size_t k_max,
                                         const ReachPmf& initial, DpPrecision precision) {
  law.validate();
  MH_REQUIRE(k_max >= 1);
  MH_REQUIRE_MSG(initial.mass.size() >= k_max + 1, "initial reach law must cover r = 0..k_max");
  return precision == DpPrecision::Reference
             ? settlement_series_impl<long double>(law, k_max, initial)
             : settlement_series_impl<double>(law, k_max, initial);
}

SettlementSeries exact_settlement_series(const SymbolLaw& law, std::size_t k_max,
                                         InitialReach init, DpPrecision precision) {
  law.validate();
  MH_REQUIRE(k_max >= 1);
  return exact_settlement_series(law, k_max, initial_reach(law, k_max, init), precision);
}

long double settlement_violation_probability(const SymbolLaw& law, std::size_t k,
                                             InitialReach init, DpPrecision precision) {
  return exact_settlement_series(law, k, init, precision).violation[k];
}

long double eventual_settlement_insecurity(const SymbolLaw& law, std::size_t k, InitialReach init,
                                           DpPrecision precision) {
  law.validate();
  MH_REQUIRE(k >= 1);
  const ReachPmf initial = initial_reach(law, k, init);
  return precision == DpPrecision::Reference
             ? eventual_insecurity_impl<long double>(law, k, initial)
             : eventual_insecurity_impl<double>(law, k, initial);
}

}  // namespace mh
