#include "core/reach_distribution.hpp"

#include <cmath>

#include "support/check.hpp"

namespace mh {

long double ReachPmf::total() const {
  long double sum = tail;
  for (long double m : mass) sum += m;
  return sum;
}

long double ReachPmf::upper_tail(std::size_t r) const {
  long double sum = tail;
  for (std::size_t i = r + 1; i < mass.size(); ++i) sum += mass[i];
  return sum;
}

ReachPmf finite_reach_distribution(const SymbolLaw& law, std::size_t m, std::size_t cap) {
  law.validate();
  const long double up = static_cast<long double>(law.pA);
  const long double down = 1.0L - up;

  // The tail bucket stays a genuine ">cap" class only when re-entry below the
  // cap is impossible within the remaining steps. Callers pick cap >= m, where
  // the tail stays empty; enforce that once, up front (the bound is a pure
  // function of the arguments, not of the per-step state).
  MH_REQUIRE_MSG(cap >= m, "cap must be at least m so the tail bucket stays exact");

  ReachPmf pmf;
  pmf.mass.assign(cap + 1, 0.0L);
  pmf.mass[0] = 1.0L;  // rho(eps) = 0
  std::vector<long double> next(cap + 1);
  for (std::size_t step = 0; step < m; ++step) {
    std::fill(next.begin(), next.end(), 0.0L);
    long double next_tail = pmf.tail;  // tail never descends below cap in one step
    for (std::size_t r = 0; r <= cap; ++r) {
      const long double q = pmf.mass[r];
      if (q == 0.0L) continue;
      if (r + 1 <= cap)
        next[r + 1] += q * up;
      else
        next_tail += q * up;
      next[r == 0 ? 0 : r - 1] += q * down;
    }
    pmf.mass.swap(next);
    pmf.tail = next_tail;
  }
  return pmf;
}

long double reach_beta(const SymbolLaw& law) {
  law.validate();
  MH_REQUIRE_MSG(law.pA < 0.5, "beta < 1 requires an honest majority of slots");
  return static_cast<long double>(law.pA) / (1.0L - static_cast<long double>(law.pA));
}

ReachPmf stationary_reach_distribution(const SymbolLaw& law, std::size_t cap) {
  const long double beta = reach_beta(law);
  ReachPmf pmf;
  pmf.mass.assign(cap + 1, 0.0L);
  long double power = 1.0L;
  for (std::size_t r = 0; r <= cap; ++r) {
    pmf.mass[r] = (1.0L - beta) * power;
    power *= beta;
  }
  pmf.tail = power;  // beta^{cap+1}
  return pmf;
}

bool pmf_dominated(const ReachPmf& lower, const ReachPmf& upper, long double tol) {
  // One suffix-sum pass instead of recomputing both tails from scratch at
  // every r: scan r downward, growing each running tail by one mass term.
  const std::size_t size = std::max(lower.mass.size(), upper.mass.size());
  long double lo = lower.tail, hi = upper.tail;
  for (std::size_t r = size; r-- > 0;) {
    if (r < lower.mass.size()) lo += lower.mass[r];
    if (r < upper.mass.size()) hi += upper.mass[r];
    if (lo > hi + tol) return false;
  }
  return true;
}

}  // namespace mh
