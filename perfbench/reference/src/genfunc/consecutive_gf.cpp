#include "genfunc/consecutive_gf.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace mh {

ConsecutiveCatalanGF::ConsecutiveCatalanGF(const SymbolLaw& law, std::size_t order)
    : eps_(1.0L - 2.0L * static_cast<long double>(law.pA)),
      walk_(static_cast<long double>(law.pA)),
      m_hat_(order),
      m_smoothed_(order) {
  MH_REQUIRE(law.pA > 0.0 && law.pA < 0.5);

  const long double p = walk_.p;
  const long double q = walk_.q;

  const PowerSeries d = walk_.descent_series(order);
  const PowerSeries zd = d.shifted_up(1);
  const PowerSeries azd = walk_.ascent_of_zd(order);

  // E_hat = p Z D + q Z A(ZD)/A(1); A(1) = p/q so q/A(1) = q^2/p.
  const PowerSeries e_hat = zd.scaled(p) + azd.shifted_up(1).scaled(q * q / p);

  const PowerSeries denom =
      PowerSeries::constant(order, 1.0L) - e_hat.scaled(1.0L - eps_);
  m_hat_ = d.scaled(eps_) * denom.inverse();

  const long double beta = p / q;
  const PowerSeries smooth_denom =
      PowerSeries::constant(order, 1.0L) - d.scaled(beta);
  m_smoothed_ = smooth_denom.inverse().scaled(1.0L - beta) * m_hat_;
}

long double ConsecutiveCatalanGF::tail(std::size_t k) const {
  return std::max(0.0L, 1.0L - m_hat_.partial_sum(k));
}

long double ConsecutiveCatalanGF::smoothed_tail(std::size_t k) const {
  return std::max(0.0L, 1.0L - m_smoothed_.partial_sum(k));
}

std::optional<long double> ConsecutiveCatalanGF::e_hat_eval(long double z) const {
  const std::optional<long double> d = walk_.descent_eval(z);
  const std::optional<long double> a = walk_.ascent_of_zd_eval(z);
  if (!d || !a) return std::nullopt;
  const long double p = walk_.p;
  const long double q = walk_.q;
  return p * z * *d + (q * q / p) * z * *a;
}

long double ConsecutiveCatalanGF::radius() const {
  const long double r1 = walk_.composite_radius();
  const std::optional<long double> e_at_r1 = e_hat_eval(r1);
  if (e_at_r1 && (1.0L - eps_) * *e_at_r1 < 1.0L) return r1;
  long double lo = 1.0L, hi = r1;
  for (int iter = 0; iter < 200; ++iter) {
    const long double mid = 0.5L * (lo + hi);
    const std::optional<long double> e = e_hat_eval(mid);
    if (e && (1.0L - eps_) * *e < 1.0L)
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

}  // namespace mh
