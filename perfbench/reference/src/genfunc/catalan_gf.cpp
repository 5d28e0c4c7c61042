#include "genfunc/catalan_gf.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace mh {

CatalanGF::CatalanGF(const SymbolLaw& law, std::size_t order)
    : law_(law),
      walk_(static_cast<long double>(law.pA)),
      c_hat_(order),
      c_smoothed_(order) {
  law.validate();
  MH_REQUIRE_MSG(law.ph > 0.0, "Bound 1 requires ph > 0");

  const long double p = walk_.p;
  const long double q = walk_.q;
  const long double qh = static_cast<long double>(law.ph);
  const long double qH = q - qh;
  const long double eps = q - p;
  MH_REQUIRE(qH >= -1e-15L);

  const PowerSeries zd = walk_.descent_series(order).shifted_up(1);  // Z D(Z)
  const PowerSeries azd = walk_.ascent_of_zd(order);                 // A(Z D(Z))

  // F(Z) = p Z D(Z) + qh Z A(Z D(Z)) + qH Z.
  const PowerSeries f = zd.scaled(p) + azd.shifted_up(1).scaled(qh) +
                        PowerSeries::monomial(order, qH, 1);

  // C_hat(Z) = (qh eps / q) Z / (1 - F(Z)).
  const PowerSeries one_minus_f = PowerSeries::constant(order, 1.0L) - f;
  c_hat_ = PowerSeries::monomial(order, qh * eps / q, 1) * one_minus_f.inverse();

  // X_inf(D(Z)) = (1 - beta) / (1 - beta D(Z)), beta = p / q.
  const long double beta = p / q;
  const PowerSeries denom =
      PowerSeries::constant(order, 1.0L) - walk_.descent_series(order).scaled(beta);
  c_smoothed_ = denom.inverse().scaled(1.0L - beta) * c_hat_;
}

long double CatalanGF::tail(std::size_t k) const {
  return std::max(0.0L, 1.0L - c_hat_.partial_sum(k));
}

long double CatalanGF::smoothed_tail(std::size_t k) const {
  return std::max(0.0L, 1.0L - c_smoothed_.partial_sum(k));
}

std::optional<long double> CatalanGF::f_eval(long double z) const {
  const std::optional<long double> d = walk_.descent_eval(z);
  const std::optional<long double> a = walk_.ascent_of_zd_eval(z);
  if (!d || !a) return std::nullopt;
  const long double qh = static_cast<long double>(law_.ph);
  const long double qH = walk_.q - qh;
  return walk_.p * z * *d + qh * z * *a + qH * z;
}

long double CatalanGF::radius() const {
  const long double r1 = walk_.composite_radius();
  // F is increasing and convex on [0, r1); R2 solves F(z) = 1 if the root lies
  // inside the domain, otherwise the radius is the domain edge R1.
  const std::optional<long double> f_at_r1 = f_eval(r1);
  if (f_at_r1 && *f_at_r1 < 1.0L) return r1;
  long double lo = 1.0L, hi = r1;
  for (int iter = 0; iter < 200; ++iter) {
    const long double mid = 0.5L * (lo + hi);
    const std::optional<long double> f = f_eval(mid);
    if (f && *f < 1.0L)
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

}  // namespace mh
