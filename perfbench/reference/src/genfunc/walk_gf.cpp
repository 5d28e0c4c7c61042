#include "genfunc/walk_gf.hpp"

#include <cmath>

#include "support/check.hpp"

namespace mh {

WalkGF::WalkGF(long double p_up) : p(p_up), q(1.0L - p_up) {
  MH_REQUIRE(p_up > 0.0L && p_up < 0.5L);
}

namespace {

/// sum_m C_m a^{m+1} b^m Z^{2m+1} with C_m the Catalan numbers; shared shape of
/// the descent (a = q, b = p) and ascent (a = p, b = q) generating functions.
PowerSeries catalan_expansion(std::size_t order, long double a, long double b) {
  PowerSeries out(order);
  long double term = a;  // C_0 a^1 b^0
  for (std::size_t m = 0; 2 * m + 1 <= order; ++m) {
    out.set_coeff(2 * m + 1, term);
    // C_{m+1}/C_m = 2(2m+1)/(m+2); fold in one extra factor of a*b.
    term *= 2.0L * static_cast<long double>(2 * m + 1) / static_cast<long double>(m + 2) * a * b;
  }
  return out;
}

}  // namespace

PowerSeries WalkGF::descent_series(std::size_t order) const {
  return catalan_expansion(order, q, p);
}

PowerSeries WalkGF::ascent_series(std::size_t order) const {
  return catalan_expansion(order, p, q);
}

std::optional<long double> WalkGF::descent_eval(long double z) const {
  if (z == 0.0L) return 0.0L;
  const long double disc = 1.0L - 4.0L * p * q * z * z;
  if (disc < 0.0L) return std::nullopt;
  return (1.0L - sqrtl(disc)) / (2.0L * p * z);
}

std::optional<long double> WalkGF::ascent_eval(long double z) const {
  if (z == 0.0L) return 0.0L;
  const long double disc = 1.0L - 4.0L * p * q * z * z;
  if (disc < 0.0L) return std::nullopt;
  return (1.0L - sqrtl(disc)) / (2.0L * q * z);
}

long double WalkGF::walk_radius() const { return 1.0L / sqrtl(4.0L * p * q); }

PowerSeries WalkGF::ascent_of_zd(std::size_t order) const {
  const PowerSeries u = descent_series(order).shifted_up(1);  // U = Z D(Z)
  const PowerSeries inner =
      PowerSeries::constant(order, 1.0L) - (u * u).scaled(4.0L * p * q);
  const PowerSeries numerator = PowerSeries::constant(order, 1.0L) - inner.sqrt();
  return numerator.dividedBy(u.scaled(2.0L * q));
}

std::optional<long double> WalkGF::ascent_of_zd_eval(long double z) const {
  const std::optional<long double> d = descent_eval(z);
  if (!d) return std::nullopt;
  return ascent_eval(z * *d);
}

long double WalkGF::composite_radius() const {
  // Bisect for the largest z with both discriminants nonnegative. The
  // composite discriminant 1 - 4pq (z D(z))^2 is decreasing in z on [0, R_walk].
  long double lo = 1.0L;          // A(Z D(Z)) converges at 1 (D(1) = 1, A(1) = p/q)
  long double hi = walk_radius();
  auto in_domain = [&](long double z) {
    const std::optional<long double> d = descent_eval(z);
    if (!d) return false;
    const long double u = z * *d;
    return 1.0L - 4.0L * p * q * u * u >= 0.0L;
  };
  MH_ASSERT(in_domain(lo));
  for (int iter = 0; iter < 200; ++iter) {
    const long double mid = 0.5L * (lo + hi);
    if (in_domain(mid))
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

}  // namespace mh
