// The descent / ascent stopping-time generating functions of Section 5 for the
// epsilon-biased walk with up-probability p = Pr[A] and down-probability
// q = 1 - p:
//
//   D(Z) = (1 - sqrt(1 - 4pq Z^2)) / (2pZ)   (first descent; probability GF)
//   A(Z) = (1 - sqrt(1 - 4pq Z^2)) / (2qZ)   (first ascent; defective: A(1) = p/q)
//
// Series coefficients follow the Catalan-number expansion
//   D(Z) = sum_m C_m q^{m+1} p^m Z^{2m+1},  A(Z) = sum_m C_m p^{m+1} q^m Z^{2m+1},
// and the closed forms above provide real evaluation inside the radius of
// convergence 1/sqrt(4pq) = 1/sqrt(1 - eps^2).
#pragma once

#include <optional>

#include "genfunc/power_series.hpp"

namespace mh {

struct WalkGF {
  long double p = 0.0L;  ///< up-step probability (adversarial slot)
  long double q = 0.0L;  ///< down-step probability (honest slot)

  explicit WalkGF(long double p_up);

  [[nodiscard]] PowerSeries descent_series(std::size_t order) const;
  [[nodiscard]] PowerSeries ascent_series(std::size_t order) const;

  /// Closed-form evaluations; nullopt outside the domain (negative discriminant).
  [[nodiscard]] std::optional<long double> descent_eval(long double z) const;
  [[nodiscard]] std::optional<long double> ascent_eval(long double z) const;

  /// Radius of convergence of D and A: 1/sqrt(4pq).
  [[nodiscard]] long double walk_radius() const;

  /// A(Z D(Z)) as a truncated series, computed via the closed form
  /// (1 - sqrt(1 - 4pq U^2)) / (2q U) with U = Z D(Z). This is the
  /// "ascend-then-match-the-minimum" walk of Bounds 1 and 2.
  [[nodiscard]] PowerSeries ascent_of_zd(std::size_t order) const;

  /// Closed-form A(z D(z)); nullopt outside the composite domain.
  [[nodiscard]] std::optional<long double> ascent_of_zd_eval(long double z) const;

  /// Largest z such that z D(z) stays in the domain of A, i.e. the radius R1 of
  /// Eq. (5); found by bisection on the composite discriminant.
  [[nodiscard]] long double composite_radius() const;
};

}  // namespace mh
