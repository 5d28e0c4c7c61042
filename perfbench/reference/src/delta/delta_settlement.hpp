// Theorem 7: (k, Delta)-settlement in the semi-synchronous setting, assembled
// from Lemma 2's decomposition
//
//   Pr[violation] <= Pr[no Catalan slot in the reduced window]     (Bound 1)
//                  + Pr[walk fails to descend Delta below and stay] (Bound 3)
//
// plus the string-level event checker used by the Monte-Carlo experiments.
#pragma once

#include "chars/char_string.hpp"
#include "core/exact_dp.hpp"
#include "delta/reduction.hpp"

namespace mh {

/// Admissibility condition (20): pA beta/f + (1 - beta) <= (1 - eps)/2 with
/// beta = (1-f)^Delta; equivalently the reduced adversarial mass stays below
/// one half. Returns the eps' achieved by the reduced law (<= 0 when the
/// condition fails).
double theorem7_epsilon(const TetraLaw& law, std::size_t delta);

/// Sharp numeric Theorem-7 bound on Pr[slot s is not (k, Delta)-settled].
long double theorem7_bound(const TetraLaw& law, std::size_t delta, std::size_t k);

/// The exact settlement series of the conservatively reduced law (Proposition
/// 4): the delta-synchronous analogue of `exact_settlement_series`, run on the
/// same banded DP kernel after collapsing the {Bot,h,H,A} law through
/// `reduced_law`. Sharper than `theorem7_bound` wherever the reduced law
/// keeps an honest majority; when it does not (eps' <= 0, Theorem 7
/// inapplicable) the series degenerates to the trivial bound P(k) = 1.
SettlementSeries delta_settlement_series(const TetraLaw& law, std::size_t delta,
                                         std::size_t k_max,
                                         DpPrecision precision = DpPrecision::Reference);

/// Single-point convenience: the exact (k, Delta) entry.
long double delta_settlement_violation_probability(const TetraLaw& law, std::size_t delta,
                                                   std::size_t k,
                                                   DpPrecision precision = DpPrecision::Reference);

/// The Lemma-2 event E on the reduced string w' = rho_Delta(w), for the window
/// y' = w'_{s'}..w'_{s'+k-1}: some slot c in the window is uniquely honest and
/// Catalan in w', and the walk satisfies S_{c+k+i} <= S_c - Delta for all
/// i >= 0 (within the observed horizon). If E holds the original slot is
/// (|y'|, Delta)-settled.
bool lemma2_event_holds(const CharString& reduced, std::size_t start, std::size_t k,
                        std::size_t delta);

}  // namespace mh
