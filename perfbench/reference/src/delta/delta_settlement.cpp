#include "delta/delta_settlement.hpp"

#include <algorithm>

#include "chars/walk.hpp"
#include "core/bounds.hpp"
#include "core/catalan.hpp"
#include "support/check.hpp"

namespace mh {

double theorem7_epsilon(const TetraLaw& law, std::size_t delta) {
  const SymbolLaw reduced = reduced_law(law, delta);
  return reduced.epsilon();
}

long double theorem7_bound(const TetraLaw& law, std::size_t delta, std::size_t k) {
  MH_REQUIRE(k >= 1);
  const SymbolLaw reduced = reduced_law(law, delta);
  if (reduced.epsilon() <= 0.0 || reduced.ph <= 0.0) return 1.0L;
  const long double miss_catalan = bound1_tail(reduced, k);
  const long double walk_fails =
      bound3_probability(reduced.epsilon(), delta, k);
  return std::min(1.0L, miss_catalan + walk_fails);
}

SettlementSeries delta_settlement_series(const TetraLaw& law, std::size_t delta,
                                         std::size_t k_max, DpPrecision precision) {
  MH_REQUIRE(k_max >= 1);
  const SymbolLaw reduced = reduced_law(law, delta);
  if (reduced.epsilon() <= 0.0) {
    // The reduced adversarial mass reaches 1/2: X_inf diverges and the
    // adversary sustains a maximum-length fork forever.
    SettlementSeries trivial;
    trivial.violation.assign(k_max + 1, 1.0L);
    trivial.always_violating = 1.0L;
    return trivial;
  }
  return exact_settlement_series(reduced, k_max, InitialReach::Stationary, precision);
}

long double delta_settlement_violation_probability(const TetraLaw& law, std::size_t delta,
                                                   std::size_t k, DpPrecision precision) {
  return delta_settlement_series(law, delta, k, precision).violation[k];
}

bool lemma2_event_holds(const CharString& reduced, std::size_t start, std::size_t k,
                        std::size_t delta) {
  MH_REQUIRE(start >= 1 && k >= 1);
  if (start + k - 1 > reduced.size()) return false;
  const CatalanFlags flags = catalan_flags(reduced);
  const CharWalk walk(reduced);
  for (std::size_t c = start; c <= start + k - 1; ++c) {
    if (!(flags.catalan[c - 1] && reduced.uniquely_honest(c))) continue;
    // S_{c+k+i} <= S_c - Delta for every observed i >= 0.
    const std::size_t from = c + k;
    bool descended = true;
    if (from <= reduced.size()) {
      if (walk.suffix_max(from) >
          walk.position(c) - static_cast<std::int64_t>(delta))
        descended = false;
    }
    if (descended) return true;
  }
  return false;
}

}  // namespace mh
