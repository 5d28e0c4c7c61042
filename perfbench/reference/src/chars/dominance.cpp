#include "chars/dominance.hpp"

namespace mh {

bool leq(const CharString& x, const CharString& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t t = 1; t <= x.size(); ++t)
    if (adversarial_rank(x.at(t)) > adversarial_rank(y.at(t))) return false;
  return true;
}

bool symbol_law_dominated(const SymbolLaw& law1, const SymbolLaw& law2) {
  // Down-sets of ({h,H,A}, h < H < A): {h} and {h,H}. Dominated means the less
  // adversarial law puts at least as much mass on every down-set.
  return law1.ph >= law2.ph - 1e-15 && law1.ph + law1.pH >= law2.ph + law2.pH - 1e-15;
}

namespace {

Symbol invert_cdf(const SymbolLaw& law, double u) {
  // CDF in the order h < H < A.
  if (u < law.ph) return Symbol::h;
  if (u < law.ph + law.pH) return Symbol::H;
  return Symbol::A;
}

}  // namespace

std::pair<CharString, CharString> coupled_sample(const SymbolLaw& law1, const SymbolLaw& law2,
                                                 std::size_t length, Rng& rng) {
  std::vector<Symbol> a, b;
  a.reserve(length);
  b.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    const double u = rng.uniform();
    a.push_back(invert_cdf(law1, u));
    b.push_back(invert_cdf(law2, u));
  }
  return {CharString(std::move(a)), CharString(std::move(b))};
}

}  // namespace mh
