#include "chars/bernoulli.hpp"

#include <cmath>

#include "support/check.hpp"

namespace mh {

void SymbolLaw::validate() const {
  MH_REQUIRE(ph >= 0.0 && pH >= 0.0 && pA >= 0.0);
  MH_REQUIRE_MSG(std::abs(ph + pH + pA - 1.0) < 1e-12, "probabilities must sum to 1");
}

Symbol SymbolLaw::sample(Rng& rng) const {
  const double u = rng.uniform();
  if (u < pA) return Symbol::A;
  if (u < pA + ph) return Symbol::h;
  return Symbol::H;
}

CharString SymbolLaw::sample_string(std::size_t length, Rng& rng) const {
  std::vector<Symbol> symbols;
  symbols.reserve(length);
  for (std::size_t i = 0; i < length; ++i) symbols.push_back(sample(rng));
  return CharString(std::move(symbols));
}

void SymbolLaw::sample_into(CharString& out, std::size_t length, Rng& rng) const {
  out.symbols_.resize(length);
  for (std::size_t i = 0; i < length; ++i) out.symbols_[i] = sample(rng);
  out.rebuild_prefix_sums();
}

SymbolLaw bernoulli_condition(double epsilon, double ph) {
  MH_REQUIRE(epsilon > 0.0 && epsilon < 1.0);
  const double pA = (1.0 - epsilon) / 2.0;
  MH_REQUIRE_MSG(ph >= 0.0 && ph <= 1.0 - pA, "ph must lie in [0, (1+eps)/2]");
  SymbolLaw law{ph, 1.0 - pA - ph, pA};
  law.validate();
  return law;
}

SymbolLaw table1_law(double alpha, double h_ratio) {
  MH_REQUIRE(alpha > 0.0 && alpha < 0.5);
  MH_REQUIRE(h_ratio >= 0.0 && h_ratio <= 1.0);
  const double ph = h_ratio * (1.0 - alpha);
  SymbolLaw law{ph, 1.0 - alpha - ph, alpha};
  law.validate();
  return law;
}

}  // namespace mh
