#include "delta/semi_sync.hpp"

#include <cmath>

#include "support/check.hpp"

namespace mh {

TetraString TetraString::parse(std::string_view text) {
  std::vector<TetraSymbol> symbols;
  symbols.reserve(text.size());
  for (char c : text) {
    if (c == ' ') continue;
    symbols.push_back(tetra_from_char(c));
  }
  return TetraString(std::move(symbols));
}

TetraSymbol TetraString::at(std::size_t slot) const {
  MH_REQUIRE_MSG(slot >= 1 && slot <= symbols_.size(), "slots are 1-indexed");
  return symbols_[slot - 1];
}

std::string TetraString::to_string() const {
  std::string out;
  out.reserve(symbols_.size());
  for (TetraSymbol s : symbols_) out.push_back(to_char(s));
  return out;
}

void TetraLaw::validate() const {
  MH_REQUIRE(pBot >= 0.0 && ph >= 0.0 && pH >= 0.0 && pA >= 0.0);
  MH_REQUIRE_MSG(std::abs(pBot + ph + pH + pA - 1.0) < 1e-12, "probabilities must sum to 1");
}

TetraSymbol TetraLaw::sample(Rng& rng) const {
  const double u = rng.uniform();
  if (u < pBot) return TetraSymbol::Bot;
  if (u < pBot + pA) return TetraSymbol::A;
  if (u < pBot + pA + ph) return TetraSymbol::h;
  return TetraSymbol::H;
}

TetraString TetraLaw::sample_string(std::size_t length, Rng& rng) const {
  std::vector<TetraSymbol> symbols;
  symbols.reserve(length);
  for (std::size_t i = 0; i < length; ++i) symbols.push_back(sample(rng));
  return TetraString(std::move(symbols));
}

TetraLaw theorem7_law(double f, double pA, double ph) {
  MH_REQUIRE(f > 0.0 && f <= 1.0);
  MH_REQUIRE(pA >= 0.0 && pA < f);
  MH_REQUIRE(ph > 0.0 && ph <= f - pA);
  TetraLaw law{1.0 - f, ph, f - pA - ph, pA};
  law.validate();
  return law;
}

}  // namespace mh
