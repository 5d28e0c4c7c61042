// Semi-synchronous characteristic strings over {Bot, h, H, A} (Definition 20):
// a slot may be empty (no leader at all), which happens with probability
// p_Bot = 1 - f where f is the active-slot coefficient.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "chars/symbol.hpp"
#include "support/random.hpp"

namespace mh {

class TetraString {
 public:
  TetraString() = default;
  explicit TetraString(std::vector<TetraSymbol> symbols) : symbols_(std::move(symbols)) {}
  /// Parse from text such as "h..A.H" ('.' or '_' for empty slots).
  static TetraString parse(std::string_view text);

  [[nodiscard]] std::size_t size() const noexcept { return symbols_.size(); }
  [[nodiscard]] TetraSymbol at(std::size_t slot) const;
  [[nodiscard]] const std::vector<TetraSymbol>& symbols() const noexcept { return symbols_; }
  void push_back(TetraSymbol s) { symbols_.push_back(s); }

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<TetraSymbol> symbols_;
};

/// i.i.d. law on {Bot, h, H, A}; probabilities sum to 1.
struct TetraLaw {
  double pBot = 0.0;
  double ph = 0.0;
  double pH = 0.0;
  double pA = 0.0;

  /// Active-slot coefficient f = 1 - pBot.
  [[nodiscard]] double f() const noexcept { return 1.0 - pBot; }

  void validate() const;
  [[nodiscard]] TetraSymbol sample(Rng& rng) const;
  [[nodiscard]] TetraString sample_string(std::size_t length, Rng& rng) const;

  friend bool operator==(const TetraLaw&, const TetraLaw&) = default;
};

/// The Theorem-7 parameterization: active-slot coefficient f, adversarial
/// share pA < f, uniquely honest share ph <= f - pA; pH = f - pA - ph.
TetraLaw theorem7_law(double f, double pA, double ph);

}  // namespace mh
