// CharString: a characteristic string w in {h,H,A}^n (Definition 1).
//
// Slots are 1-indexed exactly as in the paper: w[1] .. w[n]. Interval helpers
// implement the #sigma(I) counting notation and the hH-heavy / A-heavy
// predicates from Section 3.1.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "chars/symbol.hpp"

namespace mh {

struct SymbolLaw;

class CharString {
 public:
  CharString() = default;
  explicit CharString(std::vector<Symbol> symbols);
  /// Parse from text such as "hAhAhHAAH".
  static CharString parse(std::string_view text);

  [[nodiscard]] std::size_t size() const noexcept { return symbols_.size(); }
  [[nodiscard]] bool empty() const noexcept { return symbols_.empty(); }

  /// 1-indexed slot access, matching the paper's w_t notation.
  [[nodiscard]] Symbol at(std::size_t slot) const;
  [[nodiscard]] bool honest(std::size_t slot) const { return is_honest(at(slot)); }
  [[nodiscard]] bool adversarial(std::size_t slot) const { return is_adversarial(at(slot)); }
  [[nodiscard]] bool uniquely_honest(std::size_t slot) const {
    return is_uniquely_honest(at(slot));
  }

  [[nodiscard]] const std::vector<Symbol>& symbols() const noexcept { return symbols_; }

  void push_back(Symbol s);

  /// Counts over the closed slot interval [lo, hi]; empty if lo > hi.
  [[nodiscard]] std::size_t count(Symbol s, std::size_t lo, std::size_t hi) const;
  [[nodiscard]] std::size_t count_honest(std::size_t lo, std::size_t hi) const;
  [[nodiscard]] std::size_t count_adversarial(std::size_t lo, std::size_t hi) const;

  /// #h(I) + #H(I) > #A(I)  (Section 3.1).
  [[nodiscard]] bool hH_heavy(std::size_t lo, std::size_t hi) const;
  /// not hH-heavy.
  [[nodiscard]] bool A_heavy(std::size_t lo, std::size_t hi) const;

  /// Prefix w_1..w_len and suffix w_{from}..w_n as new strings.
  [[nodiscard]] CharString prefix(std::size_t len) const;
  [[nodiscard]] CharString suffix(std::size_t from) const;
  [[nodiscard]] CharString concat(const CharString& tail) const;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const CharString&, const CharString&) = default;

 private:
  // SymbolLaw::sample_into refills symbols_ in place (reusing capacity) and
  // rebuilds the prefix sums — the allocation-free resample path of the hot
  // Monte-Carlo loops.
  friend struct SymbolLaw;

  std::vector<Symbol> symbols_;
  // prefix_adv_[t] = #A(w_1..w_t); prefix_hon_ likewise; both sized n+1 with [0]=0.
  std::vector<std::uint32_t> prefix_adv_;
  std::vector<std::uint32_t> prefix_hon_;

  void rebuild_prefix_sums();
};

/// A bivalent characteristic string (Definition 8) is a CharString without 'h'.
[[nodiscard]] bool is_bivalent(const CharString& w);

}  // namespace mh
