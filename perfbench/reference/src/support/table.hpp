// Plain-text table rendering used by the bench harnesses to print rows in the
// same layout the paper's tables use (aligned columns, scientific notation of
// the form 1.23E-045 matching Table 1's formatting).
#pragma once

#include <string>
#include <vector>

namespace mh {

/// Format like the paper's Table 1: "5.70E-054" (two fractional digits,
/// three exponent digits, capital E).
std::string paper_scientific(long double value);

/// Fixed-point with the given number of fractional digits.
std::string fixed(double value, int digits);

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Render with aligned columns; every row is padded to the header width.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mh
