// Truncated formal power series over long double, the workhorse of the
// Section-5 generating-function analysis. All operations truncate at a fixed
// order N (coefficients of Z^0..Z^N). Inverse, square root and division use
// Newton iteration with precision doubling, so every operation is O(N^2)
// multiplications at worst.
#pragma once

#include <cstddef>
#include <vector>

namespace mh {

class PowerSeries {
 public:
  /// The zero series truncated at Z^order.
  explicit PowerSeries(std::size_t order);
  PowerSeries(std::size_t order, std::vector<long double> coefficients);

  static PowerSeries constant(std::size_t order, long double value);
  /// The monomial coefficient * Z^power.
  static PowerSeries monomial(std::size_t order, long double coefficient, std::size_t power);

  [[nodiscard]] std::size_t order() const noexcept { return coeff_.size() - 1; }
  [[nodiscard]] long double coeff(std::size_t i) const;
  void set_coeff(std::size_t i, long double value);
  [[nodiscard]] const std::vector<long double>& coefficients() const noexcept { return coeff_; }

  /// Index of the first nonzero coefficient; order()+1 when identically zero.
  [[nodiscard]] std::size_t valuation() const;

  PowerSeries operator+(const PowerSeries& rhs) const;
  PowerSeries operator-(const PowerSeries& rhs) const;
  PowerSeries operator*(const PowerSeries& rhs) const;  ///< truncated convolution
  PowerSeries scaled(long double factor) const;
  /// Multiply by Z^k (shift up; high coefficients fall off the truncation).
  PowerSeries shifted_up(std::size_t k) const;
  /// Divide by Z^k; requires the first k coefficients to vanish.
  PowerSeries shifted_down(std::size_t k) const;

  /// Multiplicative inverse; requires a nonzero constant term.
  [[nodiscard]] PowerSeries inverse() const;
  /// Square root with positive constant term; requires coeff(0) > 0.
  [[nodiscard]] PowerSeries sqrt() const;
  /// this / rhs where rhs may have positive valuation v, provided
  /// valuation(this) >= v (proper power-series quotient).
  [[nodiscard]] PowerSeries dividedBy(const PowerSeries& rhs) const;

  /// Horner evaluation of the truncated polynomial at z.
  [[nodiscard]] long double evaluate(long double z) const;

  /// sum of coefficients 0..k-1 (k clamped to order+1).
  [[nodiscard]] long double partial_sum(std::size_t k) const;

 private:
  std::vector<long double> coeff_;

  void check_same_order(const PowerSeries& rhs) const;
};

}  // namespace mh
