// BandedDp: the shared banded, cache-blocked, gather-based kernel behind the
// Section-6.6 settlement dynamic programs (exact_dp.hpp) and their delta-
// synchronous counterpart (delta/delta_settlement.hpp).
//
// The joint (r, s) = (rho, mu) law of Theorem 5 is evolved over a shrinking
// diagonal band of live states:
//
//   r in [0, rcap],   s in [slo, min(r, shi)],
//
// stored as two flat row-major double-buffers. Per step the kernel
//
//   * GATHERS each target cell from its (at most three) predecessor cells
//     instead of scattering three writes per source cell — every target is a
//     pure assignment, so the dense per-step grid clear() of the original
//     implementation disappears entirely and the inner loop over s is a
//     contiguous, vectorizable sweep;
//   * tracks the band extents exactly: `shi` always falls by one (mass pushed
//     above it is provably violating at every remaining observation time and
//     accrues to the viol() sink), `slo` either rises toward the horizon
//     (fixed-horizon series: mass below is provably safe, accruing to safe())
//     or falls (eventual-settlement phase 1, which keeps every recovery path);
//   * never reads outside the live band, so stale cells from two steps ago in
//     the inactive buffer are unreachable by construction;
//   * computes, drains and reduces only the REACHABLE cells of the band: the
//     seeded diagonal s = r plus the triangle s >= 2r - t, t the number of
//     steps since seed(). The gap r - s grows only on an honest step taken
//     at r = 0, so every other band cell is exactly +0, and skipping it moves
//     no bit. Per row the region is one contiguous column range (rows r > t
//     keep only the diagonal cell); at K = 250 the fixed-horizon series
//     writes 1 027 469 cells where the band holds 4 651 250. The argument and
//     the zero invariant it rests on are written out in dp_kernel.cpp.
//
// The scalar is a template parameter and the two instantiations have distinct
// contracts, pinned by tests/test_dp_kernel.cpp:
//
//   * long double — the REFERENCE path. Per-cell gather terms are added in
//     exactly the source-iteration order of the original scatter code
//     (ascending r, then ascending s, then A before h before H), so results
//     are bit-identical to the pre-refactor kernel.
//   * double — the FAST path. Same recurrence in hardware doubles (SIMD-able,
//     half the memory traffic); sink and report accumulators additionally use
//     Neumaier-compensated summation so the band-wide reductions do not lose
//     the deep tails Table 1 cares about.
#pragma once

#include <cstddef>
#include <vector>

#include "core/reach_distribution.hpp"

namespace mh {

/// Accuracy/speed choice surfaced by every DP entry point built on BandedDp.
enum class DpPrecision {
  Reference,  ///< long double, bit-identical to the original scatter kernel
  Fast,       ///< double with compensated reductions; ~1e-14 relative error
};

/// Neumaier-compensated accumulator for the Fast path; a plain sum for the
/// Reference path (whose add order is part of the bit-identity contract).
template <typename Scalar>
struct DpAccum {
  Scalar sum{0};
  Scalar comp{0};

  void add(Scalar x) noexcept {
    if constexpr (sizeof(Scalar) <= sizeof(double)) {
      const Scalar t = sum + x;
      if ((sum >= 0 ? sum : -sum) >= (x >= 0 ? x : -x))
        comp += (sum - t) + x;
      else
        comp += (x - t) + sum;
      sum = t;
    } else {
      sum += x;
    }
  }

  [[nodiscard]] Scalar value() const noexcept {
    if constexpr (sizeof(Scalar) <= sizeof(double)) return sum + comp;
    return sum;
  }
};

template <typename Scalar>
class BandedDp {
 public:
  /// Grid capacity for horizons up to k_max: r in [0, k_max+1], s in
  /// [-k_max, k_max+1]. Both buffers start zeroed.
  explicit BandedDp(std::size_t k_max);

  /// Seed the diagonal s = r from `initial` (which must cover r = 0..k_max);
  /// mass beyond r = k_max and `initial.tail` fold into the viol() sink
  /// (exact: such states keep mu >= 0 through any horizon <= k_max). A kernel
  /// may be re-seeded; its buffers are re-zeroed only if a run wrote them.
  void seed(const ReachPmf& initial);

  /// One Theorem-5 transition onto the band [slo_next, min(r, shi_next)],
  /// r <= rcap_next. Requires shi_next == shi()-1, |slo_next - slo()| <= 1,
  /// rcap_next in {rcap(), rcap()-1} and rcap_next >= 1. A-mass pushed above
  /// shi_next accrues to viol(); when `safe_sink`, unpinned honest mass pushed
  /// below slo_next accrues to safe() (with safe_sink == false the caller must
  /// pass slo_next == slo()-1 so nothing can exit below).
  void step(Scalar pA, Scalar ph, Scalar pH, std::ptrdiff_t slo_next, std::ptrdiff_t shi_next,
            std::ptrdiff_t rcap_next, bool safe_sink);

  /// The Table-1 report: viol() plus all live mass with s >= 0, accumulated
  /// in ascending (r, s) order starting from viol().
  [[nodiscard]] Scalar nonneg_mass() const;

  /// Visit every live cell of the band in ascending (r, s) order:
  /// f(r, s, mass). Cells outside the reachable region read exactly +0.
  template <typename F>
  void for_each_live(F&& f) const {
    for (std::ptrdiff_t r = 0; r <= rcap_; ++r) {
      const Scalar* row = row_ptr(cur_, r);
      const std::ptrdiff_t hi = r < shi_ ? r : shi_;
      for (std::ptrdiff_t s = slo_; s <= hi; ++s) f(r, s, row[s]);
    }
  }

  [[nodiscard]] Scalar viol() const noexcept { return viol_.value(); }
  [[nodiscard]] Scalar safe() const noexcept { return safe_.value(); }
  [[nodiscard]] std::ptrdiff_t rcap() const noexcept { return rcap_; }
  [[nodiscard]] std::ptrdiff_t slo() const noexcept { return slo_; }
  [[nodiscard]] std::ptrdiff_t shi() const noexcept { return shi_; }
  [[nodiscard]] std::ptrdiff_t k() const noexcept { return k_; }

 private:
  /// Row pointer biased so that row[s] addresses column s + k.
  [[nodiscard]] Scalar* row_ptr(std::vector<Scalar>& buf, std::ptrdiff_t r) const noexcept {
    return buf.data() + static_cast<std::size_t>(r) * sdim_ + static_cast<std::size_t>(k_);
  }
  [[nodiscard]] const Scalar* row_ptr(const std::vector<Scalar>& buf,
                                      std::ptrdiff_t r) const noexcept {
    return buf.data() + static_cast<std::size_t>(r) * sdim_ + static_cast<std::size_t>(k_);
  }

  void drain_sinks(Scalar pA, Scalar ph, Scalar pH, std::ptrdiff_t slo_next,
                   std::ptrdiff_t shi_next, bool safe_sink);

  std::ptrdiff_t k_;
  std::size_t sdim_;
  std::vector<Scalar> cur_;
  std::vector<Scalar> nxt_;
  std::ptrdiff_t rcap_ = 0;
  std::ptrdiff_t slo_ = 0;
  std::ptrdiff_t shi_ = 0;
  std::ptrdiff_t t_ = 0;  ///< steps since seed(): the region's triangle edge
  bool written_ = false;  ///< a run has written the buffers since they were zeroed
  DpAccum<Scalar> viol_;
  DpAccum<Scalar> safe_;
};

extern template class BandedDp<long double>;
extern template class BandedDp<double>;

}  // namespace mh
