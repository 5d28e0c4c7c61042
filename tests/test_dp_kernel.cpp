// Contracts of the banded gather kernel (core/dp_kernel.hpp) and the
// engine-parallel sweep (analysis/sweep.hpp):
//
//   (a) the long double Reference path is BIT-IDENTICAL to the pre-refactor
//       dense scatter implementation, pinned by a golden grid of Table-1
//       cells (hex long double literals dumped from the original kernel);
//   (b) the double Fast path tracks the Reference path to < 1e-12 relative
//       error wherever the value is comfortably inside double range;
//   (c) sweep results are invariant under the thread count, bit for bit;
//   (d) computing only the reachable (reach, margin) region moves no bit of
//       either precision path: both drivers match a dense full-band copy of
//       the kernel on random and edge laws, every cell outside the region
//       reads +0 (also after a re-seed), and the region is exactly the cells
//       the full-band recurrence can fill.
#include "core/dp_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>

#include "analysis/sweep.hpp"
#include "core/exact_dp.hpp"
#include "delta/delta_settlement.hpp"
#include "obs/obs.hpp"
#include "support/random.hpp"

namespace mh {
namespace {

long double parse_hex(const char* hex) { return strtold(hex, nullptr); }

// ---------------------------------------------------------------------------
// (a) Reference-path bit-identity against the pre-refactor kernel.
// ---------------------------------------------------------------------------

struct Golden {
  double alpha, ratio;
  std::size_t k;
  const char* hex;  // %La dump of the original long double result
};

// All six Table-1 alphas x three ratios x k in {50, 200, 500}, generated by
// the seed implementation (dense long double scatter grid) at commit
// "PR 1: Parallel experiment engine".
constexpr Golden kSeriesGolden[] = {
    {0.01, 1.00, 50, "0xa.85d6439b7e7025fp-93"},
    {0.01, 1.00, 200, "0xc.0223a227d17e96cp-355"},
    {0.01, 1.00, 500, "0xf.9e6ec1caade2ecfp-879"},
    {0.01, 0.50, 50, "0xb.ed8b2480176a72fp-49"},
    {0.01, 0.50, 200, "0xc.0e90594fff0f8c6p-185"},
    {0.01, 0.50, 500, "0xc.51adfbb45690d5ep-457"},
    {0.01, 0.01, 50, "0x9.d3ea8d7dd61c5c9p-4"},
    {0.01, 0.01, 200, "0x9.1cf017c7cb954fcp-6"},
    {0.01, 0.01, 500, "0xf.abdf72f341e105cp-11"},
    {0.10, 1.00, 50, "0x9.fff073a20b011ccp-33"},
    {0.10, 1.00, 200, "0x8.2819f2a44cb584fp-116"},
    {0.10, 1.00, 500, "0xa.e161d17d555eb9cp-283"},
    {0.10, 0.50, 50, "0xe.15ce710810feb41p-26"},
    {0.10, 0.50, 200, "0xf.9f6dec4d59e8f1fp-91"},
    {0.10, 0.50, 500, "0x9.9c318ba05883e11p-220"},
    {0.10, 0.01, 50, "0xb.3302596fb3834fdp-4"},
    {0.10, 0.01, 200, "0xf.6a89d4e4b7e0054p-6"},
    {0.10, 0.01, 500, "0xe.9b0bd7aa53a204bp-9"},
    {0.20, 1.00, 50, "0xb.6202913d76d168cp-17"},
    {0.20, 1.00, 200, "0xe.7a1d749dbbfc9f5p-53"},
    {0.20, 1.00, 500, "0xc.0dbb49a3a6d9ebcp-124"},
    {0.20, 0.50, 50, "0xa.090a55acd0d0c3cp-14"},
    {0.20, 0.50, 200, "0xb.42b54c9c16b2136p-44"},
    {0.20, 0.50, 500, "0xe.3c9e1cf78c49b65p-104"},
    {0.20, 0.01, 50, "0xc.c2904543c3f87f5p-4"},
    {0.20, 0.01, 200, "0xd.0bd66de516d67cbp-5"},
    {0.20, 0.01, 500, "0xd.a35a8340c73b55ap-7"},
    {0.30, 1.00, 50, "0x9.81f8c89fc36d889p-9"},
    {0.30, 1.00, 200, "0xd.6ebe6f06379d3adp-23"},
    {0.30, 1.00, 500, "0xf.0e280550a13f8f4p-50"},
    {0.30, 0.50, 50, "0xa.a0ce8e26ade1cb5p-8"},
    {0.30, 0.50, 200, "0xd.c5f86c8e9612e51p-20"},
    {0.30, 0.50, 500, "0xc.16b949b21e604bap-43"},
    {0.30, 0.01, 50, "0xe.3b2222abfe411c5p-4"},
    {0.30, 0.01, 200, "0xa.25f4b909d090dbfp-4"},
    {0.30, 0.01, 500, "0xa.5247f2b63bb523dp-5"},
    {0.40, 1.00, 50, "0x9.569c71c1cddaebcp-5"},
    {0.40, 1.00, 200, "0x8.9ac7af3201e3e64p-8"},
    {0.40, 1.00, 500, "0x9.366437c9a2dbd4cp-14"},
    {0.40, 0.50, 50, "0xc.2d1071de93631d4p-5"},
    {0.40, 0.50, 200, "0xe.fd5bcba42e49e9ep-8"},
    {0.40, 0.50, 500, "0xd.3bb1521cebf8175p-13"},
    {0.40, 0.01, 50, "0xf.63dc407ef8f05aap-4"},
    {0.40, 0.01, 200, "0xd.f4559b68ca0b23bp-4"},
    {0.40, 0.01, 500, "0xb.7bc82659c804f7fp-4"},
    {0.49, 1.00, 50, "0xe.d8e107643be75cdp-4"},
    {0.49, 1.00, 200, "0xd.f9b86c7d5aa1d95p-4"},
    {0.49, 1.00, 500, "0xc.fc551db088ee9bap-4"},
    {0.49, 0.50, 50, "0xf.1f44b9464e0693bp-4"},
    {0.49, 0.50, 200, "0xe.5ece77ccc0121bbp-4"},
    {0.49, 0.50, 500, "0xd.7e97242fde92679p-4"},
    {0.49, 0.01, 50, "0xf.f70a81570b4db1cp-4"},
    {0.49, 0.01, 200, "0xf.ebc9d08b2733c07p-4"},
    {0.49, 0.01, 500, "0xf.dc721abd68777d9p-4"},
};

TEST(DpKernel, ReferencePathBitIdenticalToSeedKernel) {
  double alpha = -1.0, ratio = -1.0;
  SettlementSeries series;
  for (const Golden& g : kSeriesGolden) {
    if (g.alpha != alpha || g.ratio != ratio) {
      alpha = g.alpha;
      ratio = g.ratio;
      // One DP pass per law covers every golden k for that law.
      series = exact_settlement_series(table1_law(alpha, ratio), 500);
    }
    const long double expected = parse_hex(g.hex);
    EXPECT_EQ(series.violation[g.k], expected)
        << "alpha " << g.alpha << " ratio " << g.ratio << " k " << g.k;
  }
}

struct EventualGolden {
  double alpha;
  std::size_t k;
  const char* hex;
};

constexpr EventualGolden kEventualGolden[] = {
    EventualGolden{0.10, 50, "0xf.15f66d820827d87p-26"},
    EventualGolden{0.10, 200, "0x8.5dc58aa1cf1bf09p-90"},
    EventualGolden{0.30, 50, "0xc.4e90a57eb440b5cp-8"},
    EventualGolden{0.30, 200, "0xf.e1d599a35390a5ap-20"},
    EventualGolden{0.40, 50, "0xe.6c7433783613b1ep-5"},
    EventualGolden{0.40, 200, "0x8.d953d95b67af5f2p-7"},
};

TEST(DpKernel, EventualReferencePathBitIdenticalToSeedKernel) {
  for (const EventualGolden& g : kEventualGolden) {
    const long double value = eventual_settlement_insecurity(table1_law(g.alpha, 0.5), g.k);
    EXPECT_EQ(value, parse_hex(g.hex)) << "alpha " << g.alpha << " k " << g.k;
  }
}

// ---------------------------------------------------------------------------
// (b) Fast-path accuracy against the Reference path.
// ---------------------------------------------------------------------------

TEST(DpKernel, FastPathTracksReferenceWithin1e12) {
  for (double alpha : {0.01, 0.10, 0.20, 0.30, 0.40, 0.49})
    for (double ratio : {1.0, 0.5, 0.01}) {
      const SymbolLaw law = table1_law(alpha, ratio);
      const SettlementSeries ref = exact_settlement_series(law, 500);
      const SettlementSeries fast =
          exact_settlement_series(law, 500, InitialReach::Stationary, DpPrecision::Fast);
      for (std::size_t k : {50u, 200u, 500u}) {
        const long double r = ref.violation[k];
        // Skip cells too deep for a double to hold with full precision.
        if (r < 1e-250L) continue;
        const long double rel = fabsl(fast.violation[k] - r) / r;
        EXPECT_LT(static_cast<double>(rel), 1e-12)
            << "alpha " << alpha << " ratio " << ratio << " k " << k;
      }
    }
}

TEST(DpKernel, FastPathEventualTracksReference) {
  for (const EventualGolden& g : kEventualGolden) {
    const SymbolLaw law = table1_law(g.alpha, 0.5);
    const long double ref = eventual_settlement_insecurity(law, g.k);
    const long double fast =
        eventual_settlement_insecurity(law, g.k, InitialReach::Stationary, DpPrecision::Fast);
    EXPECT_LT(static_cast<double>(fabsl(fast - ref) / ref), 1e-12)
        << "alpha " << g.alpha << " k " << g.k;
  }
}

// ---------------------------------------------------------------------------
// (c) Sweep determinism: thread count changes wall-clock only, never bits.
// ---------------------------------------------------------------------------

std::vector<SymbolLaw> sweep_grid() {
  std::vector<SymbolLaw> laws;
  for (double alpha : {0.10, 0.30, 0.40})
    for (double ratio : {1.0, 0.25}) laws.push_back(table1_law(alpha, ratio));
  return laws;
}

TEST(Sweep, SeriesInvariantUnderThreadCount) {
  const std::vector<SymbolLaw> laws = sweep_grid();
  for (DpPrecision precision : {DpPrecision::Reference, DpPrecision::Fast}) {
    SweepOptions serial{1, precision, InitialReach::Stationary};
    SweepOptions pooled{5, precision, InitialReach::Stationary};
    const auto a = sweep_settlement_series(laws, 120, serial);
    const auto b = sweep_settlement_series(laws, 120, pooled);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      for (std::size_t k = 0; k <= 120; ++k)
        EXPECT_EQ(a[i].violation[k], b[i].violation[k]) << "law " << i << " k " << k;
  }
}

TEST(Sweep, SeriesMatchesDirectCalls) {
  const std::vector<SymbolLaw> laws = sweep_grid();
  SweepOptions opt{4, DpPrecision::Reference, InitialReach::Stationary};
  const auto swept = sweep_settlement_series(laws, 80, opt);
  for (std::size_t i = 0; i < laws.size(); ++i) {
    const SettlementSeries direct = exact_settlement_series(laws[i], 80);
    for (std::size_t k = 0; k <= 80; ++k)
      EXPECT_EQ(swept[i].violation[k], direct.violation[k]) << "law " << i << " k " << k;
  }
}

TEST(Sweep, EventualInvariantUnderThreadCount) {
  const std::vector<SymbolLaw> laws = sweep_grid();
  const std::vector<std::size_t> ks{20, 60};
  SweepOptions serial{1, DpPrecision::Reference, InitialReach::Stationary};
  SweepOptions pooled{6, DpPrecision::Reference, InitialReach::Stationary};
  const auto a = sweep_eventual_insecurity(laws, ks, serial);
  const auto b = sweep_eventual_insecurity(laws, ks, pooled);
  ASSERT_EQ(a.size(), laws.size() * ks.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c], b[c]) << "cell " << c;
    const std::size_t i = c / ks.size(), j = c % ks.size();
    EXPECT_EQ(a[c], eventual_settlement_insecurity(laws[i], ks[j])) << "cell " << c;
  }
}

// ---------------------------------------------------------------------------
// (d) The reachable region against a dense full-band reference.
// ---------------------------------------------------------------------------

// The kernel as it was before it learned the reachable region: every step
// computes, drains and reduces the whole band [slo, min(r, shi)]. Test-only,
// as ReferenceTree is for the SoA block tree; the gather order per cell is
// the production kernel's, so both must agree bit for bit.
template <typename Scalar>
class DenseBandDp {
 public:
  explicit DenseBandDp(std::size_t k_max)
      : k_(static_cast<std::ptrdiff_t>(k_max)),
        sdim_(2 * k_max + 2),
        cur_((k_max + 2) * sdim_, Scalar(0)),
        nxt_((k_max + 2) * sdim_, Scalar(0)) {}

  void seed(const ReachPmf& initial) {
    std::fill(cur_.begin(), cur_.end(), Scalar(0));
    std::fill(nxt_.begin(), nxt_.end(), Scalar(0));
    viol_ = {};
    safe_ = {};
    viol_.add(static_cast<Scalar>(initial.tail));
    for (std::size_t r = static_cast<std::size_t>(k_) + 1; r < initial.mass.size(); ++r)
      viol_.add(static_cast<Scalar>(initial.mass[r]));
    for (std::ptrdiff_t r = 0; r <= k_; ++r)
      row_ptr(cur_, r)[r] = static_cast<Scalar>(initial.mass[static_cast<std::size_t>(r)]);
    rcap_ = k_;
    slo_ = 0;
    shi_ = k_;
  }

  void step(Scalar pA, Scalar ph, Scalar pH, std::ptrdiff_t slo_next, std::ptrdiff_t shi_next,
            std::ptrdiff_t rcap_next, bool safe_sink) {
    for (std::ptrdiff_t r = 0; r <= rcap_; ++r) {
      const Scalar* row = row_ptr(cur_, r);
      const std::ptrdiff_t hi = r < shi_ ? r : shi_;
      if (safe_sink) {
        const std::ptrdiff_t safe_hi = std::min(slo_next, hi);
        for (std::ptrdiff_t s = slo_; s <= safe_hi; ++s) {
          const Scalar q = row[s];
          if (q == Scalar(0)) continue;
          if (s != 0) {
            safe_.add(q * ph);
            safe_.add(q * pH);
          } else if (r == 0) {
            safe_.add(q * ph);
          }
        }
      }
      for (std::ptrdiff_t s = std::max(slo_, shi_next); s <= hi; ++s) {
        const Scalar q = row[s];
        if (q == Scalar(0)) continue;
        viol_.add(q * pA);
      }
    }

    const std::ptrdiff_t sA = std::max(slo_next, slo_ + 1);
    const std::ptrdiff_t lo = slo_next;
    for (std::ptrdiff_t rt = 0; rt <= rcap_next; ++rt) {
      Scalar* out = row_ptr(nxt_, rt);
      if (rt == 0) {
        const Scalar* r0 = row_ptr(cur_, 0);
        const Scalar* r1 = row_ptr(cur_, 1);
        for (std::ptrdiff_t s = lo; s <= -2; ++s) {
          const Scalar c0 = r0[s + 1];
          Scalar v = ph * c0;
          v += pH * c0;
          const Scalar c1 = r1[s + 1];
          v += ph * c1;
          v += pH * c1;
          out[s] = v;
        }
        if (-1 >= lo) out[-1] = ph * r0[0];
        Scalar v = pH * r0[0];
        const Scalar c = r1[0];
        v += ph * c;
        v += pH * c;
        if (shi_ >= 1) {
          const Scalar bb = r1[1];
          v += ph * bb;
          v += pH * bb;
        }
        out[0] = v;
        continue;
      }
      const bool top = rt == rcap_next;
      const std::ptrdiff_t hi = rt < shi_next ? rt : shi_next;
      const Scalar* a = row_ptr(cur_, rt - 1);
      const Scalar* b = rt + 1 <= rcap_ ? row_ptr(cur_, rt + 1) : nullptr;
      const Scalar* e = top ? row_ptr(cur_, rt) : nullptr;
      const Scalar* fx = top && rt + 1 <= rcap_ ? row_ptr(cur_, rt + 1) : nullptr;
      for (std::ptrdiff_t s = lo; s <= hi; ++s) {
        Scalar v{0};
        if (s >= sA) {
          v += pA * a[s - 1];
          if (e != nullptr) v += pA * e[s - 1];
          if (fx != nullptr) v += pA * fx[s - 1];
        }
        if (b != nullptr) {
          if (s == 0) {
            const Scalar c = b[0];
            v += ph * c;
            v += pH * c;
            if (shi_ >= 1) {
              const Scalar bb = b[1];
              v += ph * bb;
              v += pH * bb;
            }
          } else if (s != -1) {
            const Scalar bb = b[s + 1];
            v += ph * bb;
            v += pH * bb;
          }
        }
        out[s] = v;
      }
    }
    cur_.swap(nxt_);
    rcap_ = rcap_next;
    slo_ = slo_next;
    shi_ = shi_next;
  }

  [[nodiscard]] Scalar nonneg_mass() const {
    DpAccum<Scalar> acc = viol_;
    for (std::ptrdiff_t r = 0; r <= rcap_; ++r) {
      const Scalar* row = row_ptr(cur_, r);
      const std::ptrdiff_t hi = r < shi_ ? r : shi_;
      if constexpr (sizeof(Scalar) <= sizeof(double)) {
        Scalar row_sum{0};
        for (std::ptrdiff_t s = 0; s <= hi; ++s) row_sum += row[s];
        acc.add(row_sum);
      } else {
        for (std::ptrdiff_t s = 0; s <= hi; ++s) acc.add(row[s]);
      }
    }
    return acc.value();
  }

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
  [[nodiscard]] std::ptrdiff_t slo() const noexcept { return slo_; }

 private:
  [[nodiscard]] Scalar* row_ptr(std::vector<Scalar>& buf, std::ptrdiff_t r) const noexcept {
    return buf.data() + static_cast<std::size_t>(r) * sdim_ + static_cast<std::size_t>(k_);
  }
  [[nodiscard]] const Scalar* row_ptr(const std::vector<Scalar>& buf,
                                      std::ptrdiff_t r) const noexcept {
    return buf.data() + static_cast<std::size_t>(r) * sdim_ + static_cast<std::size_t>(k_);
  }

  std::ptrdiff_t k_;
  std::size_t sdim_;
  std::vector<Scalar> cur_;
  std::vector<Scalar> nxt_;
  std::ptrdiff_t rcap_ = 0;
  std::ptrdiff_t slo_ = 0;
  std::ptrdiff_t shi_ = 0;
  DpAccum<Scalar> viol_;
  DpAccum<Scalar> safe_;
};

// The two drivers' band schedules (core/exact_dp.cpp), shared by the dense
// reference and the direct kernel tests below.
std::ptrdiff_t series_slo_next(std::ptrdiff_t slo, std::ptrdiff_t shi_next) {
  return std::max(slo - 1, -shi_next);
}

template <typename Scalar>
SettlementSeries dense_series(const SymbolLaw& law, std::size_t k_max, const ReachPmf& initial) {
  const auto K = static_cast<std::ptrdiff_t>(k_max);
  DenseBandDp<Scalar> dp(k_max);
  dp.seed(initial);
  SettlementSeries series;
  series.violation.assign(k_max + 1, 0.0L);
  for (std::ptrdiff_t t = 0; t <= K; ++t) {
    series.violation[static_cast<std::size_t>(t)] = static_cast<long double>(dp.nonneg_mass());
    if (t == K) break;
    const std::ptrdiff_t shi_next = K - t - 1;
    dp.step(static_cast<Scalar>(law.pA), static_cast<Scalar>(law.ph), static_cast<Scalar>(law.pH),
            series_slo_next(dp.slo(), shi_next), shi_next, K - t, true);
  }
  series.always_violating = static_cast<long double>(dp.viol());
  series.never_violating = static_cast<long double>(dp.safe());
  return series;
}

template <typename Scalar>
long double dense_eventual(const SymbolLaw& law, std::size_t k, const ReachPmf& initial) {
  const auto K = static_cast<std::ptrdiff_t>(k);
  const auto beta = static_cast<Scalar>(reach_beta(law));
  DenseBandDp<Scalar> dp(k);
  dp.seed(initial);
  for (std::ptrdiff_t t = 0; t < K; ++t)
    dp.step(static_cast<Scalar>(law.pA), static_cast<Scalar>(law.ph), static_cast<Scalar>(law.pH),
            dp.slo() - 1, K - t - 1, K - t, false);
  std::vector<Scalar> beta_pow(k + 1, Scalar(1));
  for (std::size_t m = 1; m <= k; ++m) beta_pow[m] = beta_pow[m - 1] * beta;
  DpAccum<Scalar> total;
  total.add(dp.viol());
  dp.for_each_live([&](std::ptrdiff_t, std::ptrdiff_t s, Scalar q) {
    if (q == Scalar(0)) return;
    total.add(s >= 0 ? q : q * beta_pow[static_cast<std::size_t>(-s)]);
  });
  return static_cast<long double>(total.value());
}

/// Bit identity for the values these kernels produce (finite, or +0 / -0).
bool same_bits(long double a, long double b) {
  return a == b && std::signbit(a) == std::signbit(b);
}

ReachPmf zero_reach_pmf(std::size_t k) {
  ReachPmf pmf;
  pmf.mass.assign(k + 1, 0.0L);
  pmf.mass[0] = 1.0L;
  return pmf;
}

std::string describe(const SymbolLaw& law) {
  std::ostringstream out;
  out << std::hexfloat << "law {ph " << law.ph << ", pH " << law.pH << ", pA " << law.pA << "}";
  return out.str();
}

template <typename Scalar>
void expect_series_bits(const SymbolLaw& law, std::size_t k, const ReachPmf& initial,
                        DpPrecision precision) {
  const SettlementSeries got = exact_settlement_series(law, k, initial, precision);
  const SettlementSeries want = dense_series<Scalar>(law, k, initial);
  ASSERT_EQ(got.violation.size(), want.violation.size());
  for (std::size_t t = 0; t <= k; ++t)
    EXPECT_TRUE(same_bits(got.violation[t], want.violation[t]))
        << "violation[" << t << "] " << got.violation[t] << " vs " << want.violation[t];
  EXPECT_TRUE(same_bits(got.always_violating, want.always_violating));
  EXPECT_TRUE(same_bits(got.never_violating, want.never_violating));
}

TEST(ReachableRegion, DriversBitIdenticalToDenseBand) {
  // Fresh laws on every run; a failure names the master seed and the law.
  const std::uint64_t master = (std::uint64_t{std::random_device{}()} << 32) ^
                               std::random_device{}();
  Rng draw(master);
  std::vector<SymbolLaw> laws{
      {0.5, 0.5, 0.0},    // pA = 0: the stationary reach is a point mass at 0
      {0.0, 0.6, 0.4},    // ph = 0: every honest slot is unique
      {0.6, 0.0, 0.4},    // pH = 0: no concurrent honest leaders
  };
  for (int i = 0; i < 3; ++i) {
    const double pA = 0.49 * draw.uniform();
    const double ph = (1.0 - pA) * draw.uniform();
    laws.push_back({ph, 1.0 - pA - ph, pA});
  }
  for (const SymbolLaw& law : laws)
    for (std::size_t k : {1u, 2u, 3u, 5u, 17u, 64u, 250u}) {
      SCOPED_TRACE("master seed " + std::to_string(master) + ", " + describe(law) + ", k " +
                   std::to_string(k));
      const ReachPmf stationary = stationary_reach_distribution(law, k);
      for (const ReachPmf& initial : {stationary, zero_reach_pmf(k)}) {
        expect_series_bits<long double>(law, k, initial, DpPrecision::Reference);
        expect_series_bits<double>(law, k, initial, DpPrecision::Fast);
      }
      EXPECT_TRUE(same_bits(eventual_settlement_insecurity(law, k),
                            dense_eventual<long double>(law, k, stationary)));
      EXPECT_TRUE(same_bits(
          eventual_settlement_insecurity(law, k, InitialReach::Stationary, DpPrecision::Fast),
          dense_eventual<double>(law, k, stationary)));
      EXPECT_TRUE(same_bits(
          eventual_settlement_insecurity(law, k, InitialReach::Zero, DpPrecision::Reference),
          dense_eventual<long double>(law, k, zero_reach_pmf(k))));
      EXPECT_TRUE(same_bits(
          eventual_settlement_insecurity(law, k, InitialReach::Zero, DpPrecision::Fast),
          dense_eventual<double>(law, k, zero_reach_pmf(k))));
    }
}

/// Off the seeded diagonal, only cells with s >= 2r - t can hold mass.
bool in_region(std::ptrdiff_t r, std::ptrdiff_t s, std::ptrdiff_t t) {
  return s == r || s >= 2 * r - t;
}

// Drives the kernel directly, beside the dense reference, on one of the two
// drivers' schedules, and checks at every step that every live cell outside
// the region reads exactly +0 and every live cell matches the dense band.
template <typename Scalar>
void run_against_dense(BandedDp<Scalar>& dp, const SymbolLaw& law, std::size_t k, bool series) {
  const auto K = static_cast<std::ptrdiff_t>(k);
  const auto pA = static_cast<Scalar>(law.pA);
  const auto ph = static_cast<Scalar>(law.ph);
  const auto pH = static_cast<Scalar>(law.pH);
  const ReachPmf initial = stationary_reach_distribution(law, k);
  DenseBandDp<Scalar> dense(k);
  dp.seed(initial);
  dense.seed(initial);
  for (std::ptrdiff_t t = 0;; ++t) {
    std::vector<Scalar> want;
    dense.for_each_live([&](std::ptrdiff_t, std::ptrdiff_t, Scalar q) { want.push_back(q); });
    std::size_t i = 0;
    dp.for_each_live([&](std::ptrdiff_t r, std::ptrdiff_t s, Scalar q) {
      if (!in_region(r, s, t)) {
        EXPECT_TRUE(q == Scalar(0) && !std::signbit(q))
            << "stale cell (" << r << ", " << s << ") at step " << t << ": " << q;
      }
      ASSERT_LT(i, want.size());
      EXPECT_TRUE(same_bits(q, want[i])) << "cell (" << r << ", " << s << ") at step " << t;
      ++i;
    });
    EXPECT_EQ(i, want.size()) << "band sizes differ at step " << t;
    EXPECT_TRUE(same_bits(dp.nonneg_mass(), dense.nonneg_mass())) << "step " << t;
    if (t == K) break;
    const std::ptrdiff_t shi_next = K - t - 1;
    const std::ptrdiff_t slo_next = series ? series_slo_next(dp.slo(), shi_next) : dp.slo() - 1;
    dp.step(pA, ph, pH, slo_next, shi_next, K - t, series);
    dense.step(pA, ph, pH, slo_next, shi_next, K - t, series);
  }
  EXPECT_TRUE(same_bits(dp.viol(), dense.viol()));
  EXPECT_TRUE(same_bits(dp.safe(), dense.safe()));
}

template <typename Scalar>
void check_zero_outside_region() {
  constexpr std::size_t k = 40;
  const SymbolLaw first = table1_law(0.40, 0.2);
  const SymbolLaw second = table1_law(0.15, 0.7);
  for (bool series : {true, false}) {
    SCOPED_TRACE(series ? "series schedule" : "eventual schedule");
    BandedDp<Scalar> dp(k);
    {
      SCOPED_TRACE("fresh kernel");
      run_against_dense(dp, first, k, series);
    }
    {
      // Every cell the first run wrote is stale now; the ones the second
      // run's gathers read at its early steps lie outside its region.
      SCOPED_TRACE("kernel re-seeded after a full run");
      run_against_dense(dp, second, k, series);
    }
  }
}

TEST(ReachableRegion, CellsOutsideTheRegionReadZeroReference) {
  check_zero_outside_region<long double>();
}

TEST(ReachableRegion, CellsOutsideTheRegionReadZeroFast) { check_zero_outside_region<double>(); }

TEST(ReachableRegion, RegionIsExactlyTheCellsTheRecurrenceFills) {
  // With every symbol probability positive, the dense band holds mass in a
  // cell iff the cell is in the region (long double: no underflow at k = 64).
  constexpr std::size_t k = 64;
  const auto K = static_cast<std::ptrdiff_t>(k);
  const SymbolLaw law = table1_law(0.30, 0.5);
  for (bool series : {true, false}) {
    DenseBandDp<long double> dense(k);
    dense.seed(stationary_reach_distribution(law, k));
    for (std::ptrdiff_t t = 0; t < K; ++t) {
      const std::ptrdiff_t shi_next = K - t - 1;
      const std::ptrdiff_t slo_next = series ? series_slo_next(dense.slo(), shi_next)
                                             : dense.slo() - 1;
      dense.step(law.pA, law.ph, law.pH, slo_next, shi_next, K - t, series);
      dense.for_each_live([&](std::ptrdiff_t r, std::ptrdiff_t s, long double q) {
        EXPECT_EQ(q > 0.0L, in_region(r, s, t + 1))
            << (series ? "series" : "eventual") << " cell (" << r << ", " << s << ") at step "
            << t + 1;
      });
    }
  }
}

TEST(ReachableRegion, CellsTouchedCountsTheRegion) {
  if (!obs::compiled()) GTEST_SKIP() << "needs the observability hooks (-DMH_OBS=ON)";
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Counter& cells = obs::Registry::global().counter("dp.cells_touched");
  cells.reset();
  (void)exact_settlement_series(table1_law(0.30, 0.5), 250);
  const std::uint64_t touched = cells.value();
  obs::set_enabled(was_enabled);
  // 250 steps write 1 027 469 cells; the band over the same steps holds
  // 4 651 250.
  EXPECT_EQ(touched, 1027469u);
}

// ---------------------------------------------------------------------------
// The delta-settlement DP rides the same kernel.
// ---------------------------------------------------------------------------

TEST(DeltaSettlementDp, DeltaZeroCollapsesToSynchronousSeries) {
  // With pBot = 0 and Delta = 0 the reduction is the identity, so the
  // delta-series must equal the synchronous series on the same {h,H,A} law.
  const TetraLaw law{0.0, 0.45, 0.25, 0.30};
  const SymbolLaw flat{0.45, 0.25, 0.30};
  const SettlementSeries delta = delta_settlement_series(law, 0, 60);
  const SettlementSeries sync = exact_settlement_series(flat, 60);
  for (std::size_t k = 0; k <= 60; ++k) EXPECT_EQ(delta.violation[k], sync.violation[k]) << k;
}

TEST(DeltaSettlementDp, SharperThanTheorem7Bound) {
  const TetraLaw law = theorem7_law(0.10, 0.015, 0.07);
  for (std::size_t delta : {0u, 4u}) {
    const SettlementSeries series = delta_settlement_series(law, delta, 400);
    const long double bound = theorem7_bound(law, delta, 400);
    EXPECT_LE(static_cast<double>(series.violation[400]), static_cast<double>(bound))
        << "delta " << delta;
  }
}

TEST(DeltaSettlementDp, MonotoneInDelta) {
  // A longer delay makes the reduced law more adversarial, so the exact
  // violation probability can only grow with Delta.
  const TetraLaw law = theorem7_law(0.20, 0.04, 0.12);
  long double prev = -1.0L;
  for (std::size_t delta : {0u, 1u, 2u, 4u, 8u}) {
    const long double p = delta_settlement_violation_probability(law, delta, 100);
    EXPECT_GE(static_cast<double>(p), static_cast<double>(prev)) << "delta " << delta;
    prev = p;
  }
}

TEST(DeltaSettlementDp, DegeneratesWhenReducedMajorityFails) {
  // Huge Delta: every honest slot is distorted to A, eps' <= 0, trivial bound.
  const TetraLaw law = theorem7_law(0.50, 0.20, 0.25);
  const SettlementSeries series = delta_settlement_series(law, 64, 16);
  for (std::size_t k = 0; k <= 16; ++k) EXPECT_EQ(series.violation[k], 1.0L) << k;
}

}  // namespace
}  // namespace mh
