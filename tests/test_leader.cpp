#include "protocol/leader.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "protocol/consensus/leader_select.hpp"
#include "protocol/consensus/stake.hpp"
#include "support/stats.hpp"

namespace mh {
namespace {

TEST(Leader, SymbolLevelScheduleShapes) {
  const SymbolLaw law = bernoulli_condition(0.3, 0.3);
  Rng rng(10);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 500, 8, rng);
  EXPECT_EQ(schedule.horizon(), 500u);
  for (std::size_t t = 1; t <= 500; ++t) {
    const SlotLeaders& l = schedule.leaders(t);
    if (l.adversarial) {
      EXPECT_TRUE(l.honest.empty());
    } else {
      EXPECT_GE(l.honest.size(), 1u);
      EXPECT_LE(l.honest.size(), 2u);
      if (l.honest.size() == 2) {
        EXPECT_NE(l.honest[0], l.honest[1]);
      }
    }
  }
}

TEST(Leader, CharacteristicStringMatchesLeaders) {
  const SymbolLaw law = bernoulli_condition(0.4, 0.2);
  Rng rng(11);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 200, 4, rng);
  const CharString w = schedule.characteristic_sync();
  for (std::size_t t = 1; t <= 200; ++t) {
    const SlotLeaders& l = schedule.leaders(t);
    if (l.adversarial)
      EXPECT_EQ(w.at(t), Symbol::A);
    else if (l.honest.size() == 1)
      EXPECT_EQ(w.at(t), Symbol::h);
    else
      EXPECT_EQ(w.at(t), Symbol::H);
  }
}

TEST(Leader, EligibilityChecks) {
  const SymbolLaw law = bernoulli_condition(0.3, 0.4);
  Rng rng(12);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 100, 4, rng);
  for (std::size_t t = 1; t <= 100; ++t) {
    const SlotLeaders& l = schedule.leaders(t);
    EXPECT_EQ(schedule.eligible(kAdversary, t), l.adversarial);
    for (PartyId p : l.honest) EXPECT_TRUE(schedule.eligible(p, t));
  }
  EXPECT_FALSE(schedule.eligible(0, 0));    // genesis slot
  EXPECT_FALSE(schedule.eligible(0, 101));  // beyond horizon
}

TEST(Leader, TetraScheduleMayHaveEmptySlots) {
  const TetraLaw law = theorem7_law(0.3, 0.1, 0.1);
  Rng rng(13);
  const LeaderSchedule schedule = LeaderSchedule::from_tetra_law(law, 300, 4, rng);
  const TetraString w = schedule.characteristic();
  std::size_t empties = 0;
  for (std::size_t t = 1; t <= 300; ++t)
    if (is_empty(w.at(t))) ++empties;
  EXPECT_GT(empties, 120u);  // pBot = 0.7: expect ~210
  EXPECT_THROW(schedule.characteristic_sync(), std::invalid_argument);
}

/// The consensus layer's stake lottery over a uniform registry (one epoch,
/// nonce 0): the characteristic string of the realized schedule.
TetraString uniform_lottery(double f, double adversarial_stake, std::size_t parties,
                            std::size_t horizon, std::uint64_t seed) {
  const consensus::SlotLeaderSelection lottery(f, seed);
  const consensus::StakeRegistry registry =
      consensus::StakeRegistry::uniform(parties, adversarial_stake);
  std::vector<SlotLeaders> slots;
  slots.reserve(horizon);
  for (std::size_t t = 1; t <= horizon; ++t) slots.push_back(lottery.draw_slot(0, t, registry));
  return LeaderSchedule(std::move(slots), parties).characteristic();
}

TEST(Leader, PraosLotteryInducedLawMatchesEmpirical) {
  const double f = 0.3, adv_stake = 0.25;
  const std::size_t parties = 6;
  const TetraLaw predicted = LeaderSchedule::praos_induced_law(f, adv_stake, parties);
  std::array<std::size_t, 4> counts{};  // Bot, h, H, A
  const std::size_t horizon = 60'000;
  const TetraString w = uniform_lottery(f, adv_stake, parties, horizon, 14);
  for (std::size_t t = 1; t <= horizon; ++t) ++counts[static_cast<std::size_t>(w.at(t))];
  const std::array<double, 4> expected{predicted.pBot, predicted.ph, predicted.pH,
                                       predicted.pA};
  EXPECT_LT(chi_square_statistic(counts, expected), chi_square_critical(3, 0.001));
}

TEST(Leader, PraosInducedLawSums) {
  const TetraLaw law = LeaderSchedule::praos_induced_law(0.2, 0.3, 10);
  EXPECT_NEAR(law.pBot + law.ph + law.pH + law.pA, 1.0, 1e-12);
  EXPECT_GT(law.pH, 0.0);  // concurrent honest leaders occur by design
}

TEST(Leader, HSlotNeedsTwoParties) {
  const SymbolLaw all_H{0.0, 1.0, 0.0};
  Rng rng(15);
  EXPECT_THROW(LeaderSchedule::from_symbol_law(all_H, 10, 1, rng), std::invalid_argument);
}

TEST(Leader, GeneratorEntryValidationNamesLawAndParties) {
  // The H-capable law is rejected AT THE ENTRY POINT with a message naming
  // both the law and the party count — not mid-generation at the first
  // sampled H (which made the failure depend on the rng draw).
  const SymbolLaw all_H{0.0, 1.0, 0.0};
  Rng rng(16);
  try {
    (void)LeaderSchedule::from_symbol_law(all_H, 10, 1, rng);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("law (ph="), std::string::npos) << msg;
    EXPECT_NE(msg.find("honest_parties = 1"), std::string::npos) << msg;
  }
  // A law that cannot draw H is happy with a single party.
  const SymbolLaw single_ok{0.6, 0.0, 0.4};
  Rng rng2(17);
  EXPECT_NO_THROW((void)LeaderSchedule::from_symbol_law(single_ok, 10, 1, rng2));
  // Same check, same message, on the tetra entry point.
  const TetraLaw tetra_H{0.2, 0.0, 0.5, 0.3};
  Rng rng3(18);
  EXPECT_THROW((void)LeaderSchedule::from_tetra_law(tetra_H, 10, 1, rng3),
               std::invalid_argument);
}

TEST(Leader, GenesisSlotAgreesAcrossQueries) {
  // leaders(0) and eligible(party, 0) must tell the same story: genesis is
  // never issued. (Previously leaders(0) threw while eligible returned
  // false.)
  const SymbolLaw law = bernoulli_condition(0.3, 0.4);
  Rng rng(19);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 50, 4, rng);
  const SlotLeaders& genesis = schedule.leaders(0);
  EXPECT_TRUE(genesis.honest.empty());
  EXPECT_FALSE(genesis.adversarial);
  EXPECT_FALSE(schedule.eligible(0, 0));
  EXPECT_FALSE(schedule.eligible(kAdversary, 0));
  // Past the horizon the two still diverge deliberately: eligible is a quiet
  // "no" (the signature check), leaders is a hard error (a driver bug).
  EXPECT_FALSE(schedule.eligible(0, 51));
  EXPECT_THROW((void)schedule.leaders(51), std::invalid_argument);
}

TEST(Leader, PhiPrecisionAtCommitteeScale) {
  // The headline regression: phi(share) = 1 - (1-f)^share for share ~ 1/n.
  // The expm1/log1p form must track a long-double reference to 1e-12 relative
  // error at every committee scale; the naive 1 - pow form demonstrably
  // cannot at n = 10^5 (the subtraction cancels to ~half the digits).
  const double f = 0.1, adv = 0.25;
  for (const std::size_t n : {std::size_t{10}, std::size_t{1000}, std::size_t{100000}}) {
    const double share = (1.0 - adv) / static_cast<double>(n);
    const long double ref =
        -std::expm1l(static_cast<long double>(share) * std::log1pl(-(long double)f));
    const double fixed = consensus::phi(f, share);
    const long double rel_fixed = std::fabs(static_cast<long double>(fixed) - ref) / ref;
    EXPECT_LE(rel_fixed, 1e-12L) << "n = " << n;
    if (n == 100000) {
      const double naive = 1.0 - std::pow(1.0 - f, share);
      const long double rel_naive = std::fabs(static_cast<long double>(naive) - ref) / ref;
      EXPECT_GT(rel_naive, 1e-12L) << "the old formula unexpectedly kept full precision";
    }
  }
}

TEST(Leader, InducedLawPrecisionAtCommitteeScale) {
  // The induced law's one-winner mass goes through the same small-share
  // regime: n * phi * q^(n-1). Long-double reference at n = 10^5.
  const double f = 0.1, adv = 0.25;
  const std::size_t n = 100000;
  const long double share = (1.0L - (long double)adv) / static_cast<long double>(n);
  const long double Lq = share * std::log1pl(-(long double)f);
  const long double p_adv = -std::expm1l((long double)adv * std::log1pl(-(long double)f));
  const long double no_honest = std::exp(static_cast<long double>(n) * Lq);
  const long double one_honest = static_cast<long double>(n) * (-std::expm1l(Lq)) *
                                 std::exp(static_cast<long double>(n - 1) * Lq);
  const TetraLaw law = LeaderSchedule::praos_induced_law(f, adv, n);
  const long double ref_ph = (1.0L - p_adv) * one_honest;
  const long double ref_bot = (1.0L - p_adv) * no_honest;
  EXPECT_LE(std::fabs((long double)law.ph - ref_ph) / ref_ph, 1e-12L);
  EXPECT_LE(std::fabs((long double)law.pBot - ref_bot) / ref_bot, 1e-12L);
  EXPECT_NEAR(law.pBot + law.ph + law.pH + law.pA, 1.0, 1e-12);
}

TEST(Leader, PraosLotteryWithinClopperPearsonBands) {
  // Exact-band agreement between the lottery and its analytic induced law:
  // each symbol's frequency over a 10^4-slot horizon must sit inside the
  // Clopper-Pearson band around the induced mass (no normal approximation —
  // pH here is a rare event).
  const double f = 0.25, adv_stake = 0.2;
  const std::size_t parties = 8, horizon = 10'000;
  const TetraLaw predicted = LeaderSchedule::praos_induced_law(f, adv_stake, parties);
  const TetraString w = uniform_lottery(f, adv_stake, parties, horizon, 20);
  std::array<std::size_t, 4> counts{};
  for (std::size_t t = 1; t <= horizon; ++t) ++counts[static_cast<std::size_t>(w.at(t))];
  const std::array<double, 4> masses{predicted.pBot, predicted.ph, predicted.pH,
                                     predicted.pA};
  for (std::size_t s = 0; s < 4; ++s) {
    const Proportion band = clopper_pearson_interval(counts[s], horizon, 0.999999);
    EXPECT_LE(band.lo, masses[s]) << "symbol " << s;
    EXPECT_GE(band.hi, masses[s]) << "symbol " << s;
  }
}

}  // namespace
}  // namespace mh
