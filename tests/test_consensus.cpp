// The epoch-managed consensus layer: stake registry, epoch nonces, the VRF
// lottery, the epoch-driven schedule source, and the oracle's grade of
// stake-driven runs.
#include "protocol/consensus/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "engine/seed_sequence.hpp"
#include "engine/thread_pool.hpp"
#include "oracle/oracle.hpp"
#include "protocol/blocktree.hpp"
#include "support/stats.hpp"

namespace mh::consensus {
namespace {

// --- StakeRegistry ---------------------------------------------------------

TEST(StakeRegistry, UniformSharesAndAccessors) {
  const StakeRegistry reg = StakeRegistry::uniform(4, 0.2);
  EXPECT_EQ(reg.honest_parties(), 4u);
  EXPECT_NEAR(reg.adversarial_share(), 0.2, 1e-15);
  for (PartyId p = 0; p < 4; ++p) EXPECT_NEAR(reg.share(p), 0.2, 1e-15);
  EXPECT_NEAR(reg.total_stake(), 1.0, 1e-15);
  const std::vector<double> shares = reg.honest_shares();
  ASSERT_EQ(shares.size(), 4u);
  for (double s : shares) EXPECT_NEAR(s, 0.2, 1e-15);
}

TEST(StakeRegistry, RejectsDegenerateWeights) {
  EXPECT_THROW(StakeRegistry({1.0, -0.5}, 0.2), std::invalid_argument);
  EXPECT_THROW(StakeRegistry({1.0, 2.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(StakeRegistry({0.0, 0.0}, 1.0), std::invalid_argument);  // no honest weight
  EXPECT_THROW(StakeRegistry({}, 0.0), std::invalid_argument);
  EXPECT_THROW(StakeRegistry::uniform(3, 1.0), std::invalid_argument);
}

TEST(StakeRegistry, ShiftsApplyAtTheirEpochInOrder) {
  StakeRegistry reg({2.0, 2.0}, 1.0);
  reg.add_shift({1, 0, 6.0});          // entering epoch 1, party 0 -> 6
  reg.add_shift({2, kAdversary, 0.0});  // entering epoch 2, coalition exits
  reg.add_shift({1, 0, 4.0});          // same epoch, later registration wins
  reg.advance_to_epoch(0);
  EXPECT_NEAR(reg.share(0), 0.4, 1e-15);
  reg.advance_to_epoch(1);
  EXPECT_NEAR(reg.stake(0), 4.0, 1e-15);
  EXPECT_NEAR(reg.share(0), 4.0 / 7.0, 1e-15);
  EXPECT_EQ(reg.current_epoch(), 1u);
  reg.advance_to_epoch(2);
  EXPECT_NEAR(reg.adversarial_share(), 0.0, 1e-15);
  EXPECT_NEAR(reg.share(0), 4.0 / 6.0, 1e-15);
}

TEST(StakeRegistry, SkippedBoundariesStillApplyEveryDueShift) {
  StakeRegistry reg({1.0, 1.0}, 0.0);
  reg.add_shift({1, 0, 3.0});
  reg.add_shift({3, 1, 5.0});
  reg.advance_to_epoch(4);  // jumps over epochs 1..3 in one call
  EXPECT_NEAR(reg.stake(0), 3.0, 1e-15);
  EXPECT_NEAR(reg.stake(1), 5.0, 1e-15);
}

TEST(StakeRegistry, EpochsNeverRewindAndPastShiftsAreRejected) {
  StakeRegistry reg({1.0}, 0.0);
  reg.advance_to_epoch(2);
  EXPECT_THROW(reg.advance_to_epoch(1), std::invalid_argument);
  EXPECT_THROW(reg.add_shift({2, 0, 2.0}), std::invalid_argument);  // boundary crossed
  EXPECT_NO_THROW(reg.add_shift({3, 0, 2.0}));
  EXPECT_THROW(reg.add_shift({0, 5, 1.0}), std::invalid_argument);  // no such party
}

// --- EpochManager ----------------------------------------------------------

TEST(EpochManager, SlotArithmetic) {
  const EpochManager mgr(EpochConfig{.epoch_length = 8}, 1);
  EXPECT_THROW((void)mgr.epoch_of(0), std::invalid_argument);
  EXPECT_EQ(mgr.epoch_of(1), 0u);
  EXPECT_EQ(mgr.epoch_of(8), 0u);
  EXPECT_EQ(mgr.epoch_of(9), 1u);
  EXPECT_EQ(mgr.epoch_start(0), 1u);
  EXPECT_EQ(mgr.epoch_end(0), 8u);
  EXPECT_EQ(mgr.epoch_start(3), 25u);
  EXPECT_EQ(mgr.epochs_covering(8), 1u);
  EXPECT_EQ(mgr.epochs_covering(9), 2u);
  EXPECT_EQ(mgr.epochs_covering(24), 3u);
}

TEST(EpochManager, WindowResolution) {
  EXPECT_EQ(EpochConfig{.epoch_length = 32}.window(), 21u);  // floor(2R/3)
  EXPECT_EQ((EpochConfig{.epoch_length = 1}).window(), 1u);  // floored at 1
  EXPECT_EQ((EpochConfig{.epoch_length = 32, .nonce_window = 5}).window(), 5u);
  EXPECT_THROW((EpochConfig{.epoch_length = 4, .nonce_window = 5}).validate(),
               std::invalid_argument);
}

TEST(EpochManager, NonceIsDeterministicAndWindowSensitive) {
  const EpochManager mgr(EpochConfig{.epoch_length = 8}, 99);
  BlockTree tree;
  // A short canonical chain: blocks at slots 2 and 5 (inside epoch 0's
  // window of floor(16/3) = 5 slots) and slot 7 (outside it).
  const Block b2 = make_block(genesis_block().hash, 2, 0, 11);
  const Block b5 = make_block(b2.hash, 5, 1, 22);
  const Block b7 = make_block(b5.hash, 7, 2, 33);
  tree.add(b2);
  tree.add(b5);
  tree.add(b7);

  // Epoch 0 ignores the chain entirely.
  BlockTree empty;
  EXPECT_EQ(mgr.fold_nonce(0, tree), mgr.fold_nonce(0, empty));

  // Epoch 1 folds the window blocks: deterministic, and sensitive to them.
  const std::uint64_t nonce = mgr.fold_nonce(1, tree);
  EXPECT_EQ(nonce, mgr.fold_nonce(1, tree));
  EXPECT_NE(nonce, mgr.fold_nonce(1, empty));

  // The trailing (grinding-protected) slot 7 does NOT move the nonce: a tree
  // without b7 folds the same window set.
  BlockTree window_only;
  window_only.add(b2);
  window_only.add(b5);
  EXPECT_EQ(nonce, mgr.fold_nonce(1, window_only));

  // Different genesis seeds decouple the whole lottery.
  const EpochManager other(EpochConfig{.epoch_length = 8}, 100);
  EXPECT_NE(nonce, other.fold_nonce(1, tree));
  EXPECT_NE(mgr.fold_nonce(0, empty), other.fold_nonce(0, empty));
}

// --- SlotLeaderSelection ---------------------------------------------------

TEST(SlotLeaderSelection, PhiEndpointsAndMonotonicity) {
  EXPECT_EQ(phi(0.3, 0.0), 0.0);
  EXPECT_NEAR(phi(0.3, 1.0), 0.3, 1e-15);
  double prev = 0.0;
  for (double s = 0.1; s <= 1.0; s += 0.1) {
    const double p = phi(0.3, s);
    EXPECT_GT(p, prev);
    prev = p;
  }
  EXPECT_THROW((void)phi(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)phi(0.3, 1.5), std::invalid_argument);
}

TEST(SlotLeaderSelection, DrawsArePureInTheKey) {
  const SlotLeaderSelection sel(0.4, 7);
  const std::uint64_t nonce = 0xabcdef;
  // Repetition and query order cannot change an outcome.
  for (std::size_t slot = 1; slot <= 64; ++slot)
    for (PartyId p = 0; p < 4; ++p)
      EXPECT_EQ(sel.eligible(nonce, slot, p, 0.2), sel.eligible(nonce, slot, p, 0.2));
  // The nonce genuinely re-keys the lottery: some slot must flip.
  bool any_flip = false;
  for (std::size_t slot = 1; slot <= 64 && !any_flip; ++slot)
    if (sel.eligible(nonce, slot, 0, 0.2) != sel.eligible(nonce + 1, slot, 0, 0.2))
      any_flip = true;
  EXPECT_TRUE(any_flip);
  // draw_slot is the per-party product of eligible(), except that a coalition
  // win absorbs the slot (A symbols admit no honest co-leaders).
  const StakeRegistry reg = StakeRegistry::uniform(4, 0.25);
  bool saw_absorption = false;
  for (std::size_t slot = 1; slot <= 256; ++slot) {
    const SlotLeaders leaders = sel.draw_slot(nonce, slot, reg);
    EXPECT_EQ(leaders.adversarial, sel.eligible(nonce, slot, kAdversary, 0.25));
    if (leaders.adversarial) {
      EXPECT_TRUE(leaders.honest.empty());
      for (PartyId p = 0; p < 4; ++p)
        if (sel.eligible(nonce, slot, p, reg.share(p))) saw_absorption = true;
    } else {
      for (PartyId p = 0; p < 4; ++p) {
        const bool in = std::find(leaders.honest.begin(), leaders.honest.end(), p) !=
                        leaders.honest.end();
        EXPECT_EQ(in, sel.eligible(nonce, slot, p, reg.share(p)));
      }
    }
  }
  EXPECT_TRUE(saw_absorption);  // honest co-winners genuinely forfeited somewhere
}

TEST(SlotLeaderSelection, WinFrequencyWithinClopperPearsonBand) {
  const double f = 0.35, share = 0.3;
  const SlotLeaderSelection sel(f, 12345);
  const std::size_t trials = 20'000;
  std::size_t wins = 0;
  for (std::size_t slot = 1; slot <= trials; ++slot)
    if (sel.eligible(0x1234, slot, 0, share)) ++wins;
  const Proportion band = clopper_pearson_interval(wins, trials, 0.999999);
  const double expect = phi(f, share);
  EXPECT_LE(band.lo, expect);
  EXPECT_GE(band.hi, expect);
}

// --- EpochSchedule ---------------------------------------------------------

TEST(EpochSchedule, MaterializesPerEpochAndGuardsTheFrontier) {
  const ConsensusConfig config{.f = 0.5, .epoch = EpochConfig{.epoch_length = 8}};
  const EpochSchedule sched(config, StakeRegistry::uniform(4, 0.25), 20, 777);
  EXPECT_EQ(sched.horizon(), 20u);
  EXPECT_EQ(sched.honest_parties(), 4u);
  EXPECT_EQ(sched.epoch_count(), 3u);
  EXPECT_EQ(sched.materialized_epochs(), 0u);

  // Nothing is readable before the driver advances the schedule.
  EXPECT_THROW((void)sched.leaders(1), std::invalid_argument);
  EXPECT_THROW((void)sched.eligible(0, 1), std::invalid_argument);
  // Genesis and beyond-horizon answers need no materialization.
  EXPECT_TRUE(sched.leaders(0).honest.empty());
  EXPECT_FALSE(sched.eligible(0, 0));
  EXPECT_FALSE(sched.eligible(0, 21));
  EXPECT_THROW((void)sched.leaders(21), std::invalid_argument);

  BlockTree tree;
  sched.advance_to(1, tree);
  EXPECT_EQ(sched.materialized_epochs(), 1u);
  EXPECT_EQ(sched.materialized_slots(), 8u);
  EXPECT_NO_THROW((void)sched.leaders(8));
  EXPECT_THROW((void)sched.leaders(9), std::invalid_argument);  // epoch 1 unopened

  sched.advance_to(9, tree);
  EXPECT_EQ(sched.materialized_epochs(), 2u);
  sched.advance_to(20, tree);  // final epoch is clipped to the horizon
  EXPECT_EQ(sched.materialized_epochs(), 3u);
  EXPECT_EQ(sched.materialized_slots(), 20u);

  // advance_to is idempotent and the realized snapshot matches the frontier.
  sched.advance_to(20, tree);
  EXPECT_EQ(sched.materialized_epochs(), 3u);
  const LeaderSchedule realized = sched.realized();
  EXPECT_EQ(realized.horizon(), 20u);
  for (std::size_t t = 1; t <= 20; ++t) {
    EXPECT_EQ(realized.leaders(t).honest, sched.leaders(t).honest);
    EXPECT_EQ(realized.leaders(t).adversarial, sched.leaders(t).adversarial);
  }
}

TEST(EpochSchedule, SameSeedSameScheduleDifferentSeedDiffers) {
  const ConsensusConfig config{.f = 0.5, .epoch = EpochConfig{.epoch_length = 16}};
  BlockTree tree;
  const EpochSchedule a(config, StakeRegistry::uniform(4, 0.25), 48, 42);
  const EpochSchedule b(config, StakeRegistry::uniform(4, 0.25), 48, 42);
  const EpochSchedule c(config, StakeRegistry::uniform(4, 0.25), 48, 43);
  a.advance_to(48, tree);
  b.advance_to(48, tree);
  c.advance_to(48, tree);
  bool differs = false;
  for (std::size_t t = 1; t <= 48; ++t) {
    EXPECT_EQ(a.leaders(t).honest, b.leaders(t).honest);
    EXPECT_EQ(a.leaders(t).adversarial, b.leaders(t).adversarial);
    if (a.leaders(t).honest != c.leaders(t).honest ||
        a.leaders(t).adversarial != c.leaders(t).adversarial)
      differs = true;
  }
  EXPECT_TRUE(differs);
  for (std::size_t e = 0; e < 3; ++e) EXPECT_EQ(a.epoch_nonce(e), b.epoch_nonce(e));
}

TEST(EpochSchedule, InducedLawMatchesPraosFormulaOnUniformStakes) {
  // For a uniform snapshot the per-party induced law must agree with the
  // closed-form praos_induced_law to within a few ulps.
  const double f = 0.3, adv = 0.25;
  for (const std::size_t n : {std::size_t{2}, std::size_t{6}, std::size_t{100}}) {
    const TetraLaw closed = LeaderSchedule::praos_induced_law(f, adv, n);
    const std::vector<double> shares(n, (1.0 - adv) / static_cast<double>(n));
    const TetraLaw general = induced_law(f, shares, adv);
    EXPECT_NEAR(general.pBot, closed.pBot, 1e-14);
    EXPECT_NEAR(general.ph, closed.ph, 1e-14);
    EXPECT_NEAR(general.pH, closed.pH, 1e-14);
    EXPECT_NEAR(general.pA, closed.pA, 1e-14);
  }
}

TEST(EpochSchedule, SkewedStakesShiftTheInducedLaw) {
  // One whale + many minnows produces strictly fewer multi-leader slots than
  // the uniform split of the same total (the H mass is Schur-concave).
  const double f = 0.4;
  const TetraLaw uniform = induced_law(f, {0.25, 0.25, 0.25}, 0.25);
  const TetraLaw skewed = induced_law(f, {0.65, 0.05, 0.05}, 0.25);
  EXPECT_LT(skewed.pH, uniform.pH);
  EXPECT_NEAR(skewed.pBot, uniform.pBot, 1e-14);  // same total honest share
  EXPECT_NEAR(skewed.pA, uniform.pA, 1e-14);
}

TEST(EpochSchedule, StakeShiftChangesTheEpochLaw) {
  const ConsensusConfig config{.f = 0.5, .epoch = EpochConfig{.epoch_length = 8}};
  StakeRegistry reg = StakeRegistry::uniform(4, 0.25);
  reg.add_shift({1, 0, 0.5});  // party 0 doubles entering epoch 1
  const EpochSchedule sched(config, std::move(reg), 24, 5);
  BlockTree tree;
  sched.advance_to(24, tree);
  ASSERT_EQ(sched.materialized_epochs(), 3u);
  EXPECT_NE(sched.epoch_honest_shares(0), sched.epoch_honest_shares(1));
  EXPECT_EQ(sched.epoch_honest_shares(1), sched.epoch_honest_shares(2));
  const TetraLaw law0 = sched.epoch_induced_law(0);
  const TetraLaw law1 = sched.epoch_induced_law(1);
  EXPECT_NE(law0.ph, law1.ph);
  // Epoch nonces stay distinct across the boundary (fresh lottery keys).
  EXPECT_NE(sched.epoch_nonce(0), sched.epoch_nonce(1));
}

// --- the oracle's grade of stake-driven runs ------------------------------

oracle::RunConfig shifted_cell() {
  oracle::RunConfig config;
  config.stake.emplace();
  config.stake->consensus.f = 0.5;
  config.stake->consensus.epoch.epoch_length = 32;
  config.stake->adversarial_stake = 0.25;
  // Mid-run redistribution: entering epoch 1 the coalition buys half of party
  // 0's stake (one spec down, one spec up — the adaptive-corruption axis).
  config.stake->shifts = {{1, 0, 0.0625}, {1, kAdversary, 0.3125}};
  config.honest_parties = 6;
  config.horizon = 96;
  config.target_slot = 2;
  config.k = 6;
  return config;
}

TEST(EpochOracle, ShiftedExecutionGradesCleanWithAllCells) {
  const oracle::RunConfig config = shifted_cell();
  engine::SeedSequence streams(2024);
  for (std::uint64_t i = 0; i < 8; ++i) {
    Rng rng = streams.stream(i);
    const oracle::RunVerdict verdict = oracle::check_execution(config, rng);
    EXPECT_TRUE(verdict.dominated()) << "cell " << i << " code " << verdict.code();
    EXPECT_TRUE(verdict.all_graded);
    EXPECT_TRUE(verdict.laws_within_band);
    ASSERT_EQ(verdict.epochs.size(), 3u);  // 96 slots / 32-slot epochs, none ungraded
    for (const oracle::EpochCell& cell : verdict.epochs) {
      EXPECT_TRUE(cell.law_within_band) << "epoch " << cell.epoch;
      EXPECT_EQ(cell.slots, 32u);
      // The reduced (Proposition 4) law is attached and normalized.
      EXPECT_NEAR(cell.reduced.ph + cell.reduced.pH + cell.reduced.pA, 1.0, 1e-12);
    }
    // The shift moved the epoch-1 law (more adversarial mass, less honest).
    EXPECT_GT(verdict.epochs[1].induced.pA, verdict.epochs[0].induced.pA);
  }
}

TEST(EpochOracle, VerdictsAreThreadCountInvariant) {
  const oracle::RunConfig config = shifted_cell();
  const std::size_t cells = 12;
  const auto sweep = [&](std::size_t threads) {
    std::vector<char> codes(cells);
    std::vector<std::uint64_t> nonces(cells);
    std::vector<std::int64_t> margins(cells);
    engine::SeedSequence streams(777);
    engine::for_each_index(cells, threads, [&](std::size_t i) {
      Rng rng = streams.stream(i);
      const oracle::RunVerdict v = oracle::check_execution(config, rng);
      codes[i] = v.code();
      margins[i] = v.fork_margin;
      std::uint64_t folded = 0;
      for (const oracle::EpochCell& cell : v.epochs)
        folded = fnv1a_accumulate(folded, cell.nonce);
      nonces[i] = folded;
    });
    return std::tuple{codes, nonces, margins};
  };
  const auto serial = sweep(1);
  EXPECT_EQ(serial, sweep(2));
  EXPECT_EQ(serial, sweep(8));
}

// The shifted sweep's verdicts, pinned: the same 12 streams at root 777 the
// thread-invariance test sweeps, serially. Any drift in the lottery, the
// nonce fold, the simulation or the grade shows up here.
TEST(EpochOracle, ShiftedSweepIsPinned) {
  const oracle::RunConfig config = shifted_cell();
  std::string codes;
  std::vector<std::int64_t> margins;
  std::vector<std::uint64_t> nonces;
  const engine::SeedSequence streams(777);
  for (std::uint64_t i = 0; i < 12; ++i) {
    Rng rng = streams.stream(i);
    const oracle::RunVerdict v = oracle::check_execution(config, rng);
    codes.push_back(v.code());
    margins.push_back(v.fork_margin);
    std::uint64_t folded = 0;
    for (const oracle::EpochCell& cell : v.epochs) folded = fnv1a_accumulate(folded, cell.nonce);
    nonces.push_back(folded);
  }
  EXPECT_EQ(codes, "aaaaaaa.aaVa");
  EXPECT_EQ(margins, (std::vector<std::int64_t>{-16, -15, -20, -20, -15, -26, -5, -7, -17, -3,
                                                -4, 7}));
  EXPECT_EQ(nonces, (std::vector<std::uint64_t>{
                        0x86100b422948edc2ULL, 0xd271df682aa224e5ULL, 0x74e5bab63ace858dULL,
                        0x8ee4635944980cddULL, 0x007f82fc74a01a33ULL, 0x18ed4cd781c4485cULL,
                        0x9d353bbe604ed08aULL, 0xdd3bd7feba755211ULL, 0x082521fc51afbf6fULL,
                        0x1b22ff369d8e701fULL, 0x6af03b58b91fb873ULL, 0x82a9d29bc08dd2beULL}));
}

}  // namespace
}  // namespace mh::consensus
