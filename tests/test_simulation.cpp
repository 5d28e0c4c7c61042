#include "protocol/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "chars/bernoulli.hpp"
#include "obs/obs.hpp"
#include "oracle/characteristic.hpp"
#include "protocol/adversary.hpp"
#include "protocol/faults/injector.hpp"

namespace mh {
namespace {

TEST(Simulation, HonestOnlyGrowsOneBlockPerActiveSlot) {
  // With no adversary and instant delivery, every slot with honest leaders
  // deepens the common chain by exactly one.
  const SymbolLaw law{0.6, 0.4, 0.0};  // no adversarial slots
  Rng rng(21);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 100, 6, rng);
  Simulation sim(schedule, SimulationConfig{TieBreak::ConsistentHash, 1}, 0, nullptr);
  sim.run();
  std::size_t active = 0;
  for (std::size_t t = 1; t <= 100; ++t)
    if (!schedule.leaders(t).honest.empty()) ++active;
  for (const HonestNode& node : sim.nodes())
    EXPECT_EQ(node.best_length(), active);
}

TEST(Simulation, HonestOnlyNoViolations) {
  const SymbolLaw law{0.5, 0.5, 0.0};
  Rng rng(22);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 150, 5, rng);
  for (TieBreak rule : {TieBreak::ConsistentHash, TieBreak::AdversarialOrder}) {
    Simulation sim(schedule, SimulationConfig{rule, 7}, 0, nullptr);
    sim.run();
    EXPECT_FALSE(sim.observed_settlement_violation(1));
    EXPECT_FALSE(sim.observed_cp_slot_violation(10));
    EXPECT_EQ(sim.observed_slot_divergence(), 0u);
  }
}

TEST(Simulation, ConcurrentLeadersForkThenConverge) {
  // Hand schedule: slot 1 has two honest leaders (both extend genesis), slot 2
  // has one leader (all views agree next slot).
  std::vector<SlotLeaders> slots(2);
  slots[0].honest = {0, 1};
  slots[1].honest = {2};
  const LeaderSchedule schedule(std::move(slots), 3);
  Simulation sim(schedule, SimulationConfig{TieBreak::ConsistentHash, 1}, 0, nullptr);
  sim.run_until(1);
  // Two concurrent blocks at depth 1 exist globally.
  EXPECT_EQ(sim.global_tree().max_length_heads().size(), 2u);
  sim.run();
  // The slot-2 leader extended the consistent choice; chains have length 2.
  for (const HonestNode& node : sim.nodes()) EXPECT_EQ(node.best_length(), 2u);
  EXPECT_FALSE(sim.observed_settlement_violation(1));
}

TEST(Simulation, DeltaDelaysDoNotLoseBlocks) {
  const SymbolLaw law{0.7, 0.3, 0.0};
  Rng rng(23);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 80, 4, rng);
  // Null adversary => no extra delays even with delta > 0.
  Simulation sim(schedule, SimulationConfig{TieBreak::ConsistentHash, 2}, 3, nullptr);
  sim.run();
  for (const HonestNode& node : sim.nodes())
    EXPECT_EQ(node.tree().block_count(), sim.global_tree().block_count());
}

TEST(Simulation, MintRequiresAdversarialSlot) {
  std::vector<SlotLeaders> slots(2);
  slots[0].honest = {0};
  slots[1].adversarial = true;
  const LeaderSchedule schedule(std::move(slots), 2);
  Simulation sim(schedule, SimulationConfig{}, 0, nullptr);
  sim.run_until(1);
  EXPECT_THROW(sim.mint_adversarial(genesis_block().hash, 1, 0), std::invalid_argument);
  const Block minted = sim.mint_adversarial(genesis_block().hash, 2, 0);
  EXPECT_TRUE(sim.global_tree().contains(minted.hash));
  // Minted blocks are private until injected.
  for (const HonestNode& node : sim.nodes())
    EXPECT_FALSE(node.tree().contains(minted.hash));
}

// Mints a private two-block chain and injects it to party 0 child-first
// within one slot, so the child is accepted only via the orphan flush.
class ChildFirstInjector : public Adversary {
 public:
  void on_slot_begin(std::size_t slot, Simulation& sim) override {
    if (slot != 4 || done_) return;
    done_ = true;
    m1 = sim.mint_adversarial(genesis_block().hash, 2, 1);
    m2 = sim.mint_adversarial(m1.hash, 3, 2);
    sim.network().inject(m2, 0, 4);  // child first: orphaned on arrival
    sim.network().inject(m1, 0, 4);
  }
  Block m1, m2;

 private:
  bool done_ = false;
};

TEST(Simulation, PublicTreeSeesOrphansAcceptedOutOfOrder) {
  // Regression for the headline seed bug: deliver_due mirrored a block into
  // the public tree only when the node accepted it on FIRST receive, so a
  // block admitted later by the orphan flush was silently lost and the
  // resulting maximal-chain disagreement invisible to
  // observed_settlement_violation.
  std::vector<SlotLeaders> slots(5);
  slots[0].honest = {0};     // A at slot 1
  slots[1].adversarial = true;
  slots[2].adversarial = true;
  slots[3].honest = {1};     // B on A at slot 4
  const LeaderSchedule schedule(std::move(slots), 2);
  ChildFirstInjector adversary;
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 5}, 0, &adversary);
  sim.run();

  // Party 0 accepted the whole private chain (the child via flush)...
  EXPECT_TRUE(sim.nodes()[0].tree().contains(adversary.m1.hash));
  EXPECT_TRUE(sim.nodes()[0].tree().contains(adversary.m2.hash));
  // ...so the public tree must hold it too,
  EXPECT_TRUE(sim.public_tree().contains(adversary.m2.hash));
  // and the two tied maximal public chains disagree about slot 1: the honest
  // chain settles A there, the injected chain skips it.
  EXPECT_EQ(sim.public_tree().max_length_heads().size(), 2u);
  EXPECT_TRUE(sim.observed_settlement_violation(1));
}

// Holds back the slot-2 block from party 1 by one extra slot, so party 1
// forges its slot-3 block on the slot-1 chain: two tied maximal chains, one
// holding a block at slot 2, the other skipping slot 2.
class HoldBackSlot2 : public Adversary {
 public:
  std::vector<std::size_t> delivery_delays(const Block& block, std::size_t,
                                           Simulation& sim) override {
    std::vector<std::size_t> delays(sim.nodes().size(), 0);
    if (block.slot == 2) delays[1] = 1;
    return delays;
  }
};

TEST(Simulation, SlotSkippingVerdictMatchesOracleProjection) {
  // One maximal chain holds a block at slot s = 2, the other skips s but
  // agrees on the slot-1 prefix: Definition 3 counts that as a settlement
  // disagreement about s (an observer handed either chain settles different
  // content), and the analytic side — the Definition-22 projection of the
  // same schedule — must allow what the execution exhibited.
  std::vector<SlotLeaders> slots(3);
  slots[0].honest = {0};  // A
  slots[1].honest = {0};  // B on A, held back from party 1
  slots[2].honest = {1};  // E on A (party 1 has not seen B yet)
  const LeaderSchedule schedule(std::move(slots), 2);
  HoldBackSlot2 adversary;
  const std::size_t delta = 1;
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 9}, delta,
                 &adversary);
  sim.run();

  const std::vector<BlockHash> heads = sim.public_tree().max_length_heads();
  ASSERT_EQ(heads.size(), 2u);
  // One head's chain has a block labelled exactly 2, the other skips slot 2.
  const auto exact_at_2 = [&](BlockHash head) {
    const auto deepest = sim.public_tree().block_at_slot(head, 2);
    return deepest && sim.public_tree().block(*deepest).slot == 2;
  };
  EXPECT_NE(exact_at_2(heads[0]), exact_at_2(heads[1]));
  // Both agree on the slot-1 prefix, so slot 1 is NOT in dispute...
  EXPECT_FALSE(sim.observed_settlement_violation(1));
  // ...but slot 2 is.
  EXPECT_TRUE(sim.observed_settlement_violation(2));

  // The oracle's Definition-22 projection of the same execution must agree
  // that a slot-2 violation is analytically permitted (domination): the
  // Delta-reduction turns the delayed h-run into an effective tie.
  const oracle::AnalyticProjection view = oracle::project_schedule(schedule, delta, 2);
  EXPECT_TRUE(oracle::margin_allows_violation(view) ||
              oracle::prefix_admits_distinct_balance(view));
}

TEST(Simulation, PublicTreeIsExactlyTheUnionOfNodeViews) {
  // Under a randomized adversary (delays, partial leaks, reordering), the
  // public tree must at all times equal the union of honest views: every
  // node-accepted block is public (the seed lost flushed orphans here) and
  // nothing else is.
  const SymbolLaw law{0.4, 0.25, 0.35};
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    Rng rng(seed);
    const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 60, 4, rng);
    RandomizedAdversary adversary(seed);
    Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, rng()}, 2,
                   &adversary);
    sim.run();
    std::size_t union_count = 0;
    std::vector<BlockHash> seen;
    for (const HonestNode& node : sim.nodes())
      for (const BlockHash h : node.tree().arrival_order()) {
        EXPECT_TRUE(sim.public_tree().contains(h)) << "lost node-accepted block, seed " << seed;
        if (std::find(seen.begin(), seen.end(), h) == seen.end()) {
          seen.push_back(h);
          ++union_count;
        }
      }
    EXPECT_EQ(sim.public_tree().block_count(), union_count) << "seed " << seed;
  }
}

TEST(Simulation, RunUntilIsIncremental) {
  const SymbolLaw law{1.0, 0.0, 0.0};
  Rng rng(24);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 50, 3, rng);
  Simulation sim(schedule, SimulationConfig{}, 0, nullptr);
  sim.run_until(10);
  EXPECT_EQ(sim.current_slot(), 10u);
  sim.run_until(10);  // no-op
  EXPECT_EQ(sim.current_slot(), 10u);
  sim.run();
  EXPECT_EQ(sim.current_slot(), 50u);
  EXPECT_THROW(sim.run_until(51), std::invalid_argument);
}

TEST(Simulation, HoldsExactlyOneBlockPool) {
  // Every node view, the public view and the network share the global tree's
  // pool: constructing a Simulation acquires one pool from the arena, and
  // destroying it returns that one pool. Gossip relays and fault re-syncs
  // add none.
  const SymbolLaw law{0.4, 0.25, 0.35};
  Rng rng(31);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(law, 40, 16, rng);
  Rng plan_rng(32);
  faults::FaultInjector injector(
      faults::sample_fault_plan(faults::FaultProfile::Mixed, 16, 40, 2, plan_rng), 16, 40);
  net::NetConfig ring;
  ring.topology = net::TopologyKind::Ring;
  for (const bool gossip : {false, true}) {
    RandomizedAdversary adversary(31);
    const BlockTree::ArenaStats before = BlockTree::arena_stats();
    {
      Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 5}, 2, &adversary,
                     gossip ? &injector : nullptr, gossip ? ring : net::NetConfig{});
      EXPECT_EQ(BlockTree::arena_stats().acquired, before.acquired + 1) << gossip;
      sim.run();
      EXPECT_EQ(BlockTree::arena_stats().acquired, before.acquired + 1) << gossip;
    }
    EXPECT_EQ(BlockTree::arena_stats().released, before.released + 1) << gossip;
  }
}

TEST(Simulation, AllBlocksIsThePoolsCreationOrder) {
  // all_blocks() is the pool's Block column. It is the execution's creation
  // order only if nothing but the global tree ever pools a block: the
  // network, the node views and the public view only name pooled blocks. So
  // the column must match the global tree's arrival order on every strategy,
  // transport and fault profile.
  const SymbolLaw law{0.4, 0.25, 0.35};
  const std::size_t parties = 8;
  const std::size_t horizon = 60;
  const std::size_t delta = 2;
  net::NetConfig ring;
  ring.topology = net::TopologyKind::Ring;
  for (std::uint64_t seed = 1; seed <= 40; ++seed)
    for (const Strategy strategy : {Strategy::Randomized, Strategy::Balance,
                                    Strategy::PrivateChain})
      for (const bool gossip : {false, true})
        for (const bool faulted : {false, true}) {
          Rng rng(seed);
          const LeaderSchedule schedule =
              LeaderSchedule::from_symbol_law(law, horizon, parties, rng);
          const std::unique_ptr<Adversary> adversary = make_strategy(strategy, 10, 5, rng());
          faults::FaultInjector injector(
              faults::sample_fault_plan(faults::FaultProfile::Mixed, parties, horizon, delta,
                                        rng),
              parties, horizon);
          Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, rng()}, delta,
                         adversary.get(), faulted ? &injector : nullptr,
                         gossip ? ring : net::NetConfig{});
          sim.run();
          const std::span<const Block> blocks = sim.all_blocks();
          const std::vector<BlockHash>& order = sim.global_tree().arrival_order();
          ASSERT_EQ(blocks.size(), order.size())
              << "seed " << seed << ", " << strategy_name(strategy) << ", gossip " << gossip
              << ", faults " << faulted;
          for (std::size_t i = 0; i < blocks.size(); ++i)
            ASSERT_EQ(blocks[i].hash, order[i])
                << "seed " << seed << ", " << strategy_name(strategy) << ", gossip " << gossip
                << ", faults " << faulted << ", block " << i;
        }
}

/// Mints a block on genesis at each of its first kMints adversarial slots and
/// never publishes it, so no node ever holds one. With `tamper`, it also
/// injects to everyone, visible at the mint's slot, a copy with a flipped
/// payload: the pooled block's hash field over another header, which the
/// transport can only name by an alias id.
class TamperingAdversary : public Adversary {
 public:
  static constexpr std::size_t kMints = 4;

  explicit TamperingAdversary(bool tamper) : tamper_(tamper) {}

  void on_slot_begin(std::size_t slot, Simulation& sim) override {
    if (mints_.size() == kMints || !sim.schedule().eligible(kAdversary, slot)) return;
    const Block minted = sim.mint_adversarial(genesis_block().hash, slot, 0x7a3e00 + slot);
    mints_.push_back(minted);
    if (!tamper_) return;
    Block copy = minted;
    copy.payload ^= 1;
    sim.network().inject_all(copy, slot);
  }

  [[nodiscard]] const std::vector<Block>& mints() const noexcept { return mints_; }

 private:
  bool tamper_;
  std::vector<Block> mints_;
};

TEST(Simulation, TamperedCopyInjectedToEveryoneIsDroppedByEveryNode) {
  // The alias branch of delivery: a tampered copy of a pooled block reaches
  // every node as the Block it is, and every node drops it. The run must be
  // the run without the injection: same pool column, same public arrival
  // order, same adopted heads. With the metric hooks compiled in, each node
  // counts one invalid drop per tampered copy.
  struct Recording {
    bool was = obs::enabled();
    ~Recording() { obs::set_enabled(was); }
  } recording;
  obs::set_enabled(true);
  obs::Counter& dropped = obs::Registry::global().counter("protocol.node.invalid_dropped");

  const SymbolLaw law{0.4, 0.25, 0.35};
  const std::size_t parties = 8;
  const std::size_t horizon = 80;
  net::NetConfig ring;
  ring.topology = net::TopologyKind::Ring;
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    for (const bool gossip : {false, true}) {
      struct Outcome {
        std::vector<Block> blocks;
        std::vector<BlockHash> public_order;
        std::vector<BlockHash> heads;
        std::vector<Block> mints;
        std::uint64_t dropped = 0;
      };
      const auto run = [&](bool tamper) {
        Rng rng(seed);
        const LeaderSchedule schedule =
            LeaderSchedule::from_symbol_law(law, horizon, parties, rng);
        TamperingAdversary adversary(tamper);
        const std::uint64_t before = dropped.value();
        Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, rng()}, 1,
                       &adversary, nullptr, gossip ? ring : net::NetConfig{});
        sim.run();
        Outcome out;
        out.dropped = dropped.value() - before;
        out.blocks.assign(sim.all_blocks().begin(), sim.all_blocks().end());
        out.public_order = sim.public_tree().arrival_order();
        for (const HonestNode& node : sim.nodes()) {
          out.heads.push_back(node.best_head());
          for (const Block& minted : adversary.mints())
            EXPECT_FALSE(node.knows(minted.hash)) << "seed " << seed << ", gossip " << gossip;
        }
        out.mints = adversary.mints();
        return out;
      };
      const Outcome plain = run(false);
      const Outcome tampered = run(true);
      ASSERT_FALSE(tampered.mints.empty()) << "seed " << seed;
      EXPECT_EQ(tampered.mints, plain.mints);
      EXPECT_EQ(tampered.blocks, plain.blocks) << "seed " << seed << ", gossip " << gossip;
      EXPECT_EQ(tampered.public_order, plain.public_order)
          << "seed " << seed << ", gossip " << gossip;
      EXPECT_EQ(tampered.heads, plain.heads) << "seed " << seed << ", gossip " << gossip;
      if (obs::compiled())
        EXPECT_EQ(tampered.dropped - plain.dropped, tampered.mints.size() * parties)
            << "seed " << seed << ", gossip " << gossip;
    }
}

}  // namespace
}  // namespace mh
