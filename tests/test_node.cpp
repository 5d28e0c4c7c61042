#include "protocol/node.hpp"

#include <gtest/gtest.h>

#include "chars/bernoulli.hpp"

namespace mh {
namespace {

LeaderSchedule fixed_schedule() {
  // Slots: 1 -> honest party 0; 2 -> honest parties 0,1; 3 -> adversarial.
  std::vector<SlotLeaders> slots(3);
  slots[0].honest = {0};
  slots[1].honest = {0, 1};
  slots[2].adversarial = true;
  return LeaderSchedule(std::move(slots), 2);
}

TEST(Node, AcceptsOnlyEligibleIssuers) {
  const LeaderSchedule schedule = fixed_schedule();
  HonestNode node(0, TieBreak::ConsistentHash, &schedule);
  const Block good = make_block(genesis_block().hash, 1, 0, 0);
  node.receive(good);
  EXPECT_EQ(node.best_length(), 1u);

  // Party 1 was not elected in slot 1: the "signature check" rejects.
  const Block forged = make_block(genesis_block().hash, 1, 1, 0);
  node.receive(forged);
  EXPECT_FALSE(node.tree().contains(forged.hash));

  // Adversarial block in the adversarial slot is accepted.
  const Block adv = make_block(good.hash, 3, kAdversary, 0);
  node.receive(adv);
  EXPECT_TRUE(node.tree().contains(adv.hash));
}

TEST(Node, RejectsTamperedBlocks) {
  const LeaderSchedule schedule = fixed_schedule();
  HonestNode node(0, TieBreak::ConsistentHash, &schedule);
  Block b = make_block(genesis_block().hash, 1, 0, 0);
  b.payload ^= 1;  // break the header hash
  node.receive(b);
  EXPECT_EQ(node.tree().block_count(), 1u);
}

TEST(Node, BuffersOrphansUntilParentArrives) {
  const LeaderSchedule schedule = fixed_schedule();
  HonestNode node(1, TieBreak::ConsistentHash, &schedule);
  const Block parent = make_block(genesis_block().hash, 1, 0, 0);
  const Block child = make_block(parent.hash, 2, 1, 0);
  node.receive(child);  // parent unknown: buffered
  EXPECT_FALSE(node.tree().contains(child.hash));
  node.receive(parent);
  EXPECT_TRUE(node.tree().contains(child.hash));
  EXPECT_EQ(node.best_length(), 2u);
}

TEST(Node, ForgeExtendsBestChain) {
  const LeaderSchedule schedule = fixed_schedule();
  HonestNode node(0, TieBreak::ConsistentHash, &schedule);
  const Block b1 = make_block(genesis_block().hash, 1, 0, 0);
  node.receive(b1);
  const Block forged = node.forge(2, 1234);
  EXPECT_EQ(forged.parent, b1.hash);
  EXPECT_EQ(forged.slot, 2u);
  EXPECT_EQ(forged.issuer, 0u);
  EXPECT_TRUE(verify_block_integrity(forged));
}

TEST(Node, ForgeRequiresLeadership) {
  const LeaderSchedule schedule = fixed_schedule();
  HonestNode node(1, TieBreak::ConsistentHash, &schedule);
  // party 1 not a slot-1 leader:
  EXPECT_THROW(static_cast<void>(node.forge(1, 0)), std::invalid_argument);
}

TEST(Node, OrphanBufferDedupesAdversarialRedelivery) {
  // The rushing adversary may re-deliver the same parentless block every
  // slot; the buffer must not grow with redeliveries.
  const LeaderSchedule schedule = fixed_schedule();
  HonestNode node(1, TieBreak::ConsistentHash, &schedule);
  const Block parent = make_block(genesis_block().hash, 1, 0, 0);
  const Block child = make_block(parent.hash, 2, 1, 0);
  for (int i = 0; i < 64; ++i) node.receive(child);
  EXPECT_EQ(node.buffered_orphans(), 1u);
  node.receive(parent);
  EXPECT_EQ(node.buffered_orphans(), 0u);
  EXPECT_TRUE(node.tree().contains(child.hash));
  // Re-delivery after acceptance is a duplicate, not a fresh orphan.
  node.receive(child);
  EXPECT_EQ(node.buffered_orphans(), 0u);
}

TEST(Node, PermanentlyInvalidOrphansAreDroppedOnFlush) {
  // A buffered block whose parent finally arrives but whose slot label does
  // not increase can never become valid; the seed retried it forever.
  const LeaderSchedule schedule = fixed_schedule();
  HonestNode node(0, TieBreak::ConsistentHash, &schedule);
  const Block a = make_block(genesis_block().hash, 1, 0, 0);
  node.receive(a);
  const Block parent = make_block(a.hash, 3, kAdversary, 7);
  const Block same_slot_child = make_block(parent.hash, 3, kAdversary, 8);
  node.receive(same_slot_child);  // parent unknown: buffered
  EXPECT_EQ(node.buffered_orphans(), 1u);
  node.receive(parent);  // parent lands; the child is now provably invalid
  EXPECT_TRUE(node.tree().contains(parent.hash));
  EXPECT_FALSE(node.tree().contains(same_slot_child.hash));
  EXPECT_EQ(node.buffered_orphans(), 0u);
}

TEST(Node, InvalidBlocksAreNeverBuffered) {
  const LeaderSchedule schedule = fixed_schedule();
  HonestNode node(0, TieBreak::ConsistentHash, &schedule);
  const Block a = make_block(genesis_block().hash, 1, 0, 0);
  node.receive(a);
  // Known parent, non-increasing slot: dropped outright.
  const Block stale = make_block(a.hash, 1, 0, 9);
  node.receive(stale);
  EXPECT_EQ(node.buffered_orphans(), 0u);
  EXPECT_FALSE(node.tree().contains(stale.hash));
}

TEST(Node, ReceiveReportsAcceptedBlocksInAcceptanceOrder) {
  const LeaderSchedule schedule = fixed_schedule();
  HonestNode node(1, TieBreak::ConsistentHash, &schedule);
  const Block parent = make_block(genesis_block().hash, 1, 0, 0);
  const Block child = make_block(parent.hash, 2, 1, 0);
  std::vector<Block> accepted;
  node.receive(child, &accepted);
  EXPECT_TRUE(accepted.empty());  // buffered, not accepted
  node.receive(parent, &accepted);
  ASSERT_EQ(accepted.size(), 2u);  // parent first, then the unblocked orphan
  EXPECT_EQ(accepted[0].hash, parent.hash);
  EXPECT_EQ(accepted[1].hash, child.hash);
}

TEST(Node, ConsistentTieBreakPicksMinHash) {
  const LeaderSchedule schedule = fixed_schedule();
  HonestNode node(0, TieBreak::ConsistentHash, &schedule);
  const Block x = make_block(genesis_block().hash, 1, 0, 0);
  const Block y = make_block(genesis_block().hash, 3, kAdversary, 0);
  node.receive(x);
  node.receive(y);
  EXPECT_EQ(node.best_head(), std::min(x.hash, y.hash));
}

TEST(Node, TamperedCopyOfPooledBlockIsNeverAdmitted) {
  // Nodes over one pool validate a delivered copy of a pooled block by
  // equality with the pooled block, not by re-hashing it: a tampered copy
  // (the original's hash field, another payload) must still be rejected,
  // whether or not the receiving node already holds the original.
  const LeaderSchedule schedule = fixed_schedule();
  BlockTree pool;
  HonestNode holder(0, TieBreak::ConsistentHash, &schedule, pool.view());
  HonestNode other(1, TieBreak::ConsistentHash, &schedule, pool.view());
  const Block good = make_block(genesis_block().hash, 1, 0, 0);
  Block tampered = good;
  tampered.payload ^= 1;

  // Not yet pooled: the tree re-hashes the header.
  other.receive(tampered);
  EXPECT_FALSE(other.knows(good.hash));
  EXPECT_EQ(other.buffered_orphans(), 0u);

  holder.receive(good);  // pools the original
  ASSERT_TRUE(holder.tree().contains(good.hash));

  std::vector<Block> accepted;
  holder.receive(tampered, &accepted);  // holds the original: a duplicate
  other.receive(tampered, &accepted);   // does not: must not admit it
  EXPECT_TRUE(accepted.empty());
  EXPECT_EQ(holder.tree().block(good.hash), good);
  EXPECT_FALSE(other.knows(good.hash));
  EXPECT_EQ(other.tree().block_count(), 1u);

  // A tampered copy whose parent the node lacks is invalid, not an orphan.
  const Block child = make_block(good.hash, 2, 1, 5);
  holder.receive(child);
  Block tampered_child = child;
  tampered_child.payload ^= 1;
  other.receive(tampered_child);
  EXPECT_EQ(other.buffered_orphans(), 0u);
  EXPECT_FALSE(other.knows(child.hash));

  // The genuine copies are still admitted, in either order.
  other.receive(child);
  other.receive(good);
  EXPECT_TRUE(other.tree().contains(child.hash));
  EXPECT_EQ(other.tree().block(child.hash), child);
}

TEST(Node, IneligibleBlockIsNeverAdmittedOrKnown) {
  // The eligibility ("signature") check is per node and precedes the tree:
  // a block whose issuer the schedule did not elect is dropped outright —
  // never admitted, never buffered — even when some other tree of the pool
  // holds it.
  const LeaderSchedule schedule = fixed_schedule();
  BlockTree pool;
  HonestNode node(0, TieBreak::ConsistentHash, &schedule, pool.view());
  const Block ineligible = make_block(genesis_block().hash, 1, 1, 0);  // slot 1: party 0 only
  node.receive(ineligible);
  EXPECT_FALSE(node.knows(ineligible.hash));

  ASSERT_TRUE(pool.add(ineligible));  // pooled via a tree without a schedule
  node.receive(ineligible);
  EXPECT_FALSE(node.knows(ineligible.hash));

  const Block ineligible_orphan = make_block(0xdeadbeef, 2, 7, 0);
  node.receive(ineligible_orphan);
  EXPECT_FALSE(node.knows(ineligible_orphan.hash));
  EXPECT_EQ(node.buffered_orphans(), 0u);
  EXPECT_EQ(node.tree().block_count(), 1u);
}

}  // namespace
}  // namespace mh
