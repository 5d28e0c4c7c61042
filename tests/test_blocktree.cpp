#include "protocol/blocktree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fork_fixtures.hpp"

namespace mh {
namespace {

TEST(BlockTree, StartsWithGenesis) {
  const BlockTree tree;
  EXPECT_TRUE(tree.contains(genesis_block().hash));
  EXPECT_EQ(tree.block_count(), 1u);
  EXPECT_EQ(tree.length(genesis_block().hash), 0u);
  EXPECT_EQ(tree.best_length(), 0u);
}

TEST(BlockTree, AddValidatesParentSlotAndIntegrity) {
  BlockTree tree;
  const Block good = make_block(genesis_block().hash, 1, 0, 0);
  EXPECT_TRUE(tree.add(good));
  EXPECT_EQ(tree.length(good.hash), 1u);

  const Block orphan = make_block(0xdeadbeef, 2, 0, 0);
  EXPECT_FALSE(tree.add(orphan));

  Block tampered = make_block(good.hash, 2, 0, 0);
  tampered.payload = 99;  // hash no longer matches
  EXPECT_FALSE(tree.add(tampered));

  const Block stale = make_block(good.hash, 1, 0, 0);  // slot not increasing
  EXPECT_FALSE(tree.add(stale));

  EXPECT_TRUE(tree.add(good));  // idempotent re-insertion
  EXPECT_EQ(tree.block_count(), 2u);
}

TEST(BlockTree, BestHeadLongestChainWins) {
  BlockTree tree;
  const auto a = fixtures::grow_chain(tree, genesis_block().hash, {1, 2});
  fixtures::grow_chain(tree, genesis_block().hash, {3}, 1);
  EXPECT_EQ(tree.best_head(TieBreak::AdversarialOrder), a.back().hash);
  EXPECT_EQ(tree.best_head(TieBreak::ConsistentHash), a.back().hash);
  EXPECT_EQ(tree.best_length(), 2u);
}

TEST(BlockTree, TieBreakByArrivalVsHash) {
  BlockTree tree;
  const Block a = make_block(genesis_block().hash, 1, 0, 7);
  const Block b = make_block(genesis_block().hash, 2, 1, 8);
  tree.add(a);
  tree.add(b);
  EXPECT_EQ(tree.best_head(TieBreak::AdversarialOrder), a.hash);  // first arrival
  EXPECT_EQ(tree.best_head(TieBreak::ConsistentHash), std::min(a.hash, b.hash));
  const auto heads = tree.max_length_heads();
  ASSERT_EQ(heads.size(), 2u);
  EXPECT_EQ(heads[0], a.hash);
}

TEST(BlockTree, ChainReconstruction) {
  BlockTree tree;
  const auto a = fixtures::grow_chain(tree, genesis_block().hash, {1, 4});
  const auto chain = tree.chain(a.back().hash);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0], genesis_block().hash);
  EXPECT_EQ(chain[1], a[0].hash);
  EXPECT_EQ(chain[2], a[1].hash);
}

TEST(BlockTree, CommonAncestor) {
  BlockTree tree;
  const auto trunk = fixtures::grow_chain(tree, genesis_block().hash, {1});
  const auto left = fixtures::grow_chain(tree, trunk.back().hash, {2});
  const auto right = fixtures::grow_chain(tree, trunk.back().hash, {3, 4}, 1);
  EXPECT_EQ(tree.common_ancestor(left.back().hash, right.back().hash), trunk.back().hash);
  EXPECT_EQ(tree.common_ancestor(right.back().hash, right.front().hash), right.front().hash);
  EXPECT_EQ(tree.common_ancestor(left.back().hash, left.back().hash), left.back().hash);
}

TEST(BlockTree, BlockAtSlot) {
  BlockTree tree;
  const auto a = fixtures::grow_chain(tree, genesis_block().hash, {2, 5});
  EXPECT_EQ(tree.block_at_slot(a.back().hash, 5), a.back().hash);
  EXPECT_EQ(tree.block_at_slot(a.back().hash, 4), a.front().hash);
  EXPECT_EQ(tree.block_at_slot(a.back().hash, 2), a.front().hash);
  EXPECT_EQ(tree.block_at_slot(a.back().hash, 1), std::nullopt);
}

TEST(BlockTree, UnknownBlockThrows) {
  const BlockTree tree;
  EXPECT_THROW(static_cast<void>(tree.length(12345)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(tree.block(12345)), std::invalid_argument);
}

TEST(BlockTree, TryAddDistinguishesOrphanFromInvalid) {
  BlockTree tree;
  const Block good = make_block(genesis_block().hash, 1, 0, 0);
  EXPECT_EQ(tree.try_add(good), BlockTree::AddResult::Added);
  EXPECT_EQ(tree.try_add(good), BlockTree::AddResult::Duplicate);

  // Parent unknown: retriable, NOT invalid — it may arrive later.
  const Block orphan = make_block(0xdeadbeef, 2, 0, 0);
  EXPECT_EQ(tree.try_add(orphan), BlockTree::AddResult::Orphan);

  // Tampered header / non-increasing slot: permanently invalid.
  Block tampered = make_block(good.hash, 2, 0, 0);
  tampered.payload = 99;
  EXPECT_EQ(tree.try_add(tampered), BlockTree::AddResult::Invalid);
  const Block stale = make_block(good.hash, 1, 0, 0);
  EXPECT_EQ(tree.try_add(stale), BlockTree::AddResult::Invalid);
}

TEST(BlockTree, AdversarialOrderIsFirstArrivalSemantics) {
  // Pin of the intended axiom-A0 rule: among tied maximum-length heads the
  // FIRST-arrived wins (the adversary orders deliveries, so "first" is its
  // lever). The seed carried a dead "later arrival wins" comparison branch;
  // this test pins the simplification.
  BlockTree tree;
  const Block a = make_block(genesis_block().hash, 1, 0, 1);
  const Block b = make_block(genesis_block().hash, 2, 1, 2);
  tree.add(a);
  tree.add(b);
  EXPECT_EQ(tree.best_head(TieBreak::AdversarialOrder), a.hash);

  // A strictly longer chain resets the tie set: its tip is now first arrival.
  const Block c = make_block(b.hash, 3, 0, 3);
  tree.add(c);
  EXPECT_EQ(tree.best_head(TieBreak::AdversarialOrder), c.hash);

  // A later equal-length head joins the tie set but does not displace c.
  const Block d = make_block(a.hash, 4, 1, 4);
  tree.add(d);
  EXPECT_EQ(tree.best_head(TieBreak::AdversarialOrder), c.hash);
  const auto heads = tree.max_length_heads();
  ASSERT_EQ(heads.size(), 2u);
  EXPECT_EQ(heads[0], c.hash);
  EXPECT_EQ(heads[1], d.hash);
  EXPECT_EQ(tree.best_head(TieBreak::ConsistentHash), std::min(c.hash, d.hash));
}

TEST(BlockTree, AncestorAtLength) {
  BlockTree tree;
  const auto chain = fixtures::grow_chain(tree, genesis_block().hash, {1, 2, 5, 9});
  EXPECT_EQ(tree.ancestor_at_length(chain.back().hash, 0), genesis_block().hash);
  for (std::size_t len = 1; len <= chain.size(); ++len)
    EXPECT_EQ(tree.ancestor_at_length(chain.back().hash, len), chain[len - 1].hash);
  EXPECT_THROW(static_cast<void>(tree.ancestor_at_length(chain.front().hash, 2)),
               std::invalid_argument);
}

TEST(BlockTree, LiftedQueriesMatchNaiveWalks) {
  // Differential fuzz of the binary-lifting paths against parent-walk
  // references on a random tree mixing long chains and wide forks.
  Rng rng(0xb10c);
  BlockTree tree;
  std::vector<Block> blocks{genesis_block()};
  for (std::uint64_t i = 0; i < 500; ++i) {
    // Bias towards recent parents so chains get deep; sometimes fork wide.
    const std::size_t pick = rng.bernoulli(0.7) ? blocks.size() - 1 : rng.below(blocks.size());
    const Block& parent = blocks[pick];
    const Block b = make_block(parent.hash, parent.slot + 1 + rng.below(3), 0, i);
    ASSERT_EQ(tree.try_add(b), BlockTree::AddResult::Added);
    blocks.push_back(b);
  }

  const auto naive_chain_up = [&](BlockHash h) {
    std::vector<BlockHash> up{h};
    while (up.back() != genesis_block().hash) up.push_back(tree.block(up.back()).parent);
    return up;
  };
  const auto naive_meet = [&](BlockHash a, BlockHash b) {
    std::vector<BlockHash> ua = naive_chain_up(a);
    std::vector<BlockHash> ub = naive_chain_up(b);
    while (ua.size() > ub.size()) ua.erase(ua.begin());
    while (ub.size() > ua.size()) ub.erase(ub.begin());
    for (std::size_t i = 0; i < ua.size(); ++i)
      if (ua[i] == ub[i]) return ua[i];
    return genesis_block().hash;
  };
  const auto naive_at_slot = [&](BlockHash head, std::uint64_t s) -> std::optional<BlockHash> {
    for (BlockHash h = head; h != genesis_block().hash; h = tree.block(h).parent)
      if (tree.block(h).slot <= s) return h;
    return std::nullopt;
  };

  for (int trial = 0; trial < 300; ++trial) {
    const Block& x = blocks[rng.below(blocks.size())];
    const Block& y = blocks[rng.below(blocks.size())];
    EXPECT_EQ(tree.common_ancestor(x.hash, y.hash), naive_meet(x.hash, y.hash));
    const std::uint64_t s = rng.below(x.slot + 2);
    EXPECT_EQ(tree.block_at_slot(x.hash, s), naive_at_slot(x.hash, s));
    const std::size_t len = rng.below(tree.length(x.hash) + 1);
    const std::vector<BlockHash> up = naive_chain_up(x.hash);
    EXPECT_EQ(tree.ancestor_at_length(x.hash, len), up[up.size() - 1 - len]);
  }

  // The incremental head set matches a from-scratch arrival-order scan.
  std::vector<BlockHash> scan;
  for (BlockHash h : tree.arrival_order())
    if (tree.length(h) == tree.best_length()) scan.push_back(h);
  EXPECT_EQ(tree.max_length_heads(), scan);
}

// A deliberately naive map-based tree retained as the differential reference
// for the SoA implementation: same validation order (duplicate -> integrity
// -> parent -> slot), same head-set rule, every query a plain parent walk.
class ReferenceTree {
 public:
  ReferenceTree() {
    const Block& g = genesis_block();
    entries_.emplace(g.hash, Entry{g, 0});
    arrival_.push_back(g.hash);
  }

  BlockTree::AddResult try_add(const Block& b) {
    if (entries_.count(b.hash) != 0) return BlockTree::AddResult::Duplicate;
    if (!verify_block_integrity(b)) return BlockTree::AddResult::Invalid;
    const auto parent = entries_.find(b.parent);
    if (parent == entries_.end()) return BlockTree::AddResult::Orphan;
    if (b.slot <= parent->second.block.slot) return BlockTree::AddResult::Invalid;
    entries_.emplace(b.hash, Entry{b, parent->second.length + 1});
    arrival_.push_back(b.hash);
    return BlockTree::AddResult::Added;
  }

  [[nodiscard]] bool contains(BlockHash h) const { return entries_.count(h) != 0; }
  [[nodiscard]] std::size_t length(BlockHash h) const { return entries_.at(h).length; }
  [[nodiscard]] std::size_t block_count() const { return entries_.size(); }

  [[nodiscard]] std::size_t best_length() const {
    std::size_t best = 0;
    for (const auto& [h, e] : entries_) best = std::max(best, e.length);
    return best;
  }

  [[nodiscard]] std::vector<BlockHash> max_length_heads() const {
    const std::size_t best = best_length();
    std::vector<BlockHash> heads;
    for (BlockHash h : arrival_)
      if (entries_.at(h).length == best) heads.push_back(h);
    return heads;
  }

  [[nodiscard]] BlockHash best_head(TieBreak rule) const {
    const std::vector<BlockHash> heads = max_length_heads();
    if (rule == TieBreak::AdversarialOrder) return heads.front();
    return *std::min_element(heads.begin(), heads.end());
  }

  [[nodiscard]] std::vector<BlockHash> chain(BlockHash head) const {
    std::vector<BlockHash> out;
    for (BlockHash h = head;; h = entries_.at(h).block.parent) {
      out.push_back(h);
      if (h == genesis_block().hash) break;
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

  [[nodiscard]] BlockHash common_ancestor(BlockHash a, BlockHash b) const {
    std::vector<BlockHash> ca = chain(a);
    const std::vector<BlockHash> cb = chain(b);
    BlockHash meet = genesis_block().hash;
    for (std::size_t i = 0; i < std::min(ca.size(), cb.size()); ++i)
      if (ca[i] == cb[i]) meet = ca[i];
    return meet;
  }

  [[nodiscard]] std::optional<BlockHash> block_at_slot(BlockHash head, std::uint64_t s) const {
    for (BlockHash h = head; h != genesis_block().hash; h = entries_.at(h).block.parent)
      if (entries_.at(h).block.slot <= s) return h;
    return std::nullopt;
  }

  [[nodiscard]] BlockHash ancestor_at_length(BlockHash head, std::size_t len) const {
    const std::vector<BlockHash> c = chain(head);
    return c.at(len);
  }

  [[nodiscard]] const std::vector<BlockHash>& arrival_order() const { return arrival_; }

 private:
  struct Entry {
    Block block;
    std::size_t length = 0;
  };
  std::unordered_map<BlockHash, Entry> entries_;
  std::vector<BlockHash> arrival_;
};

TEST(BlockTree, DifferentialFuzzAgainstReferenceTree) {
  // Random interleavings of out-of-order delivery (via OrphanBuffer flushes),
  // duplicates, tampered headers, stale slots, and lifted queries: the SoA
  // tree must agree with the naive reference on every outcome and view.
  Rng rng(0x50a50a);
  for (int round = 0; round < 8; ++round) {
    // A universe of mostly-valid blocks over a random fork structure.
    std::vector<Block> universe{genesis_block()};
    for (std::uint64_t i = 0; i < 160; ++i) {
      const std::size_t pick =
          rng.bernoulli(0.6) ? universe.size() - 1 : rng.below(universe.size());
      const Block& parent = universe[pick];
      Block b = make_block(parent.hash, parent.slot + 1 + rng.below(2), 0, i);
      if (rng.bernoulli(0.05)) b.payload ^= 0xbad;  // tampered header
      if (rng.bernoulli(0.05)) b = make_block(parent.hash, parent.slot, 0, i);  // stale slot
      universe.push_back(b);
      if (rng.bernoulli(0.1)) universe.push_back(b);  // duplicate delivery
    }
    // Adversarial delivery order: shuffle, so ancestors often arrive late.
    for (std::size_t i = universe.size() - 1; i > 0; --i)
      std::swap(universe[i], universe[rng.below(i + 1)]);

    BlockTree tree;
    ReferenceTree ref;
    OrphanBuffer orphans;
    std::vector<Block> ref_orphans;
    for (const Block& b : universe) {
      const BlockTree::AddResult got = tree.try_add(b);
      const BlockTree::AddResult want = ref.try_add(b);
      ASSERT_EQ(got, want);
      if (got == BlockTree::AddResult::Added) {
        orphans.flush(tree, nullptr);
        // Reference flush: retry until no progress, drop non-orphan outcomes.
        bool progress = true;
        while (progress) {
          progress = false;
          std::vector<Block> still;
          for (const Block& o : ref_orphans) {
            const BlockTree::AddResult r = ref.try_add(o);
            if (r == BlockTree::AddResult::Added) progress = true;
            if (r == BlockTree::AddResult::Orphan) still.push_back(o);
          }
          ref_orphans.swap(still);
        }
      } else if (got == BlockTree::AddResult::Orphan) {
        orphans.buffer(b);
        bool dup = false;
        for (const Block& o : ref_orphans) dup = dup || o.hash == b.hash;
        if (!dup) ref_orphans.push_back(b);
      }

      if (rng.bernoulli(0.2)) {
        // Lifted queries against the naive walks, mid-interleaving (this also
        // exercises incremental lazy lift materialization between adds).
        const auto& arr = tree.arrival_order();
        const BlockHash x = arr[rng.below(arr.size())];
        const BlockHash y = arr[rng.below(arr.size())];
        ASSERT_EQ(tree.common_ancestor(x, y), ref.common_ancestor(x, y));
        const std::size_t at = rng.below(tree.length(x) + 1);
        ASSERT_EQ(tree.ancestor_at_length(x, at), ref.ancestor_at_length(x, at));
        const std::uint64_t s = rng.below(tree.block(x).slot + 2);
        ASSERT_EQ(tree.block_at_slot(x, s), ref.block_at_slot(x, s));
      }
    }

    ASSERT_EQ(orphans.size(), ref_orphans.size());
    ASSERT_EQ(tree.block_count(), ref.block_count());
    ASSERT_EQ(tree.arrival_order(), ref.arrival_order());
    ASSERT_EQ(tree.best_length(), ref.best_length());
    ASSERT_EQ(tree.max_length_heads(), ref.max_length_heads());
    ASSERT_EQ(tree.best_head(TieBreak::AdversarialOrder),
              ref.best_head(TieBreak::AdversarialOrder));
    ASSERT_EQ(tree.best_head(TieBreak::ConsistentHash),
              ref.best_head(TieBreak::ConsistentHash));
    for (BlockHash h : tree.arrival_order()) {
      ASSERT_EQ(tree.length(h), ref.length(h));
      ASSERT_EQ(tree.chain(h), ref.chain(h));
    }
  }
}

// k views sharing one pool against k standalone trees, each pair fed the
// same stream in its own order: duplicates, orphans whose parents come
// later, slot-invalid children, and tampered copies of pooled hashes (same
// hash field, different payload). The streams interleave round-robin, so a
// block may enter the pool through any view, and a copy may reach a view
// before or after its original is pooled. Every outcome and every
// observable must match the standalone twin. With `by_id`, each view is
// handed try_add(id) wherever the stream's block is the pooled copy of its
// hash, and try_add(const Block&) only for a block new to the pool or a
// tampered copy; the standalone twins always take the Block path.
void expect_views_match_standalone_trees(bool by_id) {
  constexpr std::size_t kViews = 4;
  Rng rng(0x900155);
  std::size_t id_adds = 0;
  for (int round = 0; round < 6; ++round) {
    std::vector<Block> valid{genesis_block()};
    std::vector<Block> stream{genesis_block()};  // genesis re-delivery: Duplicate
    for (std::uint64_t i = 0; i < 140; ++i) {
      const std::size_t pick = rng.bernoulli(0.6) ? valid.size() - 1 : rng.below(valid.size());
      const Block parent = valid[pick];
      if (rng.bernoulli(0.06)) {
        stream.push_back(make_block(parent.hash, parent.slot, 0, i));  // slot-invalid child
        continue;
      }
      const Block b = make_block(parent.hash, parent.slot + 1 + rng.below(2), 0, i);
      valid.push_back(b);
      stream.push_back(b);
      if (rng.bernoulli(0.1)) stream.push_back(b);  // duplicate delivery
      if (rng.bernoulli(0.12)) {
        Block tampered = b;  // keeps b's hash field
        tampered.payload ^= 0x5a5a;
        stream.push_back(tampered);
      }
    }

    std::vector<BlockTree> views;
    std::vector<BlockTree> alone;
    views.emplace_back();
    for (std::size_t v = 0; v < kViews; ++v) {
      if (v != 0) views.push_back(views.front().view());
      alone.emplace_back();
    }
    std::vector<OrphanBuffer> view_orphans(kViews);
    std::vector<OrphanBuffer> alone_orphans(kViews);
    std::vector<std::vector<Block>> orders(kViews, stream);
    for (std::vector<Block>& order : orders)
      for (std::size_t i = order.size() - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i + 1)]);

    const auto offer = [&](BlockTree& tree, OrphanBuffer& orphans, const Block& b,
                           bool pooled_by_id) {
      const std::uint32_t id = tree.pool_id(b.hash);
      const bool pooled_copy = id != BlockTree::kNoId && tree.pool_blocks()[id] == b;
      if (pooled_by_id && pooled_copy) ++id_adds;
      const BlockTree::AddResult r =
          pooled_by_id && pooled_copy ? tree.try_add(id) : tree.try_add(b);
      if (r == BlockTree::AddResult::Added) orphans.flush(tree, nullptr);
      if (r == BlockTree::AddResult::Orphan) orphans.buffer(b);
      return r;
    };
    const auto expect_same = [&](const BlockTree& view, const BlockTree& ref) {
      ASSERT_EQ(view.arrival_order(), ref.arrival_order());
      ASSERT_EQ(view.block_count(), ref.block_count());
      ASSERT_EQ(view.best_length(), ref.best_length());
      ASSERT_EQ(view.max_length_heads(), ref.max_length_heads());
      ASSERT_EQ(view.best_head(TieBreak::AdversarialOrder),
                ref.best_head(TieBreak::AdversarialOrder));
      ASSERT_EQ(view.best_head(TieBreak::ConsistentHash), ref.best_head(TieBreak::ConsistentHash));
      for (const Block& b : stream) {
        ASSERT_EQ(view.contains(b.hash), ref.contains(b.hash));
        if (!ref.contains(b.hash)) {
          EXPECT_THROW(static_cast<void>(view.block(b.hash)), std::invalid_argument);
          continue;
        }
        ASSERT_EQ(view.block(b.hash), ref.block(b.hash));
        ASSERT_EQ(view.length(b.hash), ref.length(b.hash));
        ASSERT_EQ(view.chain(b.hash), ref.chain(b.hash));
      }
      const std::vector<BlockHash>& members = ref.arrival_order();
      for (int q = 0; q < 20; ++q) {
        const BlockHash x = members[rng.below(members.size())];
        const BlockHash y = members[rng.below(members.size())];
        ASSERT_EQ(view.common_ancestor(x, y), ref.common_ancestor(x, y));
        const std::size_t at = rng.below(ref.length(x) + 1);
        ASSERT_EQ(view.ancestor_at_length(x, at), ref.ancestor_at_length(x, at));
        const std::uint64_t s = rng.below(ref.block(x).slot + 2);
        ASSERT_EQ(view.block_at_slot(x, s), ref.block_at_slot(x, s));
      }
    };

    for (std::size_t step = 0; step < stream.size(); ++step) {
      for (std::size_t v = 0; v < kViews; ++v) {
        const Block& b = orders[v][step];
        ASSERT_EQ(offer(views[v], view_orphans[v], b, by_id),
                  offer(alone[v], alone_orphans[v], b, false))
            << "round " << round << ", view " << v << ", step " << step;
        ASSERT_EQ(view_orphans[v].size(), alone_orphans[v].size());
      }
      if (rng.bernoulli(0.1))
        for (std::size_t v = 0; v < kViews; ++v) expect_same(views[v], alone[v]);
    }
    for (std::size_t v = 0; v < kViews; ++v) {
      expect_same(views[v], alone[v]);
      // Every valid block ends up in every view, whatever its order.
      ASSERT_EQ(views[v].block_count(), valid.size());
    }
  }
  // The id path carries the deliveries of a pooled copy: every view but the
  // first to see a block gets one.
  if (by_id) EXPECT_GT(id_adds, 500u);
}

TEST(BlockTree, ViewsOverOnePoolMatchStandaloneTrees) { expect_views_match_standalone_trees(false); }

TEST(BlockTree, ViewsFedByPoolIdMatchStandaloneTrees) { expect_views_match_standalone_trees(true); }

TEST(BlockTree, TryAddByIdAdmitsPooledBlocksWithTwoMembershipTests) {
  // try_add(id) on a view: Duplicate for a member, Orphan while the parent is
  // not a member, Added otherwise; holds(), arrival_ids() and arrival_order()
  // follow, and an id outside the pool throws.
  BlockTree global;
  const Block a = make_block(genesis_block().hash, 1, 0, 1);
  const Block b = make_block(a.hash, 2, 0, 2);
  const Block c = make_block(genesis_block().hash, 3, 1, 3);
  for (const Block& x : {a, b, c}) ASSERT_TRUE(global.add(x));
  const std::uint32_t ia = global.pool_id(a.hash);
  const std::uint32_t ib = global.pool_id(b.hash);
  const std::uint32_t ic = global.pool_id(c.hash);

  BlockTree view = global.view();
  EXPECT_EQ(view.try_add(0u), BlockTree::AddResult::Duplicate);  // genesis
  EXPECT_EQ(view.try_add(ib), BlockTree::AddResult::Orphan);
  EXPECT_FALSE(view.holds(ib));
  EXPECT_EQ(view.try_add(ia), BlockTree::AddResult::Added);
  EXPECT_EQ(view.try_add(ia), BlockTree::AddResult::Duplicate);
  EXPECT_EQ(view.try_add(ib), BlockTree::AddResult::Added);
  EXPECT_EQ(view.try_add(ic), BlockTree::AddResult::Added);
  EXPECT_TRUE(view.holds(ia) && view.holds(ib) && view.holds(ic));
  EXPECT_FALSE(view.holds(BlockTree::kNoId));

  const std::vector<std::uint32_t> ids(view.arrival_ids().begin(), view.arrival_ids().end());
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, ia, ib, ic}));
  EXPECT_EQ(view.arrival_order(),
            (std::vector<BlockHash>{genesis_block().hash, a.hash, b.hash, c.hash}));
  EXPECT_EQ(view.best_length(), 2u);
  EXPECT_EQ(view.best_head(TieBreak::AdversarialOrder), b.hash);

  EXPECT_THROW(static_cast<void>(view.try_add(ic + 1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(view.try_add(BlockTree::kNoId)), std::invalid_argument);
  EXPECT_EQ(view.block_count(), 4u);
}

TEST(BlockTree, AGenesisOnlyViewAnswersEveryQueryAsAMaterializedOneDid) {
  // A view that has admitted nothing keeps no state of its own, yet must
  // answer for genesis exactly, whatever else its pool holds.
  BlockTree global;
  const Block a = make_block(genesis_block().hash, 1, 0, 1);
  ASSERT_TRUE(global.add(a));
  const BlockHash g = genesis_block().hash;
  const BlockTree view = global.view();
  const BlockTree standalone;
  for (const BlockTree* tree : {&view, &standalone}) {
    const std::vector<std::uint32_t> ids(tree->arrival_ids().begin(), tree->arrival_ids().end());
    EXPECT_EQ(ids, std::vector<std::uint32_t>{0});
    EXPECT_EQ(tree->arrival_order(), std::vector<BlockHash>{g});
    EXPECT_EQ(tree->block_count(), 1u);
    EXPECT_EQ(tree->best_length(), 0u);
    EXPECT_EQ(tree->best_head(TieBreak::AdversarialOrder), g);
    EXPECT_EQ(tree->best_head(TieBreak::ConsistentHash), g);
    EXPECT_EQ(tree->max_length_heads(), std::vector<BlockHash>{g});
    EXPECT_TRUE(tree->holds(0));
    EXPECT_FALSE(tree->holds(1));
    EXPECT_FALSE(tree->holds(BlockTree::kNoId));
    EXPECT_TRUE(tree->contains(g));
    EXPECT_FALSE(tree->contains(a.hash));
    EXPECT_EQ(tree->chain(g), std::vector<BlockHash>{g});
    EXPECT_EQ(tree->length(g), 0u);
    EXPECT_EQ(tree->block(g), genesis_block());
    EXPECT_EQ(tree->common_ancestor(g, g), g);
    EXPECT_EQ(tree->ancestor_at_length(g, 0), g);
    EXPECT_FALSE(tree->block_at_slot(g, 5).has_value());
    EXPECT_THROW(static_cast<void>(tree->chain(a.hash)), std::invalid_argument);
  }
  // No view stores its own genesis-only arrival list: they all read one.
  EXPECT_EQ(view.arrival_ids().data(), standalone.arrival_ids().data());
}

TEST(BlockTree, MembershipIsExactAcrossWordBoundaries) {
  // 200 genesis children take pool ids 1..200, so a view may admit any
  // subset; admit the ids on either side of the first two word boundaries.
  BlockTree global;
  std::vector<Block> children{genesis_block()};
  for (std::uint64_t i = 1; i <= 200; ++i) {
    children.push_back(make_block(genesis_block().hash, i, 0, i));
    ASSERT_TRUE(global.add(children.back()));
    ASSERT_EQ(global.pool_id(children.back().hash), i);
  }
  BlockTree view = global.view();
  const std::vector<std::uint32_t> admitted{127, 63, 128, 64, 200};
  for (const std::uint32_t id : admitted)
    ASSERT_EQ(view.try_add(id), BlockTree::AddResult::Added) << id;
  for (std::uint32_t id = 0; id <= 200; ++id) {
    const bool member =
        id == 0 || std::find(admitted.begin(), admitted.end(), id) != admitted.end();
    EXPECT_EQ(view.holds(id), member) << id;
    EXPECT_EQ(view.contains(children[id].hash), member) << id;
  }
  EXPECT_FALSE(view.holds(201));
  EXPECT_FALSE(view.holds(BlockTree::kNoId));
  const std::vector<std::uint32_t> ids(view.arrival_ids().begin(), view.arrival_ids().end());
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, 127, 63, 128, 64, 200}));
  // Every admitted child ties at length 1, in arrival order.
  EXPECT_EQ(view.max_length_heads(),
            (std::vector<BlockHash>{children[127].hash, children[63].hash, children[128].hash,
                                    children[64].hash, children[200].hash}));
  EXPECT_EQ(view.best_head(TieBreak::AdversarialOrder), children[127].hash);
  // A block pooled after the view's words were sized still joins it.
  const Block late = make_block(children[64].hash, 300, 1, 300);
  ASSERT_EQ(view.try_add(late), BlockTree::AddResult::Added);
  EXPECT_TRUE(view.holds(201));
  EXPECT_FALSE(global.contains(late.hash));
  EXPECT_EQ(view.best_head(TieBreak::ConsistentHash), late.hash);
}

TEST(BlockTree, ALateViewWhoseFirstAdmissionIsAGenesisChildPastTheFirstWordWorks) {
  // A chain takes ids 1..69, then a genesis child takes id 70: the late
  // view's first admission materializes its state past the first word.
  BlockTree global;
  std::vector<Block> chain;
  for (std::uint64_t slot = 1; slot <= 69; ++slot) {
    chain.push_back(make_block(chain.empty() ? genesis_block().hash : chain.back().hash, slot,
                               0, slot));
    ASSERT_TRUE(global.add(chain.back()));
  }
  const Block child = make_block(genesis_block().hash, 100, 1, 7);
  ASSERT_TRUE(global.add(child));
  ASSERT_EQ(global.pool_id(child.hash), 70u);

  for (const bool by_id : {true, false}) {
    BlockTree view = global.view();
    ASSERT_EQ(by_id ? view.try_add(70u) : view.try_add(child), BlockTree::AddResult::Added);
    EXPECT_TRUE(view.holds(0));
    EXPECT_TRUE(view.holds(70));
    EXPECT_FALSE(view.holds(1));
    EXPECT_EQ(view.block_count(), 2u);
    const std::vector<std::uint32_t> ids(view.arrival_ids().begin(), view.arrival_ids().end());
    EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, 70}));
    EXPECT_EQ(view.best_length(), 1u);
    EXPECT_EQ(view.best_head(TieBreak::AdversarialOrder), child.hash);
    EXPECT_EQ(view.best_head(TieBreak::ConsistentHash), child.hash);
    EXPECT_EQ(view.max_length_heads(), std::vector<BlockHash>{child.hash});
    EXPECT_EQ(view.chain(child.hash), (std::vector<BlockHash>{genesis_block().hash, child.hash}));
    // The chain's first block ties it; its second overtakes both.
    ASSERT_EQ(view.try_add(1u), BlockTree::AddResult::Added);
    EXPECT_EQ(view.max_length_heads(), (std::vector<BlockHash>{child.hash, chain[0].hash}));
    EXPECT_EQ(view.best_head(TieBreak::ConsistentHash), std::min(child.hash, chain[0].hash));
    ASSERT_EQ(view.try_add(chain[1]), BlockTree::AddResult::Added);
    EXPECT_EQ(view.best_head(TieBreak::AdversarialOrder), chain[1].hash);
    EXPECT_EQ(view.common_ancestor(chain[1].hash, child.hash), genesis_block().hash);
  }
}

TEST(BlockTree, LiftPropertiesAtPowerOfTwoLengthBoundaries) {
  // The CSR lift table of an entry owns bit_width(length) levels, so its
  // width changes exactly when length crosses a power of two. Query at every
  // such boundary (and its neighbors) while the chain grows, so the lazily
  // materialized pool is extended across each width change.
  BlockTree tree;
  std::vector<BlockHash> by_length{genesis_block().hash};
  BlockHash tip = genesis_block().hash;
  std::uint64_t slot = 0;
  for (std::size_t len = 1; len <= 1100; ++len) {
    slot += 1 + (len % 3);
    const Block b = make_block(tip, slot, 0, len);
    ASSERT_EQ(tree.try_add(b), BlockTree::AddResult::Added);
    tip = b.hash;
    by_length.push_back(tip);

    const bool boundary = (len & (len - 1)) == 0 || ((len + 1) & len) == 0;
    if (!boundary && len % 97 != 0) continue;
    // ancestor_at_length at the power-of-two jump distances and their
    // neighbors, plus the full boundary set below the tip.
    for (std::size_t j = 1; j <= len; j <<= 1) {
      ASSERT_EQ(tree.ancestor_at_length(tip, len - j), by_length[len - j]);
      if (j > 1) ASSERT_EQ(tree.ancestor_at_length(tip, len - j + 1), by_length[len - j + 1]);
      if (len >= j + 1)
        ASSERT_EQ(tree.ancestor_at_length(tip, len - j - 1), by_length[len - j - 1]);
    }
    ASSERT_EQ(tree.ancestor_at_length(tip, 0), genesis_block().hash);
    ASSERT_EQ(tree.common_ancestor(tip, by_length[len / 2]), by_length[len / 2]);
  }
}

TEST(BlockTree, CapacityGuardThrowsInsteadOfTruncating) {
  // Regression for the silent index truncation: at capacity, try_add must
  // throw (MH_REQUIRE -> std::invalid_argument) and leave the tree intact,
  // never wrap the 32-bit index.
  BlockTree tree(4);  // genesis + 3 blocks
  const auto chain = fixtures::grow_chain(tree, genesis_block().hash, {1, 2, 3});
  EXPECT_EQ(tree.block_count(), 4u);

  const Block overflow = make_block(chain.back().hash, 4, 0, 99);
  EXPECT_THROW(static_cast<void>(tree.try_add(overflow)), std::invalid_argument);
  EXPECT_EQ(tree.block_count(), 4u);
  EXPECT_FALSE(tree.contains(overflow.hash));
  // Pre-insert validation still answers without touching capacity.
  EXPECT_EQ(tree.try_add(chain.back()), BlockTree::AddResult::Duplicate);
  const Block orphan = make_block(0xdeadbeef, 9, 0, 1);
  EXPECT_EQ(tree.try_add(orphan), BlockTree::AddResult::Orphan);
  // The tree still works after the rejected insertion.
  EXPECT_EQ(tree.best_head(TieBreak::AdversarialOrder), chain.back().hash);
  EXPECT_EQ(tree.ancestor_at_length(chain.back().hash, 1), chain.front().hash);
}

TEST(BlockTree, ZeroCapacityIsRejected) {
  EXPECT_THROW(BlockTree tree(0), std::invalid_argument);
}

TEST(BlockTree, ArenaRecyclingIsSemanticallyInvisible) {
  // Two identical builds, the second on recycled storage: every observable
  // must match, and the arena must report the recycle.
  const auto build_and_observe = [] {
    BlockTree tree;
    Rng rng(0xa3e4a);
    std::vector<Block> blocks{genesis_block()};
    for (std::uint64_t i = 0; i < 300; ++i) {
      const std::size_t pick =
          rng.bernoulli(0.7) ? blocks.size() - 1 : rng.below(blocks.size());
      const Block& parent = blocks[pick];
      const Block b = make_block(parent.hash, parent.slot + 1 + rng.below(3), 0, i);
      EXPECT_EQ(tree.try_add(b), BlockTree::AddResult::Added);
      blocks.push_back(b);
    }
    std::vector<BlockHash> view = tree.arrival_order();
    view.push_back(tree.best_head(TieBreak::AdversarialOrder));
    view.push_back(tree.best_head(TieBreak::ConsistentHash));
    for (int i = 0; i < 50; ++i) {
      const BlockHash x = blocks[rng.below(blocks.size())].hash;
      const BlockHash y = blocks[rng.below(blocks.size())].hash;
      view.push_back(tree.common_ancestor(x, y));
      view.push_back(tree.ancestor_at_length(x, rng.below(tree.length(x) + 1)));
    }
    return view;
  };

  const BlockTree::ArenaStats before = BlockTree::arena_stats();
  const std::vector<BlockHash> first = build_and_observe();
  const std::vector<BlockHash> second = build_and_observe();
  const BlockTree::ArenaStats after = BlockTree::arena_stats();

  EXPECT_EQ(first, second);
  EXPECT_EQ(after.acquired, before.acquired + 2);
  EXPECT_EQ(after.released, before.released + 2);
  // The second build (at least) ran on the first build's donated storage.
  EXPECT_GE(after.recycled, before.recycled + 1);
}

TEST(BlockTree, MoveTransfersStorageWithoutDoubleRelease) {
  const BlockTree::ArenaStats before = BlockTree::arena_stats();
  {
    BlockTree a;
    fixtures::grow_chain(a, genesis_block().hash, {1, 2});
    BlockTree b = std::move(a);
    EXPECT_EQ(b.block_count(), 3u);
    EXPECT_EQ(b.best_length(), 2u);
  }  // both destructors run; only b owns storage
  const BlockTree::ArenaStats after = BlockTree::arena_stats();
  EXPECT_EQ(after.acquired, before.acquired + 1);
  EXPECT_EQ(after.released, before.released + 1);
}

TEST(BlockTree, ViewsShareOnePoolReleasedByTheLastView) {
  const BlockTree::ArenaStats before = BlockTree::arena_stats();
  {
    BlockTree owner;
    BlockTree a = owner.view();
    {
      const BlockTree b = owner.view();
      EXPECT_EQ(b.block_count(), 1u);
    }
    EXPECT_EQ(BlockTree::arena_stats().acquired, before.acquired + 1);
    EXPECT_EQ(BlockTree::arena_stats().released, before.released);
    const auto chain = fixtures::grow_chain(a, genesis_block().hash, {1, 2});
    EXPECT_FALSE(owner.contains(chain.back().hash));  // a's blocks are not owner's
    { const BlockTree owner_gone = std::move(owner); }
    // The pool outlives the tree that created it while a view remains.
    EXPECT_EQ(BlockTree::arena_stats().released, before.released);
    EXPECT_EQ(a.best_head(TieBreak::AdversarialOrder), chain.back().hash);
    EXPECT_EQ(a.ancestor_at_length(chain.back().hash, 1), chain.front().hash);
  }
  EXPECT_EQ(BlockTree::arena_stats().released, before.released + 1);
}

}  // namespace
}  // namespace mh
