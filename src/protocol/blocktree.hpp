// A party's local view of the block DAG (a tree, by the parent-hash links),
// with longest-chain selection under the two tie-breaking regimes:
//
//   * AdversarialOrder (axiom A0): ties between maximum-length chains resolve
//     by FIRST arrival, which the rushing adversary controls per recipient
//     (it orders each slot's deliveries, so "first" is its choice);
//   * ConsistentHash (axiom A0'): every honest party breaks ties by the
//     minimal head hash, so identical views yield identical selections.
//
// One execution stores every block exactly once. A block POOL holds the
// shared, view-independent facts of each block: the block itself, its chain
// length, slot and parent, in structure-of-arrays columns indexed by a
// 32-bit pool id; the binary-lifting ancestor tables in ONE flat CSR array
// indexed by (id, level) — up(i, j) = the 2^j-th ancestor of id i, up(i, 0)
// the parent; and the hash -> id map, a flat open-addressing table (keys are
// already FNV digests). A BlockTree is a VIEW over a pool: a membership bit
// per pool id (64 ids to a word), its own arrival order as a list of 4-byte
// pool ids, its own maximum-length head set (arrival order) and min-hash
// head. This is the paper's picture: the fork is a single tree and each
// honest party's view is a subset of it.
//
// A genesis-only view allocates nothing: its membership words, arrival list
// and head set stay empty until its first admission, which materializes them
// with genesis (id 0) in place, and every query answers for genesis alone
// meanwhile. A committee of 10^5 parties that each hold a view therefore
// pays for a view only once it admits a block.
//
// A standalone BlockTree() owns a private pool; view() makes another,
// genesis-only tree over the same pool. A simulation builds every node view
// and its public view from its global tree, so P honest parties share one
// store instead of keeping P+2 copies. Views are ancestor-closed (a block
// joins a view only after its parent), so a query about a member may walk
// pool ancestry freely: chain, length, block, common_ancestor,
// block_at_slot and ancestor_at_length check membership, then answer from
// the pool's columns. best_head / max_length_heads are O(1)+copy, the
// ancestry queries O(log chain).
//
// Integrity is checked once, when a block enters the pool: the header is
// re-hashed, and a block enters only once its parent is pooled and its slot
// exceeds the parent's. A later copy of a pooled hash is validated by
// equality with the pooled block, so a tampered copy (same hash field,
// different header) is still Invalid, without a second hash. Admission has
// one path, by pool id: try_add(id) is two membership tests (the id, its
// parent) and no hash lookup, and try_add(const Block&) resolves a pooled
// copy to its id and delegates to it. Only a block new to the pool takes a
// path of its own, and it is pooled only when this view admits it.
//
// Four pool-level accessors serve the transport, which names blocks by pool
// id and stores none itself: pool_id (hash -> id, whichever view admitted the
// block), pool_blocks (the Block column, in pooling order), pool_parents (the
// parent-id column its ancestry walks follow) and enter_pool (pool a block
// under the same checks, admitting it to no view).
//
// The lift tables are materialized LAZILY: an insertion appends only the
// fixed-stride columns; the first lifted query after a batch of insertions
// extends the table for the new ids in one contiguous pass (each id is built
// exactly once — ancestors always precede descendants in the pool). Lazy
// materialization is why the query methods are const but not internally
// synchronized: views of one pool must not be used from two threads
// concurrently (no simulation shares its pool).
//
// The pool is recycled through a thread-local arena: when its last view is
// destroyed the pool donates its buffers, and the next pool created on the
// same thread reuses them, so a sweep cell that runs executions back to back
// performs no per-block pool allocations after its first run reached the
// high-water mark. Recycling is invisible to semantics (a pool is fully
// reset on reuse; only capacities survive).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "protocol/block.hpp"

namespace mh {

enum class TieBreak { AdversarialOrder, ConsistentHash };

class BlockTree {
 public:
  /// Why an insertion did (not) extend the tree. `Orphan` is the only
  /// retriable outcome (the parent may still arrive); `Invalid` blocks can
  /// never become valid (tampered header, or slot not strictly above the
  /// parent's) and must not be buffered.
  enum class AddResult : std::uint8_t { Added, Duplicate, Orphan, Invalid };

  /// Pool ids are 32-bit; 0xffffffff is the index map's empty sentinel, so a
  /// pool holds at most this many blocks (genesis included). try_add guards
  /// the limit with MH_REQUIRE — reachable at the 10^6-party / 10^7-slot
  /// bench tiers, it must fail loudly, never truncate.
  static constexpr std::size_t kMaxBlocks = 0xffffffffu;

  /// A tree over a private pool.
  BlockTree();
  /// Test hook: cap the private pool at `max_blocks` total entries (genesis
  /// included, clamped to kMaxBlocks) so the overflow guard path is
  /// exercisable without 2^32 insertions.
  explicit BlockTree(std::size_t max_blocks);

  // A tree is movable, not copyable; view() is the explicit way to share.
  BlockTree(BlockTree&&) noexcept = default;
  BlockTree& operator=(BlockTree&&) noexcept = default;
  BlockTree(const BlockTree&) = delete;
  BlockTree& operator=(const BlockTree&) = delete;

  /// A new genesis-only tree over this tree's pool. Blocks either tree (or
  /// any other view of the pool) admits are stored once; each view answers
  /// for its own members only.
  [[nodiscard]] BlockTree view() const;

  /// Validates and inserts, in this order: Duplicate if the block is in this
  /// view; Invalid if its header is not intact (re-hashed on first sight,
  /// compared with the pooled copy after); Orphan if its parent is not in
  /// this view; Invalid if its slot does not exceed the parent's; else
  /// Added. The block is ignored unless `Added`; a pooled copy is admitted
  /// through try_add(id). Throws std::invalid_argument (MH_REQUIRE) if
  /// pooling it would overflow the 32-bit id or chain-length space.
  AddResult try_add(const Block& block);

  /// Admit the pooled block `id`: Duplicate if it is in this view, Orphan if
  /// its parent is not, else Added. A pooled block passed the integrity and
  /// slot checks on entry, so it is never Invalid. O(1), no hash lookup.
  /// Throws std::invalid_argument if `id` is not a pool id.
  AddResult try_add(std::uint32_t id);

  /// `try_add`, collapsed to "is the block in the tree after the call".
  bool add(const Block& block) {
    const AddResult r = try_add(block);
    return r == AddResult::Added || r == AddResult::Duplicate;
  }

  [[nodiscard]] bool contains(BlockHash hash) const;
  /// Is pool id `id` a member of this view? O(1); false for any other id.
  [[nodiscard]] bool holds(std::uint32_t id) const noexcept { return member(id); }
  [[nodiscard]] const Block& block(BlockHash hash) const;
  /// Chain length from genesis (genesis has length 0).
  [[nodiscard]] std::size_t length(BlockHash hash) const;
  [[nodiscard]] std::size_t block_count() const noexcept {
    return arrival_.empty() ? 1 : arrival_.size();
  }

  /// Longest-chain selection per the tie-break rule, O(1): under
  /// AdversarialOrder the first-arrived maximum-length block wins; under
  /// ConsistentHash the minimal hash among them.
  [[nodiscard]] BlockHash best_head(TieBreak rule) const;
  /// All maximum-length chain heads, in arrival order (the tie set the
  /// adversary may order under axiom A0). O(|heads|) copy.
  [[nodiscard]] std::vector<BlockHash> max_length_heads() const;
  /// Length of the currently best chain.
  [[nodiscard]] std::size_t best_length() const noexcept { return best_length_; }

  /// Genesis-to-head block sequence (genesis included). O(chain).
  [[nodiscard]] std::vector<BlockHash> chain(BlockHash head) const;

  /// Hash of the deepest common ancestor of two chains. O(log chain).
  [[nodiscard]] BlockHash common_ancestor(BlockHash a, BlockHash b) const;

  /// The block of the chain `head` with the largest slot <= s, if different
  /// from genesis; used for settlement checks ("what does this chain say about
  /// slot s?"). O(log chain).
  [[nodiscard]] std::optional<BlockHash> block_at_slot(BlockHash head, std::uint64_t slot) const;

  /// The ancestor of `head` at chain length `len` (genesis for len = 0);
  /// requires len <= length(head). O(log chain).
  [[nodiscard]] BlockHash ancestor_at_length(BlockHash head, std::size_t len) const;

  /// This view's block hashes in arrival order (genesis first): a copy,
  /// read through the pool column. O(n).
  [[nodiscard]] std::vector<BlockHash> arrival_order() const;
  /// This view's pool ids in arrival order (genesis, id 0, first).
  [[nodiscard]] std::span<const std::uint32_t> arrival_ids() const noexcept {
    return arrival_.empty() ? std::span<const std::uint32_t>(kGenesisIds) : arrival_;
  }

  // --- pool level: every block of the pool, whichever view admitted it ----

  /// The id pool_id returns for an unpooled hash.
  static constexpr std::uint32_t kNoId = 0xffffffffu;
  /// The pool id of `hash`'s pooled copy, or kNoId.
  [[nodiscard]] std::uint32_t pool_id(BlockHash hash) const noexcept;
  /// The pool's Block column, indexed by pool id: pooling order, genesis at
  /// id 0, parents before children. Pooling a block invalidates the span.
  [[nodiscard]] std::span<const Block> pool_blocks() const noexcept;
  /// The pool's parent-id column, indexed like pool_blocks: the pool id of
  /// each block's parent (genesis: 0). Pooling a block invalidates the span.
  [[nodiscard]] std::span<const std::uint32_t> pool_parents() const noexcept;
  /// Pool `block` without admitting it to any view, and return its id: the
  /// pooled copy's if the pool holds an equal block, a new id if its header
  /// is intact, its parent pooled and its slot above the parent's, else
  /// kNoId (a different copy under a pooled hash, or a block that can never
  /// be pooled yet). Throws like try_add on overflow.
  std::uint32_t enter_pool(const Block& block);

  /// Cumulative counters of the calling thread's pool arena (diagnostics and
  /// tests; recycling must be semantically invisible). One pool is acquired
  /// per standalone tree; view() acquires none.
  struct ArenaStats {
    std::size_t acquired = 0;  ///< pools handed to trees
    std::size_t recycled = 0;  ///< of those, served from the free list
    std::size_t released = 0;  ///< pools returned when their last view died
  };
  [[nodiscard]] static ArenaStats arena_stats() noexcept;
  /// Drop the calling thread's free list (frees the cached capacity).
  static void arena_trim() noexcept;

  /// The shared block store. Public only as a type (for the arena that
  /// recycles pools); it is defined, and used, in blocktree.cpp alone.
  struct Pool;

 private:
  explicit BlockTree(std::shared_ptr<Pool> pool);

  /// A genesis-only view's arrival order.
  static constexpr std::uint32_t kGenesisIds[1] = {0};

  [[nodiscard]] bool member(std::uint32_t id) const noexcept {
    const std::size_t w = id >> 6;
    // Past the words (none yet: genesis only), genesis is the one member.
    return w < member_.size() ? ((member_[w] >> (id & 63)) & 1) != 0 : id == 0;
  }
  /// Pool id of a member of this view; throws on any other hash.
  [[nodiscard]] std::uint32_t index_of(BlockHash hash) const;
  /// Make pooled id `id` (whose parent is a member) a member of this view.
  void admit(std::uint32_t id);

  // The three vectors stay empty while the view holds genesis alone; admit()
  // materializes them, with genesis in place, at the first admission.
  std::shared_ptr<Pool> pool_;
  std::vector<std::uint64_t> member_;    ///< membership bit per pool id
  std::vector<std::uint32_t> arrival_;   ///< member pool ids, arrival order
  std::vector<std::uint32_t> head_idx_;  ///< max-length member ids, arrival order
  std::size_t best_length_ = 0;
  BlockHash min_hash_head_ = 0;  ///< min hash among the heads
};

/// The parent-unknown buffer shared by honest nodes and the simulation's
/// public view: deduplicated (re-delivery cannot grow it), retried against a
/// tree until no progress, and permanently invalid blocks are dropped instead
/// of retried forever.
class OrphanBuffer {
 public:
  /// Buffers the block unless an identical hash is already waiting.
  void buffer(const Block& block);
  /// Retries every buffered block against `tree` until no further progress;
  /// the pool ids of newly admitted blocks are appended to `*accepted` (when
  /// non-null) in acceptance order. Duplicate and Invalid outcomes drop the
  /// block.
  void flush(BlockTree& tree, std::vector<std::uint32_t>* accepted);
  [[nodiscard]] std::size_t size() const noexcept { return orphans_.size(); }
  /// Is a block of this hash waiting for its ancestry?
  [[nodiscard]] bool contains(BlockHash hash) const { return hashes_.count(hash) != 0; }
  /// Drop every buffered orphan (crash: the buffer is volatile state).
  void clear() noexcept {
    orphans_.clear();
    hashes_.clear();
  }

 private:
  std::vector<Block> orphans_;
  std::unordered_set<BlockHash> hashes_;  ///< dedupe of orphans_
};

}  // namespace mh
