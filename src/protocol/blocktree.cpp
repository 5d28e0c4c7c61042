#include "protocol/blocktree.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "support/check.hpp"

namespace mh {

/// The shared block store behind every view (see blocktree.hpp). Columns are
/// indexed by pool id in pooling order; ids 0.. are parents-first.
struct BlockTree::Pool {
  std::vector<Block> blocks;           ///< pooling order; id 0 = genesis
  std::vector<std::uint32_t> lengths;  ///< chain length column
  std::vector<std::uint64_t> slots;    ///< slot-label column (hot in queries)
  std::vector<std::uint32_t> parents;  ///< parent-id column (genesis: 0)
  /// CSR binary-lifting table: id i's levels are lift[lift_off[i] + j] for
  /// j in [0, bit_width(lengths[i])), built lazily for the first
  /// `lift_built` ids only.
  std::vector<std::uint32_t> lift_off;
  std::vector<std::uint32_t> lift;
  std::uint32_t lift_built = 0;
  /// Open-addressing hash -> id map (linear probing, power-of-two capacity).
  /// vals[i] == kEmptySlot marks a free slot; keys are the block hashes
  /// (already FNV-mixed, re-mixed once more for the mask).
  std::vector<BlockHash> index_keys;
  std::vector<std::uint32_t> index_vals;
  std::size_t index_size = 0;
  std::size_t max_blocks = kMaxBlocks;

  /// Empty every column but keep capacities, then pool genesis as id 0.
  void reset(std::size_t cap);
  [[nodiscard]] std::uint32_t find(BlockHash hash) const noexcept;
  /// Pool a header-checked block whose parent is pooled at `parent`.
  std::uint32_t insert(const Block& block, std::uint32_t parent);
  void index_insert(BlockHash hash, std::uint32_t id);
  void index_grow();
  /// Extend the CSR lift table to cover every id (no-op when current).
  void ensure_lift();
  /// Number of lift levels id `id` owns: bit_width(length).
  [[nodiscard]] std::uint32_t levels(std::uint32_t id) const noexcept {
    return static_cast<std::uint32_t>(std::bit_width(lengths[id]));
  }
  [[nodiscard]] std::uint32_t lift_up(std::uint32_t id, std::size_t steps);
};

namespace {

constexpr std::uint32_t kEmptySlot = 0xffffffffu;
static_assert(kEmptySlot == BlockTree::kNoId, "pool_id returns the index's empty sentinel");

/// Fresh index tables start tiny; they grow geometrically and the grown
/// capacity is what the arena recycles.
constexpr std::size_t kIndexInitialCap = 16;

/// Block hashes are already FNV digests; one multiplicative round decorrelates
/// the low bits used by the power-of-two mask.
constexpr std::uint64_t index_mix(BlockHash key) noexcept {
  key *= 0x9e3779b97f4a7c15ULL;
  return key ^ (key >> 32);
}

/// Per-thread free list of pools. A pool whose last view died is parked here;
/// the next pool created on the same thread reuses it, so back-to-back runs
/// in a sweep cell allocate nothing per block once the first run set the
/// high-water capacity.
struct PoolArena {
  std::vector<std::unique_ptr<BlockTree::Pool>> free_list;
  BlockTree::ArenaStats stats;
};

PoolArena& arena() noexcept {
  thread_local PoolArena instance;
  return instance;
}

/// Returns a pool to the arena once the last view sharing it is gone.
struct ReleaseToArena {
  void operator()(BlockTree::Pool* pool) const {
    PoolArena& a = arena();
    ++a.stats.released;
    a.free_list.emplace_back(pool);
  }
};

std::shared_ptr<BlockTree::Pool> acquire_pool(std::size_t max_blocks) {
  MH_REQUIRE_MSG(max_blocks >= 1, "block tree must have room for genesis");
  PoolArena& a = arena();
  ++a.stats.acquired;
  std::unique_ptr<BlockTree::Pool> pool;
  if (a.free_list.empty()) {
    pool = std::make_unique<BlockTree::Pool>();
  } else {
    pool = std::move(a.free_list.back());
    a.free_list.pop_back();
    ++a.stats.recycled;
  }
  pool->reset(std::min(max_blocks, BlockTree::kMaxBlocks));
  return {pool.release(), ReleaseToArena{}};
}

}  // namespace

void BlockTree::Pool::reset(std::size_t cap) {
  blocks.clear();
  lengths.clear();
  slots.clear();
  parents.clear();
  lift_off.clear();
  lift.clear();
  lift_built = 0;
  if (index_vals.empty()) {
    index_keys.assign(kIndexInitialCap, 0);
    index_vals.assign(kIndexInitialCap, kEmptySlot);
  } else {
    std::fill(index_vals.begin(), index_vals.end(), kEmptySlot);
  }
  index_size = 0;
  max_blocks = cap;

  const Block& genesis = genesis_block();
  blocks.push_back(genesis);
  lengths.push_back(0);
  slots.push_back(genesis.slot);
  parents.push_back(0);  // genesis is its own parent slot (never walked)
  index_insert(genesis.hash, 0);
}

std::uint32_t BlockTree::Pool::find(BlockHash hash) const noexcept {
  const std::size_t mask = index_vals.size() - 1;
  for (std::size_t probe = index_mix(hash) & mask;; probe = (probe + 1) & mask) {
    const std::uint32_t val = index_vals[probe];
    if (val == kEmptySlot || index_keys[probe] == hash) return val;
  }
}

std::uint32_t BlockTree::Pool::insert(const Block& block, std::uint32_t parent) {
  // Id and length both live in 32 bits (kEmptySlot is the index sentinel);
  // the 10^6-party / 10^7-slot tiers make these limits reachable, so
  // overflow must throw, never truncate.
  MH_REQUIRE_MSG(blocks.size() < max_blocks, "block tree capacity exhausted");
  MH_REQUIRE_MSG(lengths[parent] < 0xffffffffu, "chain length overflows 32 bits");
  const auto id = static_cast<std::uint32_t>(blocks.size());
  blocks.push_back(block);
  lengths.push_back(lengths[parent] + 1);
  slots.push_back(block.slot);
  parents.push_back(parent);
  index_insert(block.hash, id);
  return id;
}

void BlockTree::Pool::index_insert(BlockHash hash, std::uint32_t id) {
  if ((index_size + 1) * 8 >= index_vals.size() * 7) index_grow();
  const std::size_t mask = index_vals.size() - 1;
  std::size_t probe = index_mix(hash) & mask;
  while (index_vals[probe] != kEmptySlot) probe = (probe + 1) & mask;
  index_keys[probe] = hash;
  index_vals[probe] = id;
  ++index_size;
}

void BlockTree::Pool::index_grow() {
  const std::size_t cap = index_vals.size() * 2;
  std::vector<BlockHash> keys(cap, 0);
  std::vector<std::uint32_t> vals(cap, kEmptySlot);
  const std::size_t mask = cap - 1;
  for (std::size_t i = 0; i < index_vals.size(); ++i) {
    const std::uint32_t val = index_vals[i];
    if (val == kEmptySlot) continue;
    const BlockHash key = index_keys[i];
    std::size_t probe = index_mix(key) & mask;
    while (vals[probe] != kEmptySlot) probe = (probe + 1) & mask;
    keys[probe] = key;
    vals[probe] = val;
  }
  index_keys = std::move(keys);
  index_vals = std::move(vals);
}

void BlockTree::Pool::ensure_lift() {
  const auto size = static_cast<std::uint32_t>(blocks.size());
  if (lift_built == size) return;
  // Binary lifting into the flat CSR table: id i's levels occupy
  // lift[off + j] for 2^j <= length, each level built from the parent's
  // pointers (the 2^(j-1)-th ancestor's 2^(j-1)-th ancestor, already
  // materialized: ancestors always precede descendants in the pool).
  for (std::uint32_t i = lift_built; i < size; ++i) {
    const std::size_t off = lift.size();
    const std::uint32_t length = lengths[i];
    MH_REQUIRE_MSG(off + std::bit_width(length) <= 0xffffffffu,
                   "lift pool offset overflows 32 bits");
    lift_off.push_back(static_cast<std::uint32_t>(off));
    if (length == 0) continue;  // genesis owns zero levels
    lift.push_back(parents[i]);
    for (std::size_t j = 1; (1u << j) <= length; ++j) {
      const std::uint32_t half = lift[off + j - 1];
      lift.push_back(lift[lift_off[half] + j - 1]);
    }
  }
  lift_built = size;
}

std::uint32_t BlockTree::Pool::lift_up(std::uint32_t id, std::size_t steps) {
  MH_OBS_HIST("protocol.tree.lift_steps", steps);
  ensure_lift();
  for (std::size_t j = 0; steps != 0; ++j, steps >>= 1)
    if (steps & 1u) id = lift[lift_off[id] + j];
  return id;
}

BlockTree::BlockTree() : BlockTree(kMaxBlocks) {}

BlockTree::BlockTree(std::size_t max_blocks) : BlockTree(acquire_pool(max_blocks)) {}

BlockTree::BlockTree(std::shared_ptr<Pool> pool)
    : pool_(std::move(pool)), min_hash_head_(genesis_block().hash) {}

BlockTree BlockTree::view() const { return BlockTree(pool_); }

BlockTree::ArenaStats BlockTree::arena_stats() noexcept { return arena().stats; }

void BlockTree::arena_trim() noexcept {
  arena().free_list.clear();
  arena().free_list.shrink_to_fit();
}

std::uint32_t BlockTree::index_of(BlockHash hash) const {
  const std::uint32_t id = pool_->find(hash);
  MH_REQUIRE_MSG(id != kEmptySlot && member(id), "unknown block");
  return id;
}

BlockTree::AddResult BlockTree::try_add(const Block& block) {
  Pool& pool = *pool_;
  const std::uint32_t id = pool.find(block.hash);
  if (id != kEmptySlot) {
    // A member's copy is a Duplicate, tampered or not. Otherwise the pooled
    // copy passed the header check when it entered the pool, so equality
    // with it is integrity.
    if (!member(id) && !(pool.blocks[id] == block)) return AddResult::Invalid;
    return try_add(id);
  }
  if (!verify_block_integrity(block)) return AddResult::Invalid;
  const std::uint32_t parent = pool.find(block.parent);
  if (!member(parent)) return AddResult::Orphan;  // also: parent not pooled
  if (block.slot <= pool.slots[parent]) return AddResult::Invalid;
  admit(pool.insert(block, parent));
  return AddResult::Added;
}

BlockTree::AddResult BlockTree::try_add(std::uint32_t id) {
  MH_REQUIRE_MSG(id < pool_->blocks.size(), "not a pool id: " + std::to_string(id));
  if (member(id)) return AddResult::Duplicate;
  if (!member(pool_->parents[id])) return AddResult::Orphan;
  admit(id);
  return AddResult::Added;
}

void BlockTree::admit(std::uint32_t id) {
  if (arrival_.empty()) {  // the first admission: genesis takes its place
    member_.push_back(1);
    arrival_.push_back(0);
    head_idx_.push_back(0);
  }
  const std::size_t w = id >> 6;
  if (w >= member_.size()) member_.resize((pool_->blocks.size() + 63) >> 6, 0);
  member_[w] |= std::uint64_t{1} << (id & 63);
  // Incremental head-set maintenance: a strictly longer chain resets the tie
  // set; an equal-length one joins it (arrival order is insertion order).
  const std::uint32_t length = pool_->lengths[id];
  const BlockHash hash = pool_->blocks[id].hash;
  if (length > best_length_) {
    best_length_ = length;
    head_idx_.clear();
    head_idx_.push_back(id);
    min_hash_head_ = hash;
  } else if (length == best_length_) {
    head_idx_.push_back(id);
    min_hash_head_ = std::min(min_hash_head_, hash);
  }
  arrival_.push_back(id);
}

bool BlockTree::contains(BlockHash hash) const { return member(pool_->find(hash)); }

std::vector<BlockHash> BlockTree::arrival_order() const {
  const std::span<const std::uint32_t> ids = arrival_ids();
  std::vector<BlockHash> out;
  out.reserve(ids.size());
  for (const std::uint32_t id : ids) out.push_back(pool_->blocks[id].hash);
  return out;
}

std::uint32_t BlockTree::pool_id(BlockHash hash) const noexcept { return pool_->find(hash); }

std::span<const Block> BlockTree::pool_blocks() const noexcept { return pool_->blocks; }

std::span<const std::uint32_t> BlockTree::pool_parents() const noexcept {
  return pool_->parents;
}

std::uint32_t BlockTree::enter_pool(const Block& block) {
  Pool& pool = *pool_;
  const std::uint32_t id = pool.find(block.hash);
  if (id != kEmptySlot) return pool.blocks[id] == block ? id : kNoId;
  const std::uint32_t parent = pool.find(block.parent);
  if (parent == kEmptySlot || block.slot <= pool.slots[parent] ||
      !verify_block_integrity(block))
    return kNoId;
  return pool.insert(block, parent);
}

const Block& BlockTree::block(BlockHash hash) const { return pool_->blocks[index_of(hash)]; }

std::size_t BlockTree::length(BlockHash hash) const { return pool_->lengths[index_of(hash)]; }

BlockHash BlockTree::best_head(TieBreak rule) const {
  // AdversarialOrder intentionally means FIRST arrival among the tied
  // maximum-length heads: the adversary, ordering deliveries per recipient,
  // decides which tied head arrives first.
  if (rule == TieBreak::ConsistentHash) return min_hash_head_;
  return pool_->blocks[head_idx_.empty() ? 0 : head_idx_.front()].hash;
}

std::vector<BlockHash> BlockTree::max_length_heads() const {
  if (head_idx_.empty()) return {genesis_block().hash};
  std::vector<BlockHash> out;
  out.reserve(head_idx_.size());
  for (const std::uint32_t id : head_idx_) out.push_back(pool_->blocks[id].hash);
  return out;
}

std::vector<BlockHash> BlockTree::chain(BlockHash head) const {
  const Pool& pool = *pool_;
  std::uint32_t id = index_of(head);
  std::vector<BlockHash> out(static_cast<std::size_t>(pool.lengths[id]) + 1);
  for (std::size_t pos = out.size(); pos-- > 0;) {
    out[pos] = pool.blocks[id].hash;
    if (pos != 0) id = pool.parents[id];
  }
  return out;
}

BlockHash BlockTree::common_ancestor(BlockHash a, BlockHash b) const {
  MH_OBS_COUNT("protocol.tree.ancestor_queries", 1);
  Pool& pool = *pool_;
  pool.ensure_lift();
  std::uint32_t ia = index_of(a);
  std::uint32_t ib = index_of(b);
  if (pool.lengths[ia] > pool.lengths[ib]) std::swap(ia, ib);
  ib = pool.lift_up(ib, pool.lengths[ib] - pool.lengths[ia]);
  if (ia == ib) return pool.blocks[ia].hash;
  for (std::size_t j = pool.levels(ia); j-- > 0;) {
    if (j >= pool.levels(ia)) continue;  // shrunk below a prior jump level
    const std::uint32_t up_a = pool.lift[pool.lift_off[ia] + j];
    const std::uint32_t up_b = pool.lift[pool.lift_off[ib] + j];
    if (up_a != up_b) {
      ia = up_a;
      ib = up_b;
    }
  }
  return pool.blocks[pool.parents[ia]].hash;
}

std::optional<BlockHash> BlockTree::block_at_slot(BlockHash head, std::uint64_t slot) const {
  MH_OBS_COUNT("protocol.tree.ancestor_queries", 1);
  Pool& pool = *pool_;
  pool.ensure_lift();
  std::uint32_t id = index_of(head);
  if (id == 0) return std::nullopt;
  if (pool.slots[id] <= slot) return pool.blocks[id].hash;
  // Slots are strictly increasing along a chain: lift to the lowest ancestor
  // still labelled past `slot`; its parent is the deepest block at <= slot.
  for (std::size_t j = pool.levels(id); j-- > 0;) {
    if (j >= pool.levels(id)) continue;
    const std::uint32_t anc = pool.lift[pool.lift_off[id] + j];
    if (pool.slots[anc] > slot) id = anc;
  }
  const std::uint32_t deepest = pool.parents[id];
  if (deepest == 0) return std::nullopt;
  return pool.blocks[deepest].hash;
}

BlockHash BlockTree::ancestor_at_length(BlockHash head, std::size_t len) const {
  MH_OBS_COUNT("protocol.tree.ancestor_queries", 1);
  const std::uint32_t id = index_of(head);
  MH_REQUIRE_MSG(len <= pool_->lengths[id], "ancestor below genesis");
  return pool_->blocks[pool_->lift_up(id, pool_->lengths[id] - len)].hash;
}

void OrphanBuffer::buffer(const Block& block) {
  if (hashes_.insert(block.hash).second) orphans_.push_back(block);
}

void OrphanBuffer::flush(BlockTree& tree, std::vector<std::uint32_t>* accepted) {
  bool progress = true;
  while (progress && !orphans_.empty()) {
    progress = false;
    // Compacted in place: the blocks still orphaned keep their retry order.
    std::size_t kept = 0;
    for (const Block& b : orphans_) {
      switch (tree.try_add(b)) {
        case BlockTree::AddResult::Added:
          // The view admitted b last, so its id closes the arrival order.
          if (accepted) accepted->push_back(tree.arrival_ids().back());
          hashes_.erase(b.hash);
          progress = true;
          MH_OBS_COUNT("protocol.node.orphans_flushed", 1);
          break;
        case BlockTree::AddResult::Orphan:
          orphans_[kept++] = b;
          break;
        case BlockTree::AddResult::Duplicate:
        case BlockTree::AddResult::Invalid:
          // A buffered block whose parent arrived but whose labels are bad is
          // permanently invalid — drop it instead of retrying forever.
          hashes_.erase(b.hash);
          MH_OBS_COUNT("protocol.node.orphans_dropped", 1);
          break;
      }
    }
    orphans_.resize(kept);
  }
}

}  // namespace mh
