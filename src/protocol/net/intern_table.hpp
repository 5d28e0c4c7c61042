// The transport's block store: every distinct Block handed to a Network is
// interned once and named by a 32-bit id from then on, so delivery lanes and
// coverage bitsets carry 4-byte ids instead of 40-byte Blocks.
//
// Identity is the whole Block, not its hash: a tampered copy under a known
// hash gets its own id and is delivered exactly as it was sent. For coverage
// it maps to the hash's canonical id (the first block interned under that
// hash), so every dedupe keyed on ids behaves as if it were keyed on hashes.
//
// Blocks live in fixed-size chunks that never move, and the hash index is a
// flat open-addressing table at most half full. Chunks keep growth from
// copying or re-touching the column; each chunk is small enough to come from
// the allocator's heap rather than a fresh mapping.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "protocol/block.hpp"
#include "support/check.hpp"

namespace mh::net {

/// Index of a block in an InternTable.
using BlockId = std::uint32_t;

class InternTable {
 public:
  static constexpr BlockId kNoId = 0xffffffffu;

  /// The id of `block`, adding it on first sight.
  BlockId intern(const Block& block) {
    if (2 * (indexed_ + 1) > index_.size()) grow_index();
    const std::size_t at = probe(block.hash);
    const BlockId known = index_[at].id;
    if (known != kNoId) {
      if (this->block(known) == block) return known;
      for (const Alias& alias : aliases_)
        if (alias.canonical == known && this->block(alias.id) == block) return alias.id;
    }
    MH_REQUIRE_MSG(size_ < kNoId, "intern table full");
    const auto id = static_cast<BlockId>(size_++);
    if ((id & kChunkMask) == 0) chunks_.push_back(std::make_unique<Chunk>());
    chunks_.back()->blocks[id & kChunkMask] = block;
    if (known != kNoId) {
      aliases_.push_back(Alias{id, known});
    } else {
      index_[at] = Slot{tag(block.hash), id};
      ++indexed_;
    }
    return id;
  }

  /// The canonical id interned under `hash`, or kNoId if none was.
  [[nodiscard]] BlockId find(BlockHash hash) const noexcept {
    return index_.empty() ? kNoId : index_[probe(hash)].id;
  }

  [[nodiscard]] const Block& block(BlockId id) const noexcept {
    return chunks_[id >> kChunkBits]->blocks[id & kChunkMask];
  }
  /// The id coverage keys `id` under: itself, or for a tampered copy the
  /// first id interned under the same hash.
  [[nodiscard]] BlockId canonical(BlockId id) const noexcept {
    if (aliases_.empty() || id < aliases_.front().id) return id;
    const auto it = std::lower_bound(aliases_.begin(), aliases_.end(), id,
                                     [](const Alias& a, BlockId i) { return a.id < i; });
    return it != aliases_.end() && it->id == id ? it->canonical : id;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  static constexpr unsigned kChunkBits = 10;
  static constexpr BlockId kChunkMask = (BlockId{1} << kChunkBits) - 1;
  struct Chunk {
    Block blocks[std::size_t{1} << kChunkBits];
  };
  struct Alias {
    BlockId id;
    BlockId canonical;
  };
  struct Slot {
    std::uint32_t tag = 0;  ///< the hash's high half: most misses skip the blocks
    BlockId id = kNoId;     ///< kNoId = empty
  };

  static std::uint32_t tag(BlockHash hash) noexcept {
    return static_cast<std::uint32_t>(hash >> 32);
  }

  /// The index_ position holding `hash`, or the empty one it would take.
  [[nodiscard]] std::size_t probe(BlockHash hash) const noexcept {
    const std::uint32_t want = tag(hash);
    const std::size_t mask = index_.size() - 1;
    for (auto i = static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);;
         i = (i + 1) & mask) {
      const Slot& slot = index_[i];
      if (slot.id == kNoId || (slot.tag == want && block(slot.id).hash == hash)) return i;
    }
  }

  /// Double the index (or create it) and re-insert every entry.
  void grow_index() {
    std::vector<Slot> old(index_.empty() ? 64 : 2 * index_.size());
    old.swap(index_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(index_.size()));
    for (const Slot& slot : old)
      if (slot.id != kNoId) index_[probe(block(slot.id).hash)] = slot;
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
  std::vector<Alias> aliases_;  ///< tampered copies (rare), by ascending id
  std::vector<Slot> index_;     ///< canonical ids by hash; power-of-two sized
  unsigned shift_ = 64;
  std::size_t indexed_ = 0;  ///< entries in index_
};

}  // namespace mh::net
