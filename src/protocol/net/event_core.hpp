// The discrete-event heart of the transport: per-recipient delivery lanes of
// timestamped block ids.
//
// Every scheduled send is an 8-byte {due, id} entry in its recipient's lane;
// the id names a block by its pool id, or a tampered copy by the owning
// Network's alias id (see network.hpp). A lane is kept
// sorted by (due, seq), where seq is the order of scheduling: a send whose due
// is not below the lane's last due appends, any other inserts after every
// entry with an equal due. So the pop order (due ascending, then scheduling
// order) is a total order fixed at scheduling time, without storing seq. For
// the degenerate lockstep configuration this reproduces the slot-bucket
// transport's contract exactly: within one recipient, equal-due deliveries pop
// in scheduling order, and buckets pop due-ascending — which is why the golden
// transport digests survive bit-identically. Under heterogeneous latency laws,
// deliveries may pop out of insertion order (a late send with a short draw
// overtakes an early send with a long one); the (due, seq) key is the contract
// callers rely on.
//
// Popped entries stay in the lane below a head index until they make up half
// of it, so a collect is a forward scan and a compaction is amortized O(1).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "protocol/block.hpp"
#include "support/check.hpp"

namespace mh::net {

/// The name a block travels under on the lanes.
using BlockId = std::uint32_t;

class EventCore {
 public:
  explicit EventCore(std::size_t parties) : lanes_(parties) {}

  /// Schedule delivery of block `id` to `recipient` at the onset of `due`.
  void schedule(PartyId recipient, std::size_t due, BlockId id) {
    MH_REQUIRE_MSG(due <= std::numeric_limits<std::uint32_t>::max(),
                   "delivery due slot " + std::to_string(due) + " exceeds 32 bits");
    const Entry entry{static_cast<std::uint32_t>(due), id};
    std::vector<Entry>& entries = lanes_[recipient].entries;
    if (entries.empty() || entries.back().due <= entry.due) {
      entries.push_back(entry);
      return;
    }
    const auto live = entries.begin() + static_cast<std::ptrdiff_t>(lanes_[recipient].head);
    const auto at = std::upper_bound(live, entries.end(), entry.due,
                                     [](std::uint32_t d, const Entry& e) { return d < e.due; });
    entries.insert(at, entry);
  }

  /// Pop every delivery for `recipient` with due <= slot, in (due asc, seq
  /// asc) order, passing each id to `visit` (which must not schedule toward
  /// `recipient`).
  template <typename Visit>
  void collect_due(PartyId recipient, std::size_t slot, Visit&& visit) {
    Lane& lane = lanes_[recipient];
    std::vector<Entry>& entries = lane.entries;
    std::size_t i = lane.head;
    if (i == entries.size() || entries[i].due > slot) return;  // nothing due
    for (; i < entries.size() && entries[i].due <= slot; ++i) visit(entries[i].id);
    if (i == entries.size()) {
      entries.clear();
      i = 0;
    } else if (2 * i >= entries.size()) {
      entries.erase(entries.begin(), entries.begin() + static_cast<std::ptrdiff_t>(i));
      i = 0;
    }
    lane.head = i;
  }

  /// Crash semantics: every queued delivery toward `recipient` is volatile
  /// endpoint state and is lost.
  void wipe(PartyId recipient) { lanes_[recipient] = Lane{}; }

  [[nodiscard]] std::size_t pending(PartyId recipient) const {
    return lanes_[recipient].entries.size() - lanes_[recipient].head;
  }

 private:
  struct Entry {
    std::uint32_t due;  ///< delivery at the onset of this slot
    BlockId id;
  };
  struct Lane {
    std::vector<Entry> entries;  ///< sorted by (due, seq) from head on
    std::size_t head = 0;        ///< first undelivered entry
  };

  std::vector<Lane> lanes_;
};

}  // namespace mh::net
