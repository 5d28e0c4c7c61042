// The discrete-event heart of the transport: per-recipient priority queues of
// timestamped deliveries.
//
// Every scheduled send becomes a Delivery{due, seq, block}; seq is one global
// monotone counter, so the pop order (due ascending, then seq ascending) is a
// total order fixed at scheduling time. For the degenerate lockstep
// configuration this reproduces the slot-bucket transport's contract exactly:
// within one recipient, equal-due deliveries pop in scheduling order (global
// seq preserves per-recipient insertion order), and buckets pop due-ascending
// — which is why the golden transport digests survive the refactor
// bit-identically. Under heterogeneous latency laws, deliveries may pop out
// of insertion order (a late send with a short draw overtakes an early send
// with a long one); the (due, seq) key is the contract drivers rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "protocol/block.hpp"

namespace mh::net {

struct Delivery {
  std::size_t due = 0;    ///< delivery at the onset of this slot
  std::uint64_t seq = 0;  ///< global scheduling counter (ties within a due)
  Block block;
};

class EventCore {
 public:
  explicit EventCore(std::size_t parties) : heaps_(parties) {}

  /// Schedule one delivery; the global seq counter stamps it.
  void schedule(PartyId recipient, std::size_t due, const Block& block) {
    heaps_[recipient].push(Delivery{due, seq_++, block});
  }

  /// Append every delivery for `recipient` with due <= slot to `out`, in
  /// (due asc, seq asc) order, removing them from the queue.
  void collect_due(PartyId recipient, std::size_t slot, std::vector<Block>* out) {
    auto& heap = heaps_[recipient];
    while (!heap.empty() && heap.top().due <= slot) {
      out->push_back(heap.top().block);
      heap.pop();
    }
  }

  /// Crash semantics: every queued delivery toward `recipient` is volatile
  /// endpoint state and is lost.
  void wipe(PartyId recipient) { heaps_[recipient] = Heap(); }

  [[nodiscard]] std::size_t pending(PartyId recipient) const {
    return heaps_[recipient].size();
  }

 private:
  struct Later {
    bool operator()(const Delivery& a, const Delivery& b) const noexcept {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };
  using Heap = std::priority_queue<Delivery, std::vector<Delivery>, Later>;

  std::vector<Heap> heaps_;
  std::uint64_t seq_ = 0;
};

}  // namespace mh::net
