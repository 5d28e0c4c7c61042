// The protocol transport: a façade over the discrete-event network core in
// src/protocol/net/.
//
// The Network stores no block. It names each block it is handed by the pool
// id of its hash's copy in the execution's BlockTree pool (bind_views; an
// unbound Network pools what it is handed in a private tree made on first
// use), and moves only 32-bit ids: every scheduled send is a net::EventCore
// lane entry keyed (due slot, scheduling order), and collect_into hands the
// popped ids on, which the Simulation admits to the views by id (the Block
// overload reads them back from the pool's Block column). A block the pool
// lacks is pooled on the spot, so it must arrive after its parent. A copy
// that differs from the pooled block under the same hash (a tampered copy)
// gets an alias id:
// aliases count down from 0xfffffffe while pool ids count up from 0, and a
// pool id that would reach them throws, so the two never meet. An alias is
// delivered as it was sent, but covered as its hash's pool id, so every dedupe
// below stays keyed by hash. A block that is neither pooled, nor poolable, nor
// a copy of a pooled hash fails MH_REQUIRE. What varies between
// configurations is WHO a send reaches and WHEN it lands:
//
//   * Degenerate NetConfig (full mesh, zero extra latency, unlimited
//     bandwidth — the default): the slot-synchronous network with a rushing
//     adversary (axiom A0) and its Delta-delay relaxation (A4_Delta). Honest
//     broadcasts in slot t reach every party by the onset of t + 1 + Delta;
//     within that window the adversary picks per-recipient delivery slots,
//     may inject its own blocks anywhere, and orders each slot's deliveries
//     (the tie-breaking lever of the settlement game). This path is
//     contractually BIT-IDENTICAL to the pre-event-core slot-bucket
//     transport: the (due, seq) pop order reproduces "due ascending, then
//     insertion order within a due" exactly, and the golden transport digest
//     pins enforce it.
//
//   * Heterogeneous NetConfig: sends follow the net::Topology (sender ships
//     to its out-neighbors only), every link send draws a capped
//     net::LatencyLaw extra delay from a counter-based stream keyed
//     (slot, sender, recipient), egress beyond the per-party bandwidth cap
//     spills into later slots, and recipients RELAY every delivery onward to
//     the out-neighbors not yet scheduled to receive it (multi-hop gossip;
//     per-recipient coverage bitsets deduplicate). The synchrony bound is no
//     longer configured — it is RECOVERED as the observed maximum adoption
//     delay, which is the Delta the oracle grades the run at (see
//     Simulation::net_report).
//
// Chain-sync: honest participants broadcast *chains* (the model's messages
// are blockchains). The degenerate path ships, per recipient, only the
// ancestors not already scheduled by the block's due slot, tracked by
// delivered watermarks keyed by pool id: an all-recipient due column, one
// 4-byte entry per pool id, and per-recipient maps whose entries expire
// delta + 1 slots past their due. A recipient's map is made at its first
// per-recipient record, so a run of uniform broadcasts builds none. Ancestry
// walks follow the pool's parent-id column. The heterogeneous path tracks a
// binary per-recipient coverage bitset instead — latency draws can reorder
// arrivals, so a due-bounded watermark would overclaim; out-of-order
// arrivals park in the node's orphan buffer until ancestry lands.
//
// Fault layer: with a faults::FaultInjector attached, every honest link send
// — first-hop and relay alike — consults it with the same (slot, sender,
// recipient) keying. During an active fault window the degenerate path ships
// per-recipient only (drops make a round's coverage non-uniform, so the
// all-recipient bound must not advance), dropped ships record no watermark,
// and a crash wipes the recipient's volatile state — queued deliveries,
// watermarks, coverage — forcing a re-sync (resync_ship) on restart.
// With no injector attached every code path below is byte-identical to the
// un-faulted transport. Adversarial injections and re-sync ships are direct
// channels: they bypass topology, latency, and bandwidth in every mode.
//
// No-op re-delivery elision: a party's state is its block tree, so handing it
// a block it already holds changes nothing (adding a present block to a tree
// is the identity). The adversary re-publishes whole chains, so inject and
// inject_all skip every lane entry whose pop is provably a no-op, and
// publish_chain skips every call made of such entries alone. With the
// recipients' views bound (bind_views; the Simulation binds its nodes), a
// push of block b to recipient r due at v is a no-op when
//   (i)  b's id is a pool id and r's view holds it. A pool id is the pooled
//        copy, the only block under its hash any view can hold; views only
//        grow and a crash keeps the tree, so receive() returns Duplicate at
//        any later pop. An alias is never skipped. Lockstep inject_all asks
//        this of every view (a block one view lacks ships to all);
//   (ii) heterogeneous mode only: r's pop relays nothing, because every
//        out-neighbor of r is covered for b at the pop. No out-neighbor of r
//        may be down at any slot between now (the latest collect slot) and v,
//        both included: coverage shrinks only through crash_recipient, which
//        the fault layer applies only to a party down at that slot. inject_all
//        itself covers every party up at v, so it needs no more; inject also
//        needs every out-neighbor of the victim covered already. The
//        Simulation collects every up party at every slot, after its
//        adversary injected at v >= the slot, so the pop is at v.
// Skipping an entry keeps the relative order of the rest of its lane, and
// link verdicts and latency draws are keyed (slot, sender, recipient), so no
// stream shifts. Everything else a push does stays: pooling, coverage, the
// drop count for down recipients, and the lockstep watermark records. "Every
// view holds it" is a per-id prefix of holders that only advances; the
// parties with an out-neighbor down in [min(v, now), max(v, now)] depend only
// on the static plan and that range, so they are computed once per range.
//
// publish_chain walks from the tip toward genesis and stops at the first
// ancestor a whose call, and every deeper ancestor's, is provably a no-op;
// the walked suffix is then injected ancestors-first, the full loop's order.
// A tree admits only intact headers, so the block a skipped call would inject
// is the pooled copy of its hash, named by its pool id. Ids are marked in a
// pass after the calls; the stop needs a's mark:
//   * gossip: a is chain-settled — held by every view, covered_by_ ==
//     parties, and its parent chain-settled — and no party is down in
//     [min(v, now), max(v, now)]. Every view and coverage then holds a and
//     each ancestor, nobody's out-neighbor is down and no drop can be
//     counted, so each call skips every push and covers nothing new.
//     Coverage shrinks only in crash_recipient, which bumps the epoch that
//     stamps the marks, so a crash invalidates every mark;
//   * lockstep: a is chain-held — held by every view, its parent chain-held;
//     views only grow, so this never expires — and covered_all(a, v).
//     due_all_ is ancestry-monotone: every record site requires the parent
//     covered_all at the same due, and a crash clears the whole column, so
//     every ancestor is covered_all at v too. To everyone, with no fault
//     window at v, each ancestor's inject_all takes the all-covered path and
//     its record changes nothing. To one victim, the plan must never crash
//     anyone (no injector, or no churn): then is_down never drops, the push
//     is skipped by (i), and the skipped record_recipient is redundant with
//     covered_all, which never clears — while a crash would count the
//     entries it adds in watermarks_invalidated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "engine/seed_sequence.hpp"
#include "protocol/block.hpp"
#include "protocol/blocktree.hpp"
#include "protocol/net/config.hpp"
#include "protocol/net/event_core.hpp"
#include "protocol/net/topology.hpp"
#include "protocol/node.hpp"

namespace mh {

namespace faults {
class FaultInjector;
struct LinkVerdict;
}  // namespace faults

class Network {
 public:
  Network(std::size_t parties, std::size_t delta, net::NetConfig config = {});

  [[nodiscard]] std::size_t parties() const noexcept { return parties_; }
  [[nodiscard]] std::size_t delta() const noexcept { return delta_; }
  [[nodiscard]] const net::NetConfig& net_config() const noexcept { return config_; }
  [[nodiscard]] const net::Topology& topology() const noexcept { return topology_; }
  /// Is this a non-degenerate (gossip/latency/bandwidth) configuration?
  [[nodiscard]] bool heterogeneous() const noexcept { return hetero_; }

  /// Attach (or detach, with nullptr) the fault layer. The injector is
  /// consulted on every send and outlives the Network (the Simulation owns
  /// neither; the caller guarantees lifetime).
  void attach_faults(faults::FaultInjector* faults) noexcept {
    faults_ = faults;
    near_down_ = {};
  }
  [[nodiscard]] faults::FaultInjector* fault_injector() const noexcept { return faults_; }

  /// Bind the execution's block pool, through a view of `pool` (the
  /// Simulation's tree object moves, its pool does not), and the recipients'
  /// views, one node per party in PartyId order, which turns on no-op
  /// re-delivery elision (see above). `nodes` may be empty: the pool alone,
  /// and every push ships, as in an unbound Network. Bind before the first
  /// block is handed over. The nodes must outlive the Network and never move;
  /// the Simulation binds its node vector, whose buffer survives a move of
  /// the Simulation.
  void bind_views(std::span<const HonestNode> nodes, const BlockTree& pool);

  /// Undelivered lane entries toward `recipient`.
  [[nodiscard]] std::size_t pending(PartyId recipient) const {
    return events_.pending(recipient);
  }

  /// Honest broadcast at slot `sent_slot`; `delay[r]` in [0, delta] is the
  /// adversary's extra hold-back for recipient r (empty = no extra delay).
  /// Ships the block alone (no ancestry). Heterogeneous mode ships to the
  /// issuer's out-neighbors (an adversarial issuer keeps direct channels).
  void broadcast(const Block& block, std::size_t sent_slot,
                 const std::vector<std::size_t>& per_recipient_delay = {});

  /// Chain-synced broadcast of a freshly forged block: ships `block` plus,
  /// per reachable recipient, exactly the ancestors that recipient has not
  /// already been scheduled to receive — ancestors first on every link, so a
  /// single-hop bundle never arrives parentless (multi-hop races can still
  /// reorder; the node's orphan buffer absorbs them). Amortized O(parties)
  /// per call once the chain prefix has been synced.
  void broadcast_chain(const BlockTree& tree, const Block& block, std::size_t sent_slot,
                       const std::vector<std::size_t>& per_recipient_delay = {});

  /// Adversarial targeted injection, visible to `recipient` at `visible_slot`
  /// (which cannot precede the block's own slot: the rushing adversary sees a
  /// block the instant it exists, never before). A direct channel in every
  /// mode — no topology, latency, or bandwidth applies.
  void inject(const Block& block, PartyId recipient, std::size_t visible_slot);

  /// Adversarial injection to everyone at the given slot.
  void inject_all(const Block& block, std::size_t visible_slot);

  /// publish_chain's recipient for an injection to everyone.
  static constexpr PartyId kEveryone = ~PartyId{0};

  /// Adversarial re-publication of the chain of `tip` in `tree`: the lane
  /// entries, drops and records of inject (to `recipient`) or inject_all
  /// (kEveryone) of every non-genesis block from genesis up to `tip`, at
  /// `visible_slot`, in that order. Walks only the suffix above the first
  /// ancestor whose calls are provably no-ops (see above): O(suffix) once
  /// the chain's prefix is settled.
  void publish_chain(const BlockTree& tree, BlockHash tip, std::size_t visible_slot,
                     PartyId recipient = kEveryone);

  /// Crash `recipient`: its undelivered queue, chain-sync watermarks, and
  /// coverage are volatile endpoint state and are lost. The
  /// all-recipient bound covered this recipient's wiped in-flight messages
  /// too, so it is invalidated as well (for everyone — a dropped watermark
  /// only ever costs a re-ship).
  void crash_recipient(PartyId recipient);

  /// Re-sync delivery on heal/restart: schedule `block` for `recipient` at
  /// the onset of `slot` and advance its coverage. Callers ship ancestors
  /// first (or blocks whose ancestry the recipient already holds), keeping
  /// the chain-complete contract.
  void resync_ship(const Block& block, PartyId recipient, std::size_t slot);

  /// Replace `*out` with the ids of the deliveries for `recipient` due at
  /// the onset of `slot`, in (due, seq) event order: pool ids, and an alias
  /// id for each tampered copy (is_alias, block). In heterogeneous mode every
  /// pop — a duplicate too — is relayed to the recipient's out-neighbors not
  /// yet scheduled to receive it (due >= slot + 1, so relay cascades never
  /// loop within a slot).
  void collect_into(PartyId recipient, std::size_t slot, std::vector<net::BlockId>* out);
  /// The same deliveries as Blocks: the ids above read through the pool
  /// column and the alias table.
  void collect_into(PartyId recipient, std::size_t slot, std::vector<Block>* out);

  /// Does `id` name a tampered copy rather than a pooled block?
  [[nodiscard]] bool is_alias(net::BlockId id) const noexcept { return id >= alias_floor(); }
  /// The block an id from collect_into names: the pooled copy, or the
  /// tampered copy an alias stands for.
  [[nodiscard]] const Block& block(net::BlockId id) const {
    return block(id, store_->pool_blocks());
  }

 private:
  using BlockId = net::BlockId;
  static constexpr BlockId kNoId = BlockTree::kNoId;

  /// A due slot as the watermarks store it; kNever marks no entry.
  using Due = std::uint32_t;
  static constexpr Due kNever = 0xffffffffu;

  /// One recipient's watermarks (degenerate mode), made at its first
  /// per-recipient record and dropped by its crash.
  struct RecipientWatermarks {
    /// Chain-complete watermark: sent[id] = d means this recipient has been
    /// scheduled to receive pool id `id` (an alias counts as its hash's pool
    /// id) AND its whole ancestry by due slot <= d. Only populated when
    /// coverage differs from the all-recipient bound, and entries expire
    /// delta + 1 slots past their due (see sent_log): dropping a watermark is
    /// always safe — it only makes a later broadcast_chain re-ship a
    /// duplicate the seed transport shipped anyway.
    std::unordered_map<BlockId, Due> sent;
    /// FIFO of (id, due) insertions backing the expiry sweep in collect;
    /// entries below log_head are expired.
    std::vector<std::pair<BlockId, Due>> sent_log;
    std::size_t log_head = 0;
  };

  /// Binary coverage (heterogeneous mode): the pool ids of every hash ever
  /// scheduled for delivery to one recipient, at whatever due.
  /// Deduplicates gossip relays and bounds chain-sync walks.
  struct Coverage {
    std::vector<std::uint64_t> words;

    [[nodiscard]] bool test(BlockId id) const noexcept {
      const std::size_t w = id >> 6;
      return w < words.size() && ((words[w] >> (id & 63)) & 1) != 0;
    }
    /// Set `id`'s bit; false if it was already set.
    bool set(BlockId id) {
      const std::size_t w = id >> 6;
      if (w >= words.size()) words.resize(w + 1, 0);
      const std::uint64_t bit = std::uint64_t{1} << (id & 63);
      if ((words[w] & bit) != 0) return false;
      words[w] |= bit;
      return true;
    }
  };

  /// A tampered copy, named by alias id kNoId - 1 - (its index in aliases_).
  struct Alias {
    Block block;
    BlockId pooled;  ///< the pool id of its hash
  };

  /// A broadcast's preconditions: the delay vector covers every party (or is
  /// empty) and the block is not sent before its own slot.
  void require_broadcast(const Block& block, std::size_t sent_slot,
                         const std::vector<std::size_t>& delays) const;
  /// The adversary's hold-back for recipient r (0 for an empty vector),
  /// checked against Delta.
  [[nodiscard]] std::size_t checked_delay(const std::vector<std::size_t>& delays, PartyId r,
                                          std::size_t sent_slot) const;
  /// Is pool id `id` (with full ancestry) scheduled for `recipient` by `due`?
  [[nodiscard]] bool covered(PartyId recipient, BlockId id, std::size_t due) const;
  /// Is pool id `id` (with full ancestry) scheduled for EVERY recipient by
  /// `due`? Genesis (id 0) is always covered, so ancestry walks end on it.
  [[nodiscard]] bool covered_all(BlockId id, std::size_t due) const noexcept {
    if (id == 0) return true;
    if (id >= due_all_.size()) return false;
    const Due entry = due_all_[id];
    return entry != kNever && entry <= due;
  }
  /// Record a chain-complete ship of pool id `id` to everyone, keeping the
  /// tightest (smallest) due.
  void record_all(BlockId id, std::size_t due);
  /// Record it for one recipient, logging the insertion for expiry.
  void record_recipient(PartyId recipient, BlockId id, std::size_t due);
  /// Drop per-recipient watermarks whose due lies delta + 1 slots behind.
  void expire_watermarks(PartyId recipient, std::size_t slot);
  /// The block store, made private on first use when unbound.
  BlockTree& store();
  /// The id `block` travels under: its pool id (pooling it if the pool lacks
  /// its hash), or an alias id for a copy that differs from the pooled one.
  BlockId resolve(const Block& block);
  /// resolve, after pooling the ancestry the pool lacks from `tree`,
  /// ancestors first.
  BlockId resolve_chain(const BlockTree& tree, const Block& block);
  /// The lowest alias id handed out (kNoId when none); pool ids stay below.
  [[nodiscard]] BlockId alias_floor() const noexcept {
    return kNoId - static_cast<BlockId>(aliases_.size());
  }
  /// The pool id of `id`'s hash: `id` itself, or an alias's pooled copy.
  [[nodiscard]] BlockId pooled(BlockId id) const noexcept {
    return id < alias_floor() ? id : aliases_[kNoId - 1 - id].pooled;
  }
  /// The block `id` names. `pool` is the store's Block column.
  [[nodiscard]] const Block& block(BlockId id, std::span<const Block> pool) const noexcept {
    return id < alias_floor() ? pool[id] : aliases_[kNoId - 1 - id].block;
  }
  /// A size for the per-pool-id columns that covers every pooled id.
  [[nodiscard]] std::size_t pool_size() const { return store_->pool_blocks().size(); }
  /// Mark `id` scheduled for `recipient`, as its hash (heterogeneous mode).
  void cover(PartyId recipient, BlockId id) {
    const BlockId hash_id = pooled(id);
    if (!coverage_[recipient].set(hash_id)) return;
    if (covered_by_.size() <= hash_id) covered_by_.resize(pool_size(), 0);
    ++covered_by_[hash_id];
  }
  /// May a push of `id` be skipped at all? Views are bound and `id` is a
  /// pool id, not an alias.
  [[nodiscard]] bool elidable(BlockId id) const noexcept {
    return !views_.empty() && id < alias_floor();
  }
  /// Test (i) for one recipient; `id` is a pool id.
  bool view_holds(PartyId recipient, BlockId id);
  /// Test (i) for every recipient, memoized; `id` is a pool id.
  bool all_views_hold(BlockId id);
  /// Parties with an out-neighbor down at some slot of [lo, hi] (gossip
  /// mode), for the latest range asked.
  struct NearDown {
    std::size_t lo = 1, hi = 0;  ///< the range cached (empty: none yet)
    bool any = false;            ///< is anybody down in the range?
    std::vector<std::uint8_t> flag;  ///< per party; sized only when `any`
    [[nodiscard]] bool operator[](PartyId r) const { return any && flag[r] != 0; }
  };
  /// The NearDown of [min(visible, now_), max(visible, now_)]; recomputed
  /// only when that range moves.
  const NearDown& near_down(std::size_t visible_slot);
  /// Test (ii) for inject's victim: a pop of pool id `id` by `victim` at
  /// `visible_slot` relays nothing.
  bool relays_nothing(PartyId victim, BlockId id, std::size_t visible_slot);
  /// May publish_chain stop at `hash`? Its id is marked for this epoch and,
  /// in lockstep mode, covered_all at `visible_slot`.
  [[nodiscard]] bool settled(BlockHash hash, std::size_t visible_slot) const;
  /// Mark `hash` chain-settled (gossip) or chain-held (lockstep) if it now
  /// is; the caller has checked its parent is. Returns whether it was marked.
  bool settle(BlockHash hash);
  /// Shipping counters are aggregated at the broadcast/inject call sites (one
  /// add per round, not per push): push() runs millions of times per
  /// execution and a per-push hook alone costs ~2% wall-clock on the E14
  /// acceptance cell.
  void push(PartyId recipient, BlockId id, std::size_t due) {
    events_.schedule(recipient, due, id);
  }
  /// Is a fault able to touch sends at `slot`? (Forces the per-recipient path.)
  [[nodiscard]] bool fault_window(std::size_t slot) const noexcept;
  /// Resolve one honest link's fault verdict; false = the ship is lost.
  bool faulted_link(PartyId sender, PartyId recipient, std::size_t slot,
                    faults::LinkVerdict* verdict);

  // --- heterogeneous (event-core gossip) path ------------------------------
  /// The slot this send actually departs: at most `bandwidth` blocks leave a
  /// party per slot; excess spills FIFO into later slots. Departure requests
  /// per party arrive at non-decreasing slots (the simulation is a forward
  /// slot loop), so one rolling (slot, used) counter suffices.
  std::size_t egress_depart(PartyId sender, std::size_t slot);
  /// The capped extra delay of (sender -> recipient) at `slot`: one
  /// counter-based draw keyed (slot, sender, recipient) — a property of the
  /// link and slot, pure in the scenario spec.
  [[nodiscard]] std::size_t link_extra(std::size_t slot, PartyId sender,
                                       PartyId recipient) const;
  /// Ship one block on one honest link: bandwidth, then latency, then the
  /// fault verdict's extra delay; marks the recipient's coverage.
  void hetero_send(PartyId sender, PartyId recipient, BlockId id, std::size_t slot,
                   std::size_t adversary_delay, std::size_t fault_extra, bool duplicate);
  void hetero_broadcast_chain(const Block& block, BlockId id, std::size_t sent_slot,
                              const std::vector<std::size_t>& per_recipient_delay);
  /// Gossip forwarding of a delivery (issuer-blind: adversarial blocks relay
  /// too — delivering MORE is always within the model). `faulted` is
  /// fault_window(slot).
  void hetero_relay(PartyId relayer, BlockId id, std::size_t slot, bool faulted);

  std::size_t parties_;
  std::size_t delta_;
  net::NetConfig config_;
  bool hetero_ = false;
  net::Topology topology_;
  engine::SeedSequence link_seeds_;          ///< per-(slot, link) latency streams
  faults::FaultInjector* faults_ = nullptr;  // may be null (the common case)
  /// The block store: a view of the bound pool, or a private tree made on
  /// first use. Only its pool is read and entered; it admits no block.
  std::optional<BlockTree> store_;
  std::vector<Alias> aliases_;               ///< tampered copies (rare), by alias id
  net::EventCore events_;                    ///< the per-recipient delivery lanes
  /// Per party: its watermarks, or null before its first per-recipient
  /// record (a uniform-broadcast run never makes one).
  std::vector<std::unique_ptr<RecipientWatermarks>> watermarks_;
  std::vector<Coverage> coverage_;           ///< per-recipient (hetero only)
  std::vector<std::uint32_t> covered_by_;    ///< per pool id: coverages holding it
  std::span<const HonestNode> views_;        ///< the recipients' trees (empty = unbound)
  /// Per pool id: the leading parties whose views are known to hold it; only
  /// advances (bound views only).
  std::vector<std::uint32_t> held_;
  /// Per pool id: the epoch it was last marked settled in (0 = never).
  std::vector<std::uint32_t> settled_;
  std::uint32_t epoch_ = 1;  ///< bumped by every gossip-mode crash
  NearDown near_down_;
  std::size_t now_ = 0;                      ///< latest collect slot (hetero only)
  struct Egress {
    std::size_t slot = 0;
    std::size_t used = 0;
  };
  std::vector<Egress> egress_;  ///< rolling bandwidth counters (hetero only)
  /// Per pool id: the chain-complete watermark valid for EVERY recipient (a
  /// bound on the max of the per-recipient dues), kNever where none; keeps
  /// the uniform-broadcast fast path O(1). Sized to the pool at a record.
  std::vector<Due> due_all_;
  std::size_t due_all_live_ = 0;  ///< entries of due_all_ other than kNever
  std::vector<BlockId> lift_scratch_;  ///< ancestors pending ship, reused
  /// Hashes pending a call (publish_chain) or pooling (resolve_chain), reused.
  std::vector<BlockHash> hash_scratch_;
  std::vector<BlockId> collect_scratch_;  ///< the Block collect_into's ids, reused
};

}  // namespace mh
