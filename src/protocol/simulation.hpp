// The protocol execution driver: slot loop, delivery, forging, adversarial
// hooks, and the consistency measurements the benches report.
//
// Per slot t (matching Section 2's model):
//   1. due messages are delivered to each honest node (adversary-ordered);
//   2. the adversary acts (rushing: it has already seen everything broadcast
//      in earlier slots, may mint on adversarial leaderships and inject);
//   3. every honest leader of slot t forges one block on its best chain;
//      under AdversarialOrder the adversary breaks maximum-length ties
//      (axiom A0); under ConsistentHash the minimal head hash wins (A0');
//   4. honest blocks are broadcast; the adversary picks per-recipient delays
//      in [0, Delta] and observes the new blocks immediately.
//
// Per-slot cost is proportional to the slot's NEW blocks (chain-synced
// transport over per-recipient delivery lanes + incremental BlockTree), not to
// chain history. Blocks move by pool id from the lanes into the views: a
// delivery is two membership tests, with no hash lookup and no Block copy.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "protocol/faults/injector.hpp"
#include "protocol/leader.hpp"
#include "protocol/network.hpp"
#include "protocol/node.hpp"

namespace mh {

class Simulation;

/// Adversarial strategy interface. The default implementations are the
/// "null" adversary: no minting, no delays, ties broken by arrival order.
class Adversary {
 public:
  virtual ~Adversary() = default;
  virtual void begin(Simulation&) {}
  /// Start of slot t, after deliveries, before honest forging.
  virtual void on_slot_begin(std::size_t, Simulation&) {}
  /// Rushing observation of a slot-t honest block; returns per-recipient extra
  /// delays in [0, Delta] (empty = deliver everywhere at t+1).
  virtual std::vector<std::size_t> delivery_delays(const Block&, std::size_t, Simulation&) {
    return {};
  }
  /// Axiom A0 tie-breaking: choose among the node's maximum-length heads
  /// (given in arrival order).
  virtual BlockHash break_tie(PartyId, const std::vector<BlockHash>& candidates, Simulation&) {
    return candidates.front();
  }
};

struct SimulationConfig {
  TieBreak tie_break = TieBreak::AdversarialOrder;
  std::uint64_t seed = 42;
};

/// What one execution realized as its synchrony bound, audited once after
/// the run: the A4_Delta bound the oracle grades it at. `observed_delta` is
/// the max delay until a node could first ADOPT an honest block
/// (chain-complete acceptance — raw arrival undercounts: a partially-leaked
/// block sits in the orphan buffer extending nothing, and the observed-Delta
/// fork projection would then claim a synchrony the execution never had).
/// Slots the recipient spent crashed are discounted from the delay — a down
/// endpoint cannot receive and the restart re-sync delivers promptly — but
/// only those slots: a crash late in the window must not excuse the up slots
/// during which the network simply failed to deliver.
///
/// The end-of-run sweep then visits every honest block some up node other
/// than its issuer still lacks, and reads it by transport:
///   * heterogeneous (gossip): the block is late, not lost — every shape is
///     strongly connected. Adopted at the next opportunity it would realize
///     a delay of at least `last onset - forge slot - down slots`, so that
///     floor inflates `observed_delta` (`pending_inflations` counts the
///     pairs). The projection window stays open, and the oracle never grades
///     a gossip run at a synchrony it has already beaten: 'd' at worst,
///     never 'u'.
///   * lockstep with a fault injector: a block whose Delta window closed
///     within the run, missing at a node that was up throughout it, crossed
///     an unhealed partition or fell to a link drop on a dead branch.
///     `delivery_unbounded` flags it: observed Delta is infinite.
struct DeliveryReport {
  bool faulted = false;        ///< a fault injector was attached
  bool heterogeneous = false;  ///< a non-degenerate NetConfig was attached
  std::size_t observed_delta = 0;
  bool delivery_unbounded = false;
  std::size_t pending_inflations = 0;  ///< (block, node) pairs still unadopted
  std::size_t leaderships_skipped = 0;
  faults::FaultStats stats;
};

/// The name frozen perfbench sources use for the report.
using FaultReport = DeliveryReport;

class Simulation {
 public:
  /// `delta` is the network delay bound (0 = synchronous). `faults`, when
  /// non-null, perturbs the execution per its FaultPlan (the injector must
  /// outlive the Simulation); fault events apply at slot onsets, before
  /// deliveries and forging. `net` selects the network shape; the default is
  /// the degenerate lockstep configuration (bit-identical to the pre-event-
  /// core transport), anything else runs the gossip paths and tracks the
  /// observed Delta for delivery_report().
  Simulation(const ScheduleSource& schedule, SimulationConfig config, std::size_t delta,
             Adversary* adversary, faults::FaultInjector* faults = nullptr,
             net::NetConfig net = {});

  void run();                          ///< all slots 1..horizon
  void run_until(std::size_t slot);    ///< slots up to and including `slot`

  [[nodiscard]] std::size_t current_slot() const noexcept { return next_slot_ - 1; }
  [[nodiscard]] const ScheduleSource& schedule() const noexcept { return schedule_; }
  [[nodiscard]] Network& network() noexcept { return network_; }
  [[nodiscard]] const std::vector<HonestNode>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] TieBreak tie_break() const noexcept { return config_.tie_break; }

  /// Adversarial minting on an eligible slot; the block is recorded but NOT
  /// delivered (use network().inject*). The adversary can mint any number of
  /// blocks per adversarial leadership, on any parent it has seen.
  Block mint_adversarial(BlockHash parent, std::size_t slot, std::uint64_t payload);

  /// The omniscient view: every block ever forged or minted. It owns the
  /// execution's block pool; node views, the public view and the network
  /// share it.
  [[nodiscard]] const BlockTree& global_tree() const noexcept { return global_tree_; }
  /// Every block in creation order, genesis first: the pool's Block column
  /// (every forge and mint enters the pool through global_tree_ first).
  /// Forging or minting invalidates the span.
  [[nodiscard]] std::span<const Block> all_blocks() const noexcept {
    return global_tree_.pool_blocks();
  }

  /// The public view: every block accepted by at least one honest node,
  /// whether on first delivery or later via an orphan flush.
  [[nodiscard]] const BlockTree& public_tree() const noexcept { return public_tree_; }

  // --- consistency measurements -------------------------------------------

  /// Definition 3 on the *public* fork (all blocks delivered to at least one
  /// honest node): two maximum-length public chains diverging prior to slot s.
  /// This is what the settlement game checks — either chain could be handed to
  /// an honest observer by ordering deliveries.
  [[nodiscard]] bool observed_settlement_violation(std::size_t s) const;

  /// Register a settlement watch BEFORE running: from the first observation at
  /// or after the close of slot s + k, remember the slot-s prefix adopted by
  /// maximal honest chains; the watch fires if that prefix ever changes
  /// (a reorg past the confirmation depth) or two maximal nodes disagree.
  void watch_settlement(std::size_t s, std::size_t k);
  [[nodiscard]] bool settlement_watch_violated(std::size_t s) const;

  /// The settlement game on slot s at depth k, played to the horizon: watch
  /// s, run to the close of s + k, note a standing public tie there, then run
  /// on. True when the tie or the watch saw a violation.
  bool play_settlement_game(std::size_t s, std::size_t k);

  /// Largest depth-k common-prefix breach among honest chains: do two adopted
  /// chains differ in a block at slot <= l(head) - k (k-CP^slot across nodes)?
  [[nodiscard]] bool observed_cp_slot_violation(std::size_t k) const;

  /// Max over pairs of honest chains of l(t1) - l(common ancestor).
  [[nodiscard]] std::size_t observed_slot_divergence() const;

  /// The end-of-run delivery audit (see DeliveryReport): one sweep, run
  /// lazily, so call it after the run completes. Trivial for a lockstep run
  /// without a fault injector.
  [[nodiscard]] DeliveryReport delivery_report() const;

  /// Forwards to delivery_report(), kept only for the frozen perfbench
  /// sources; nothing else may call them.
  [[nodiscard]] DeliveryReport fault_report() const { return delivery_report(); }
  [[nodiscard]] DeliveryReport net_report() const { return delivery_report(); }

 private:
  void step();
  void deliver_due(std::size_t slot);
  /// Crash / restart / heal events due at the onset of `slot`, plus the
  /// re-sync shipping they trigger.
  void apply_fault_events(std::size_t slot);
  /// Ship `party` every public-view block missing from its tree, ancestors
  /// first (the public arrival order is parents-first), due at `slot`.
  void resync_node(PartyId party, std::size_t slot);
  void check_watches(std::size_t onset_slot);
  /// Mirror a node-accepted block, by pool id, into the public tree. The
  /// public tree can never refuse it (see the argument at the definition).
  void public_add(std::uint32_t id);
  /// The distinct best heads currently adopted across the honest nodes.
  [[nodiscard]] std::vector<BlockHash> distinct_best_heads() const;
  /// The slot-s prefix (deepest block with slot <= s) of the chain at `head`.
  [[nodiscard]] BlockHash prefix_at(BlockHash head, std::size_t s) const;

  struct Watch {
    std::size_t s = 0;
    std::size_t k = 0;
    bool has_record = false;
    BlockHash recorded_prefix = 0;
    bool violated = false;
  };

  const ScheduleSource& schedule_;
  SimulationConfig config_;
  Network network_;
  Adversary* adversary_;               // may be null
  faults::FaultInjector* faults_;      // may be null (the common case)
  bool fault_active_ = false;          ///< faults_ set AND its plan non-empty
  bool hetero_ = false;                ///< non-degenerate NetConfig attached
  /// Owns the execution's block pool, the only block storage: every node
  /// view and the public view are views of it (declared first, built first).
  BlockTree global_tree_;
  BlockTree public_tree_;  ///< blocks accepted by at least one honest node
  std::vector<HonestNode> nodes_;
  std::size_t observed_delta_ = 0;     ///< max counted honest acceptance delay
  std::size_t leaderships_skipped_ = 0;
  std::vector<PartyId> fault_scratch_;  ///< crash/restart event list reuse
  std::vector<Watch> watches_;
  std::vector<net::BlockId> delivery_scratch_;  ///< collect_into reuse
  std::vector<std::uint32_t> accepted_scratch_;  ///< receive-accepted pool ids, reused
  Rng rng_;
  std::size_t next_slot_ = 1;
};

}  // namespace mh
