#include "protocol/simulation.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "support/check.hpp"

namespace mh {

Simulation::Simulation(const ScheduleSource& schedule, SimulationConfig config,
                       std::size_t delta, Adversary* adversary,
                       faults::FaultInjector* faults, net::NetConfig net)
    : schedule_(schedule),
      config_(config),
      network_(schedule.honest_parties(), delta, net),
      adversary_(adversary),
      faults_(faults),
      hetero_(network_.heterogeneous()),
      public_tree_(global_tree_.view()),
      rng_(config.seed) {
  if (faults_) {
    MH_REQUIRE_MSG(faults_->parties() == schedule.honest_parties() &&
                       faults_->horizon() == schedule.horizon(),
                   "fault injector shaped for " + std::to_string(faults_->parties()) +
                       " parties x " + std::to_string(faults_->horizon()) +
                       " slots, execution has " +
                       std::to_string(schedule.honest_parties()) + " x " +
                       std::to_string(schedule.horizon()));
    // An empty plan is the null hypothesis: no query can ever fire, so skip
    // the per-delivery and per-slot injector consultations entirely (the E16
    // overhead gate holds the empty-plan run within 2% of the bare one).
    fault_active_ = !faults_->plan().empty();
    if (fault_active_) network_.attach_faults(faults_);
  }
  nodes_.reserve(schedule.honest_parties());
  for (PartyId p = 0; p < schedule.honest_parties(); ++p)
    nodes_.emplace_back(p, config.tie_break, &schedule_, global_tree_.view());
  // The network names blocks by their ids in the execution's pool, and elides
  // re-publishes of blocks a node already holds against its view. nodes_
  // never grows past this point, and a moved Simulation keeps the vector's
  // buffer, so the bound span stays valid.
  network_.bind_views(nodes_, global_tree_);
  if (adversary_) adversary_->begin(*this);
}

void Simulation::run() { run_until(schedule_.horizon()); }

void Simulation::run_until(std::size_t slot) {
  MH_REQUIRE_MSG(slot <= schedule_.horizon(),
                 "run_until(" + std::to_string(slot) + ") is past the horizon " +
                     std::to_string(schedule_.horizon()));
  while (next_slot_ <= slot) step();
  // Axiom A0 delivers a slot's broadcasts before the slot concludes; flush
  // everything already due at the upcoming onset so observations at the close
  // of `slot` see its blocks. step() re-collects idempotently (queues drain).
  deliver_due(next_slot_);
  check_watches(next_slot_);
}

void Simulation::public_add(std::uint32_t id) {
  // Every node view is a subset of the public view. A node admits a block
  // only once it holds the block's parent, and each admission is mirrored
  // here at once, so the parent is already public: the block cannot be an
  // Orphan. Nor Invalid: the node's view ran the same validity checks on the
  // same pooled block and admitted it. Only Added or Duplicate (another node
  // admitted it first) remain.
  const BlockTree::AddResult result = public_tree_.try_add(id);
  MH_REQUIRE_MSG(result == BlockTree::AddResult::Added ||
                     result == BlockTree::AddResult::Duplicate,
                 "the public view refused party " + std::to_string(all_blocks()[id].issuer) +
                     "'s slot-" + std::to_string(all_blocks()[id].slot) +
                     " block that a node admitted");
}

void Simulation::deliver_due(std::size_t slot) {
  // Delivery counters aggregate over the whole node loop (one add per round):
  // per-(node, slot) hooks here run millions of times on the E14 scale cells.
  MH_OBS_ONLY(std::size_t delivered = 0;)
  for (HonestNode& node : nodes_) {
    // A crashed endpoint neither collects nor processes; its queue was wiped
    // at crash time and stays empty while it is down.
    if (fault_active_ && faults_->is_down(node.id(), slot)) continue;
    network_.collect_into(node.id(), slot, &delivery_scratch_);
    MH_OBS_ONLY(delivered += delivery_scratch_.size();)
    for (const net::BlockId id : delivery_scratch_) {
      accepted_scratch_.clear();
      // Every delivered id is pooled (the network pools what it is handed),
      // except an alias: a tampered copy, received as the Block it is.
      if (network_.is_alias(id))
        node.receive(network_.block(id), &accepted_scratch_);
      else
        node.receive(id, &accepted_scratch_);
      // Every block the node admitted — including orphans unblocked by this
      // delivery — joins the public tree (the seed dropped flushed orphans,
      // hiding real public-fork disagreements).
      for (const std::uint32_t accepted : accepted_scratch_) {
        // Observed Delta: the max delay until a node could first ADOPT an
        // honest block — chain-complete acceptance, not raw arrival. (A
        // partial leak parks a block in the orphan buffer where it extends
        // nothing; grading the run at arrival delay undercuts the fork
        // projection — F4 fails at an observed Delta the execution never
        // actually satisfied.) Down slots are discounted, not the whole
        // window: a crashed endpoint cannot receive (and the restart re-sync
        // delivers promptly), but every UP slot the block went undelivered is
        // the network's degradation — a later unrelated crash must not excuse
        // it. The ratchet precheck keeps slot - a.slot - 1 from underflowing
        // on rushed injections.
        if (fault_active_ || hetero_) {
          const Block& a = all_blocks()[accepted];
          if (a.issuer != kAdversary && slot > a.slot + 1 + observed_delta_) {
            const std::size_t raw = slot - a.slot - 1;
            const std::size_t down =
                fault_active_ ? faults_->down_slots_in(node.id(), a.slot + 1, slot) : 0;
            if (raw > down + observed_delta_) observed_delta_ = raw - down;
          }
        }
        public_add(accepted);
      }
    }
  }
  MH_OBS_ONLY(if (delivered != 0) {
    MH_OBS_COUNT("protocol.net.blocks_delivered", delivered);
    MH_OBS_COUNT("protocol.node.blocks_received", delivered);
  })
}

void Simulation::step() {
  const std::size_t t = next_slot_++;
  MH_OBS_COUNT("protocol.sim.slots", 1);

  // Epoch-driven schedules reveal their slots here: an epoch opening at slot
  // t folds its nonce from the public chain exactly as of the previous slot's
  // close (deliveries due at t have not landed yet). Pre-drawn schedules
  // no-op.
  schedule_.advance_to(t, public_tree_);

  // 0. Fault events land at the slot onset, BEFORE deliveries and forging: a
  //    restarted node is fully re-synced before it acts.
  if (fault_active_) apply_fault_events(t);

  // 1. Deliveries due at the onset of slot t, then settlement observations.
  deliver_due(t);
  check_watches(t);

  // 2. Adversarial action (minting / injection for this slot). Late
  //    injections scheduled for slot t must still reach the leaders before
  //    they forge (the adversary is rushing).
  if (adversary_) {
    adversary_->on_slot_begin(t, *this);
    deliver_due(t);
  }

  // 3. Honest leaders forge concurrently: all choose parents before any new
  //    slot-t block is visible to the others.
  std::vector<Block> forged;
  for (PartyId leader : schedule_.leaders(t).honest) {
    // A crashed leader forges nothing: the slot loses this leadership (the
    // oracle projects the matching "effective" characteristic string).
    if (fault_active_ && faults_->is_down(leader, t)) {
      ++leaderships_skipped_;
      ++faults_->stats().leaderships_skipped;
      MH_OBS_COUNT("protocol.faults.leaderships_skipped", 1);
      continue;
    }
    HonestNode& node = nodes_[leader];
    BlockHash parent = node.best_head();
    if (config_.tie_break == TieBreak::AdversarialOrder && adversary_) {
      const std::vector<BlockHash> ties = node.tree().max_length_heads();
      if (ties.size() > 1) {
        parent = adversary_->break_tie(leader, ties, *this);
        MH_REQUIRE_MSG(std::find(ties.begin(), ties.end(), parent) != ties.end(),
                       "adversary must pick one of the tied heads");
      }
    }
    forged.push_back(make_block(parent, t, leader, rng_()));
  }
  if (!forged.empty()) {
    MH_OBS_COUNT("protocol.sim.honest_forged", forged.size());
    MH_OBS_COUNT("protocol.node.blocks_received", forged.size());  // leader self-receives
  }

  // 4. Broadcast; record; leaders adopt their own blocks immediately. Honest
  //    participants broadcast *chains* (the model's messages are blockchains),
  //    so the ancestry ships along: the adversary cannot orphan an honest
  //    block at a recipient by having disclosed the parent only selectively.
  //    The chain-synced transport ships each recipient only what it has not
  //    already been scheduled to receive by the block's due slot.
  for (const Block& block : forged) {
    accepted_scratch_.clear();
    // The global view pools the forge and its leader receives it by id,
    // unless the parent skipped the global view (pooled by the network,
    // never minted): then the leader's receive pools it.
    if (global_tree_.try_add(block) == BlockTree::AddResult::Added)
      nodes_[block.issuer].receive(global_tree_.arrival_ids().back(), &accepted_scratch_);
    else
      nodes_[block.issuer].receive(block, &accepted_scratch_);
    for (const std::uint32_t id : accepted_scratch_) public_add(id);
    std::vector<std::size_t> delays;
    if (adversary_) delays = adversary_->delivery_delays(block, t, *this);
    network_.broadcast_chain(global_tree_, block, t, delays);
  }
}

void Simulation::apply_fault_events(std::size_t slot) {
  faults_->crashes_at(slot, &fault_scratch_);
  for (const PartyId p : fault_scratch_) {
    network_.crash_recipient(p);
    nodes_[p].crash();
    ++faults_->stats().crashes;
    MH_OBS_COUNT("protocol.faults.crashes", 1);
  }
  faults_->restarts_at(slot, &fault_scratch_);
  for (const PartyId p : fault_scratch_) {
    ++faults_->stats().restarts;
    MH_OBS_COUNT("protocol.faults.restarts", 1);
    resync_node(p, slot);
  }
  const std::size_t heals = faults_->heals_at(slot);
  if (heals != 0) {
    faults_->stats().partitions_healed += heals;
    MH_OBS_COUNT("protocol.faults.partitions_healed", heals);
    // On heal every up party re-syncs: cross-group ships were dropped while
    // the partition stood, and no watermark claims they were scheduled, so
    // the diff against the public view is exactly what each side missed.
    for (const HonestNode& node : nodes_)
      if (!faults_->is_down(node.id(), slot)) resync_node(node.id(), slot);
  }
  MH_OBS_GAUGE_SET("protocol.faults.partitions_active", faults_->partitions_active(slot));
}

void Simulation::resync_node(PartyId party, std::size_t slot) {
  // The public view holds everything any honest node ever accepted — a
  // superset of every individual view, and in particular of everything that
  // was in flight toward `party` when it crashed (forgers self-accept, so a
  // broadcast block is public from its forge slot). Its arrival order is
  // parents-first, so shipping the missing suffix in that order keeps the
  // ancestors-first contract; blocks the node already holds are skipped, so
  // the re-ship is bounded by what was actually lost.
  const BlockTree& view = nodes_[party].tree();
  for (const std::uint32_t id : public_tree_.arrival_ids()) {
    if (view.holds(id)) continue;  // genesis included
    network_.resync_ship(all_blocks()[id], party, slot);
  }
}

DeliveryReport Simulation::delivery_report() const {
  DeliveryReport report;
  report.faulted = faults_ != nullptr;
  report.heterogeneous = hetero_;
  report.observed_delta = observed_delta_;
  report.leaderships_skipped = leaderships_skipped_;
  if (faults_) report.stats = faults_->stats();
  if (!faults_ && !hetero_) return report;
  const std::size_t last_onset = next_slot_;  // deliveries are flushed up to here
  const std::span<const Block> blocks = all_blocks();
  for (std::uint32_t id = 1; id < blocks.size(); ++id) {  // genesis excluded
    const Block& b = blocks[id];
    if (b.issuer == kAdversary) continue;
    // Lockstep claims only closed windows; gossip has no configured window —
    // multi-hop delays are legitimate lateness.
    if (!hetero_ && b.slot + 1 + network_.delta() > last_onset) continue;
    for (const HonestNode& node : nodes_) {
      // Adoptability, not arrival: a block parked in the orphan buffer was
      // "delivered" but extends nothing.
      if (node.id() == b.issuer || node.tree().holds(id)) continue;
      if (faults_ && faults_->is_down(node.id(), last_onset)) continue;  // down at end: no claim
      if (hetero_) {
        const std::size_t down =
            faults_ ? faults_->down_slots_in(node.id(), b.slot + 1, last_onset) : 0;
        if (last_onset <= b.slot + down) continue;  // window effectively unopened
        ++report.pending_inflations;
        report.observed_delta = std::max(report.observed_delta, last_onset - b.slot - down);
      } else if (!faults_->down_in_window(node.id(), b.slot + 1, last_onset)) {
        // Blocks delivered before a later crash persist in the tree, so only
        // windows intersecting down-time are excused.
        report.delivery_unbounded = true;
        return report;
      }
    }
  }
  return report;
}

Block Simulation::mint_adversarial(BlockHash parent, std::size_t slot, std::uint64_t payload) {
  MH_REQUIRE_MSG(schedule_.eligible(kAdversary, slot),
                 "slot " + std::to_string(slot) + " holds no adversarial leadership");
  MH_REQUIRE_MSG(global_tree_.contains(parent), "unknown parent for an adversarial mint at slot " +
                                                    std::to_string(slot));
  MH_REQUIRE_MSG(global_tree_.block(parent).slot < slot,
                 "labels must increase along chains: parent sits at slot " +
                     std::to_string(global_tree_.block(parent).slot) +
                     ", mint requested at slot " + std::to_string(slot));
  const Block block = make_block(parent, slot, kAdversary, payload);
  global_tree_.add(block);
  return block;
}

bool Simulation::observed_settlement_violation(std::size_t s) const {
  const std::vector<BlockHash> heads = public_tree_.max_length_heads();
  // What each maximal public chain says about slot s: its block labelled
  // exactly s, or "the chain skips s" (nullopt). Any mismatch between two
  // maximal chains is a settlement disagreement an observer could be shown.
  std::vector<std::optional<BlockHash>> exact_at(heads.size());
  for (std::size_t i = 0; i < heads.size(); ++i) {
    const auto deepest = public_tree_.block_at_slot(heads[i], s);
    if (deepest && public_tree_.block(*deepest).slot == s) exact_at[i] = deepest;
  }
  for (std::size_t a = 0; a < heads.size(); ++a)
    for (std::size_t b = a + 1; b < heads.size(); ++b) {
      if (!exact_at[a] && !exact_at[b]) continue;  // both skip slot s
      if (exact_at[a] != exact_at[b]) return true;
    }
  return false;
}

void Simulation::watch_settlement(std::size_t s, std::size_t k) {
  MH_REQUIRE_MSG(s >= 1 && k >= 1, "settlement watch needs slot >= 1 and depth >= 1, got s = " +
                                       std::to_string(s) + ", k = " + std::to_string(k));
  watches_.push_back(Watch{s, k, false, 0, false});
}

bool Simulation::settlement_watch_violated(std::size_t s) const {
  for (const Watch& watch : watches_)
    if (watch.s == s) return watch.violated;
  MH_REQUIRE_MSG(false, "no watch registered for this slot");
  return false;
}

bool Simulation::play_settlement_game(std::size_t s, std::size_t k) {
  watch_settlement(s, k);
  run_until(s + k);
  const bool tied = observed_settlement_violation(s);
  run();
  return tied || settlement_watch_violated(s);
}

BlockHash Simulation::prefix_at(BlockHash head, std::size_t s) const {
  const auto block = global_tree_.block_at_slot(head, s);
  return block ? *block : genesis_block().hash;
}

void Simulation::check_watches(std::size_t onset_slot) {
  if (watches_.empty()) return;
  // Crashed nodes are not observers: their (stale) views cannot be handed to
  // a settlement client until they restart and re-sync.
  std::size_t best = 0;
  for (const HonestNode& node : nodes_) {
    if (fault_active_ && faults_->is_down(node.id(), onset_slot)) continue;
    best = std::max(best, node.best_length());
  }

  for (Watch& watch : watches_) {
    if (watch.violated) continue;
    // Observing the fork at the close of slot onset_slot - 1; the settlement
    // game begins its checks at forks covering slot s + k.
    if (onset_slot < watch.s + watch.k + 1) continue;
    for (const HonestNode& node : nodes_) {
      if (fault_active_ && faults_->is_down(node.id(), onset_slot)) continue;
      if (node.best_length() != best) continue;
      const BlockHash prefix = prefix_at(node.best_head(), watch.s);
      if (!watch.has_record) {
        watch.has_record = true;
        watch.recorded_prefix = prefix;
      } else if (prefix != watch.recorded_prefix) {
        watch.violated = true;  // reorg past depth k, or concurrent disagreement
        break;
      }
    }
  }
}

std::vector<BlockHash> Simulation::distinct_best_heads() const {
  std::vector<BlockHash> heads;
  heads.reserve(nodes_.size());
  for (const HonestNode& node : nodes_) {
    // A crashed node holds no adoptable view right now.
    if (fault_active_ && faults_->is_down(node.id(), current_slot())) continue;
    heads.push_back(node.best_head());
  }
  std::sort(heads.begin(), heads.end());
  heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
  return heads;
}

std::size_t Simulation::observed_slot_divergence() const {
  // Divergence depends only on the adopted head pair, so pairs of DISTINCT
  // heads suffice (equal heads contribute 0).
  const std::vector<BlockHash> heads = distinct_best_heads();
  std::size_t best = 0;
  for (const BlockHash h1 : heads)
    for (const BlockHash h2 : heads) {
      const std::uint64_t l1 = global_tree_.block(h1).slot;
      if (l1 > global_tree_.block(h2).slot) continue;
      const BlockHash meet = global_tree_.common_ancestor(h1, h2);
      best = std::max(best, static_cast<std::size_t>(l1 - global_tree_.block(meet).slot));
    }
  return best;
}

bool Simulation::observed_cp_slot_violation(std::size_t k) const {
  const std::vector<BlockHash> heads = distinct_best_heads();
  for (const BlockHash h1 : heads)
    for (const BlockHash h2 : heads) {
      const std::uint64_t l1 = global_tree_.block(h1).slot;
      if (l1 > global_tree_.block(h2).slot) continue;
      if (l1 < k) continue;
      const BlockHash meet = global_tree_.common_ancestor(h1, h2);
      // The trimmed chain h1-floor-k ends at the deepest block of slot
      // <= l1 - k; it is a prefix of h2 iff the meet lies at or below it.
      const std::uint64_t cutoff = l1 - k;
      const auto trimmed_block = global_tree_.block_at_slot(h1, cutoff);
      const BlockHash trimmed = trimmed_block ? *trimmed_block : genesis_block().hash;
      const std::uint64_t meet_slot = global_tree_.block(meet).slot;
      if (meet_slot < global_tree_.block(trimmed).slot) return true;
    }
  return false;
}

}  // namespace mh
