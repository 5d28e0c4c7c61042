#include "protocol/network.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "obs/obs.hpp"
#include "protocol/faults/injector.hpp"
#include "support/check.hpp"

namespace mh {

Network::Network(std::size_t parties, std::size_t delta, net::NetConfig config)
    : parties_(parties),
      delta_(delta),
      config_(config),
      hetero_(config.heterogeneous()),
      topology_(net::Topology::build(config.topology, parties, config.k, config.seed)),
      link_seeds_(config.seed),
      events_(parties),
      watermarks_(parties) {
  MH_REQUIRE_MSG(parties >= 1, "a network needs at least one party, got " +
                                   std::to_string(parties));
  config_.validate(parties);
  if (hetero_) {
    egress_.resize(parties);
    coverage_.resize(parties);
  }
}

namespace {

/// A due as the watermarks store it; kNever (2^32 - 1) is not a due.
std::uint32_t stored_due(std::size_t due) {
  MH_REQUIRE_MSG(due < 0xffffffffu,
                 "watermark due slot " + std::to_string(due) + " exceeds 32 bits");
  return static_cast<std::uint32_t>(due);
}

}  // namespace

bool Network::covered(PartyId recipient, BlockId id, std::size_t due) const {
  if (covered_all(id, due)) return true;
  const RecipientWatermarks* marks = watermarks_[recipient].get();
  if (marks == nullptr) return false;
  const auto it = marks->sent.find(id);
  return it != marks->sent.end() && it->second <= due;
}

void Network::record_all(BlockId id, std::size_t due) {
  const Due d = stored_due(due);
  if (due_all_.size() <= id) due_all_.resize(pool_size(), kNever);
  Due& entry = due_all_[id];
  if (entry == kNever) ++due_all_live_;
  entry = std::min(entry, d);
}

void Network::record_recipient(PartyId recipient, BlockId id, std::size_t due) {
  const Due d = stored_due(due);
  std::unique_ptr<RecipientWatermarks>& marks = watermarks_[recipient];
  if (marks == nullptr) marks = std::make_unique<RecipientWatermarks>();
  const auto [it, inserted] = marks->sent.try_emplace(id, d);
  if (!inserted) {
    if (d >= it->second) return;  // no tightening: nothing new to expire
    it->second = d;
  }
  marks->sent_log.emplace_back(id, d);
}

void Network::expire_watermarks(PartyId recipient, std::size_t slot) {
  // A per-recipient entry only beats due_all_ for dues below the round's
  // maximum, and every query after `slot` uses a due past it; delta + 1 slots
  // after an entry's due it can no longer answer differently than a fresh
  // re-ship would, so dropping it is safe (worst case: a duplicate re-ship at
  // a position the seed transport always shipped).
  RecipientWatermarks* marks = watermarks_[recipient].get();
  if (marks == nullptr) return;
  auto& log = marks->sent_log;
  if (log.empty()) return;
  std::size_t head = marks->log_head;
  for (; head < log.size() && log[head].second + delta_ + 1 <= slot; ++head) {
    const auto [id, due] = log[head];
    const auto it = marks->sent.find(id);
    if (it != marks->sent.end() && it->second == due) {
      marks->sent.erase(it);
      MH_OBS_COUNT("protocol.net.watermarks_expired", 1);
    }
  }
  // Compact once the expired prefix is half the log: amortized O(1).
  if (head == log.size()) {
    log.clear();
    head = 0;
  } else if (2 * head >= log.size()) {
    log.erase(log.begin(), log.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  marks->log_head = head;
}

// A send during an active fault window may lose or skew individual links, so
// it must never advance due_all_ (the all-recipient bound would overclaim
// coverage for a recipient whose ship was dropped); per-recipient watermarks
// record exactly what was actually scheduled.
bool Network::fault_window(std::size_t slot) const noexcept {
  return faults_ != nullptr && faults_->window_active(slot);
}

// The drop/dup/extra-delay decision for one honest ship; returns false when
// the ship is lost entirely (down recipient, severed link, or link drop).
bool Network::faulted_link(PartyId sender, PartyId recipient, std::size_t slot,
                           faults::LinkVerdict* verdict) {
  if (faults_->is_down(recipient, slot) || faults_->severed(sender, recipient, slot)) {
    ++faults_->stats().ships_dropped;
    MH_OBS_COUNT("protocol.faults.ships_dropped", 1);
    return false;
  }
  *verdict = faults_->link_verdict(sender, recipient, slot);
  if (verdict->drop) {
    ++faults_->stats().ships_dropped;
    MH_OBS_COUNT("protocol.faults.ships_dropped", 1);
    return false;
  }
  if (verdict->extra_delay != 0) {
    ++faults_->stats().ships_delayed;
    MH_OBS_COUNT("protocol.faults.ships_delayed", 1);
  }
  if (verdict->duplicate) {
    ++faults_->stats().ships_duplicated;
    MH_OBS_COUNT("protocol.faults.ships_duplicated", 1);
  }
  return true;
}

// --- the block store --------------------------------------------------------

void Network::bind_views(std::span<const HonestNode> nodes, const BlockTree& pool) {
  MH_REQUIRE_MSG(nodes.empty() || nodes.size() == parties_,
                 "bound " + std::to_string(nodes.size()) + " views, network has " +
                     std::to_string(parties_) + " parties");
  MH_REQUIRE_MSG(!store_, "a network must be bound before it is handed a block");
  views_ = nodes;
  store_ = pool.view();
}

BlockTree& Network::store() {
  if (!store_) store_.emplace();
  return *store_;
}

Network::BlockId Network::resolve(const Block& block) {
  BlockTree& store = this->store();
  const BlockId id = store.enter_pool(block);
  if (id != kNoId) {
    MH_REQUIRE_MSG(id < alias_floor(), "pool ids reached the transport's alias ids");
    return id;
  }
  const BlockId pooled = store.pool_id(block.hash);
  MH_REQUIRE_MSG(pooled != kNoId,
                 "cannot name party " + std::to_string(block.issuer) + "'s slot-" +
                     std::to_string(block.slot) +
                     " block: its hash is not pooled, and its parent is unpooled, its "
                     "slot is not above the parent's, or its header is not intact");
  // A tampered copy: the same hash as the pooled block, different fields.
  for (std::size_t i = 0; i < aliases_.size(); ++i)
    if (aliases_[i].block == block) return kNoId - 1 - static_cast<BlockId>(i);
  aliases_.push_back(Alias{block, pooled});
  MH_REQUIRE_MSG(pool_size() <= alias_floor(), "alias ids reached the pool's ids");
  return alias_floor();
}

Network::BlockId Network::resolve_chain(const BlockTree& tree, const Block& block) {
  BlockTree& store = this->store();
  if (store.pool_id(block.parent) == kNoId) {
    // Only a private store can lack the ancestry; it pools parents first.
    hash_scratch_.clear();
    for (BlockHash h = block.parent; store.pool_id(h) == kNoId; h = tree.block(h).parent)
      hash_scratch_.push_back(h);
    for (std::size_t i = hash_scratch_.size(); i-- > 0;) resolve(tree.block(hash_scratch_[i]));
  }
  return resolve(block);
}

// --- no-op re-delivery elision ---------------------------------------------

bool Network::view_holds(PartyId recipient, BlockId id) {
  if (held_.size() <= id) held_.resize(pool_size(), 0);
  std::uint32_t& prefix = held_[id];
  if (recipient < prefix) return true;
  if (!views_[recipient].tree().holds(id)) return false;
  // Views only grow: the next holder extends the prefix.
  if (recipient == prefix) ++prefix;
  return true;
}

bool Network::all_views_hold(BlockId id) {
  // Views only grow, so the holder prefix only advances: a call costs O(1)
  // amortized — one failed test, plus advances that total P per id.
  // view_holds advances the prefix past each holder it finds.
  if (held_.size() <= id) held_.resize(pool_size(), 0);
  while (held_[id] < parties_ && view_holds(held_[id], id)) {
  }
  return held_[id] == parties_;
}

const Network::NearDown& Network::near_down(std::size_t visible_slot) {
  const std::size_t lo = std::min(visible_slot, now_), hi = std::max(visible_slot, now_);
  NearDown& near = near_down_;
  if (near.lo == lo && near.hi == hi) return near;
  near.lo = lo;
  near.hi = hi;
  near.any = faults_ != nullptr && faults_->any_down(lo, hi);
  if (!near.any) return near;
  std::vector<std::uint8_t> down(parties_);
  for (PartyId n = 0; n < parties_; ++n) down[n] = faults_->down_in_window(n, lo, hi) ? 1 : 0;
  near.flag.assign(parties_, 0);
  for (PartyId r = 0; r < parties_; ++r)
    topology_.for_each_neighbor(r, [&](PartyId n) { near.flag[r] |= down[n]; });
  return near;
}

bool Network::relays_nothing(PartyId victim, BlockId id, std::size_t visible_slot) {
  if (near_down(visible_slot)[victim]) return false;
  if (id < covered_by_.size() && covered_by_[id] == parties_) return true;
  bool covered = true;
  topology_.for_each_neighbor(victim,
                              [&](PartyId n) { covered = covered && coverage_[n].test(id); });
  return covered;
}

bool Network::settled(BlockHash hash, std::size_t visible_slot) const {
  const BlockId id = store_->pool_id(hash);
  return id < settled_.size() && settled_[id] == epoch_ &&
         (hetero_ || covered_all(id, visible_slot));
}

bool Network::settle(BlockHash hash) {
  const BlockId id = store_->pool_id(hash);  // walked blocks were resolved
  if (!all_views_hold(id)) return false;
  if (hetero_ && (id >= covered_by_.size() || covered_by_[id] != parties_)) return false;
  if (settled_.size() <= id) settled_.resize(pool_size(), 0);
  settled_[id] = epoch_;
  return true;
}

// --- heterogeneous (event-core gossip) path --------------------------------

std::size_t Network::egress_depart(PartyId sender, std::size_t slot) {
  const std::size_t cap = config_.bandwidth;
  if (cap == 0) return slot;
  Egress& egress = egress_[sender];
  // A counter behind the request slot is stale history; one at or past it is
  // spillover from this slot's (or an earlier slot's) over-cap sends.
  if (egress.slot < slot) {
    egress.slot = slot;
    egress.used = 0;
  }
  while (egress.used >= cap) {
    ++egress.slot;
    egress.used = 0;
    MH_OBS_COUNT("protocol.net.bandwidth_spills", 1);
  }
  ++egress.used;
  return egress.slot;
}

std::size_t Network::link_extra(std::size_t slot, PartyId sender, PartyId recipient) const {
  if (config_.latency.kind == net::LatencyKind::Degenerate) return config_.latency.fixed;
  // One draw per (slot, link): the link's delay at that slot, pure in the
  // scenario spec (same keying as the fault layer's link verdicts).
  Rng rng = link_seeds_.stream((slot * parties_ + sender) * parties_ + recipient);
  return config_.latency.draw(rng);
}

void Network::hetero_send(PartyId sender, PartyId recipient, BlockId id, std::size_t slot,
                          std::size_t adversary_delay, std::size_t fault_extra,
                          bool duplicate) {
  const std::size_t depart = egress_depart(sender, slot);
  const std::size_t due =
      depart + 1 + adversary_delay + fault_extra + link_extra(depart, sender, recipient);
  push(recipient, id, due);
  if (duplicate) push(recipient, id, due);
  cover(recipient, id);
}

std::size_t Network::checked_delay(const std::vector<std::size_t>& delays, PartyId r,
                                   std::size_t sent_slot) const {
  const std::size_t delay = delays.empty() ? 0 : delays[r];
  MH_REQUIRE_MSG(delay <= delta_, "adversary delay " + std::to_string(delay) + " for party " +
                                      std::to_string(r) + " at slot " +
                                      std::to_string(sent_slot) + " exceeds Delta = " +
                                      std::to_string(delta_));
  return delay;
}

void Network::hetero_broadcast_chain(const Block& block, BlockId id, std::size_t sent_slot,
                                     const std::vector<std::size_t>& per_recipient_delay) {
  const PartyId sender = block.issuer;
  MH_REQUIRE_MSG(sender < parties_,
                 "heterogeneous broadcast_chain needs an honest issuer, got party " +
                     std::to_string(sender) + " at slot " + std::to_string(sent_slot));
  // The forger self-accepts: its own coverage gains the block immediately, so
  // a neighbor's later relay back to it deduplicates.
  cover(sender, id);
  const bool faulted = fault_window(sent_slot);
  const BlockId parent = store_->pool_id(block.parent);
  const std::span<const std::uint32_t> parents = store_->pool_parents();
  MH_OBS_ONLY(std::size_t shipped = 0;)
  topology_.for_each_neighbor(sender, [&](PartyId r) {
    const std::size_t delay = checked_delay(per_recipient_delay, r, sent_slot);
    faults::LinkVerdict link{};
    // A lost ship schedules nothing: the recipient's coverage keeps the gap,
    // so the next broadcast or relay on this chain re-walks past it.
    if (faulted && !faulted_link(sender, r, sent_slot, &link)) return;
    const Coverage& coverage = coverage_[r];
    lift_scratch_.clear();
    for (BlockId a = parent; a != 0 && !coverage.test(a); a = parents[a])
      lift_scratch_.push_back(a);
    MH_OBS_HIST("protocol.net.chain_sync_depth", lift_scratch_.size());
    MH_OBS_ONLY(shipped += lift_scratch_.size() + 1;)
    for (std::size_t i = lift_scratch_.size(); i-- > 0;)
      hetero_send(sender, r, lift_scratch_[i], sent_slot, delay,
                  faulted ? link.extra_delay : 0, false);
    hetero_send(sender, r, id, sent_slot, delay, faulted ? link.extra_delay : 0,
                faulted && link.duplicate);
  });
  MH_OBS_COUNT("protocol.net.blocks_shipped", shipped);
}

void Network::hetero_relay(PartyId relayer, BlockId id, std::size_t slot, bool faulted) {
  const BlockId hash_id = pooled(id);
  MH_OBS_ONLY(std::size_t relayed = 0;)
  topology_.for_each_neighbor(relayer, [&](PartyId neighbor) {
    if (coverage_[neighbor].test(hash_id)) return;
    faults::LinkVerdict link{};
    if (faulted && !faulted_link(relayer, neighbor, slot, &link)) return;
    MH_OBS_ONLY(++relayed;)
    hetero_send(relayer, neighbor, id, slot, 0, faulted ? link.extra_delay : 0,
                faulted && link.duplicate);
  });
  MH_OBS_COUNT("protocol.net.blocks_relayed", relayed);
}

// --- broadcast entry points ------------------------------------------------

void Network::require_broadcast(const Block& block, std::size_t sent_slot,
                                const std::vector<std::size_t>& delays) const {
  MH_REQUIRE_MSG(delays.empty() || delays.size() == parties_,
                 "delay vector covers " + std::to_string(delays.size()) +
                     " parties, network has " + std::to_string(parties_));
  MH_REQUIRE_MSG(block.slot <= sent_slot,
                 "non-monotone broadcast: party " + std::to_string(block.issuer) +
                     "'s slot-" + std::to_string(block.slot) +
                     " block cannot be sent at slot " + std::to_string(sent_slot));
}

void Network::broadcast(const Block& block, std::size_t sent_slot,
                        const std::vector<std::size_t>& per_recipient_delay) {
  require_broadcast(block, sent_slot, per_recipient_delay);
  const BlockId id = resolve(block);
  if (hetero_) {
    MH_OBS_COUNT("protocol.net.blocks_shipped", 1);
    const bool faulted = fault_window(sent_slot);
    if (block.issuer >= parties_) {
      // Adversarial source: direct channels to everyone (topology, latency,
      // and bandwidth never bind the coalition); only the configured
      // hold-back and a down endpoint apply.
      for (PartyId r = 0; r < parties_; ++r) {
        const std::size_t delay = checked_delay(per_recipient_delay, r, sent_slot);
        if (faulted && faults_->is_down(r, sent_slot)) continue;
        push(r, id, sent_slot + 1 + delay);
        cover(r, id);
      }
      return;
    }
    cover(block.issuer, id);
    topology_.for_each_neighbor(block.issuer, [&](PartyId r) {
      const std::size_t delay = checked_delay(per_recipient_delay, r, sent_slot);
      faults::LinkVerdict link{};
      if (faulted && !faulted_link(block.issuer, r, sent_slot, &link)) return;
      hetero_send(block.issuer, r, id, sent_slot, delay, faulted ? link.extra_delay : 0,
                  faulted && link.duplicate);
    });
    return;
  }
  MH_OBS_COUNT("protocol.net.blocks_shipped", parties_);
  const bool faulted = fault_window(sent_slot);
  const BlockId key = pooled(id);
  const BlockId parent = store_->pool_id(block.parent);
  if (per_recipient_delay.empty() && !faulted) {
    const std::size_t due = sent_slot + 1;
    for (PartyId r = 0; r < parties_; ++r) push(r, id, due);
    // The block carries no ancestry here; it is chain-complete for all
    // recipients only if its parent already is by the same due.
    if (covered_all(parent, due)) record_all(key, due);
    return;
  }
  std::size_t due_max = sent_slot + 1;
  for (PartyId r = 0; r < parties_; ++r) {
    const std::size_t delay = checked_delay(per_recipient_delay, r, sent_slot);
    std::size_t due = sent_slot + 1 + delay;
    faults::LinkVerdict link;
    if (faulted) {
      if (!faulted_link(block.issuer, r, sent_slot, &link)) continue;
      due += link.extra_delay;
    }
    due_max = std::max(due_max, due);
    push(r, id, due);
    if (faulted && link.duplicate) push(r, id, due);
    if (covered(r, parent, due)) record_recipient(r, key, due);
  }
  if (!faulted && covered_all(parent, due_max)) record_all(key, due_max);
}

void Network::broadcast_chain(const BlockTree& tree, const Block& block, std::size_t sent_slot,
                              const std::vector<std::size_t>& per_recipient_delay) {
  require_broadcast(block, sent_slot, per_recipient_delay);
  const BlockId id = resolve_chain(tree, block);
  if (hetero_) {
    hetero_broadcast_chain(block, id, sent_slot, per_recipient_delay);
    return;
  }
  const bool faulted = fault_window(sent_slot);
  // resolve_chain pooled the whole ancestry: walks follow the parent ids.
  const BlockId key = pooled(id);
  const BlockId parent = store_->pool_id(block.parent);
  const std::span<const std::uint32_t> parents = store_->pool_parents();
  // An all-equal delay vector (adversaries often return all-zeros) is a
  // uniform broadcast: handle it on the fast path so the per-recipient
  // watermark maps stay unmade — due_all_ alone carries the coverage. Inside
  // a fault window the round is never uniform: individual links may drop.
  const bool uniform =
      !faulted &&
      (per_recipient_delay.empty() ||
       std::all_of(per_recipient_delay.begin(), per_recipient_delay.end(),
                   [&](std::size_t d) { return d == per_recipient_delay.front(); }));
  if (uniform) {
    const std::size_t delay = checked_delay(per_recipient_delay, 0, sent_slot);
    // One watermark walk covers every recipient.
    const std::size_t due = sent_slot + 1 + delay;
    lift_scratch_.clear();
    BlockId a = parent;
    for (; !covered_all(a, due); a = parents[a]) lift_scratch_.push_back(a);
    MH_OBS_HIST("protocol.net.chain_sync_depth", lift_scratch_.size());
    MH_OBS_COUNT("protocol.net.blocks_shipped", (lift_scratch_.size() + 1) * parties_);
    // The walk stopping short of genesis means a watermark answered it.
    if (a != 0) MH_OBS_COUNT("protocol.net.watermark_hits", 1);
    for (std::size_t i = lift_scratch_.size(); i-- > 0;) {
      for (PartyId r = 0; r < parties_; ++r) push(r, lift_scratch_[i], due);
      record_all(lift_scratch_[i], due);
    }
    for (PartyId r = 0; r < parties_; ++r) push(r, id, due);
    record_all(key, due);
    return;
  }

  std::size_t due_max = sent_slot + 1;
  MH_OBS_ONLY(std::size_t shipped = 0;)
  for (PartyId r = 0; r < parties_; ++r) {
    const std::size_t delay = checked_delay(per_recipient_delay, r, sent_slot);
    std::size_t due = sent_slot + 1 + delay;
    faults::LinkVerdict link;
    if (faulted) {
      // A lost ship records nothing: the next broadcast on this chain walks
      // past the gap and re-ships the whole missing suffix to this recipient.
      if (!faulted_link(block.issuer, r, sent_slot, &link)) continue;
      due += link.extra_delay;
    }
    due_max = std::max(due_max, due);
    lift_scratch_.clear();
    BlockId a = parent;
    for (; a != 0 && !covered(r, a, due); a = parents[a]) lift_scratch_.push_back(a);
    MH_OBS_HIST("protocol.net.chain_sync_depth", lift_scratch_.size());
    MH_OBS_ONLY(shipped += lift_scratch_.size() + 1;)
    if (a != 0) MH_OBS_COUNT("protocol.net.watermark_hits", 1);
    for (std::size_t i = lift_scratch_.size(); i-- > 0;) {
      push(r, lift_scratch_[i], due);
      record_recipient(r, lift_scratch_[i], due);
    }
    push(r, id, due);
    if (faulted && link.duplicate) push(r, id, due);
    record_recipient(r, key, due);
  }
  MH_OBS_COUNT("protocol.net.blocks_shipped", shipped);
  // After the round every recipient holds the block with full ancestry by the
  // latest due, so the all-recipient bound tightens (and future walks stop on
  // it instead of consulting per-recipient state). Not during a fault window:
  // dropped links mean the round did NOT cover every recipient.
  if (faulted) return;
  for (BlockId a = parent; !covered_all(a, due_max); a = parents[a]) record_all(a, due_max);
  record_all(key, due_max);
}

void Network::inject(const Block& block, PartyId recipient, std::size_t visible_slot) {
  MH_REQUIRE_MSG(recipient < parties_,
                 "injection for unknown party " + std::to_string(recipient) +
                     " (network has " + std::to_string(parties_) + " parties)");
  MH_REQUIRE_MSG(visible_slot >= block.slot,
                 "non-monotone injection: a slot-" + std::to_string(block.slot) +
                     " block cannot be visible at slot " + std::to_string(visible_slot));
  // Resolved even when dropped: publish_chain pools a walked chain this way.
  const BlockId id = resolve(block);
  // Partitions never sever adversarial channels (the coalition keeps links
  // into every component), but a crashed endpoint receives nothing.
  if (faults_ != nullptr && faults_->is_down(recipient, visible_slot)) {
    ++faults_->stats().ships_dropped;
    MH_OBS_COUNT("protocol.faults.ships_dropped", 1);
    return;
  }
  if (elidable(id) && view_holds(recipient, id) &&
      (!hetero_ || relays_nothing(recipient, id, visible_slot))) {
    MH_OBS_COUNT("protocol.net.republish_elided", 1);
  } else {
    MH_OBS_COUNT("protocol.net.blocks_shipped", 1);
    push(recipient, id, visible_slot);
  }
  if (hetero_) {
    cover(recipient, id);
    return;
  }
  // Watermarks must stay chain-complete: a partial disclosure (parent not
  // covered) is NOT recorded, so later honest broadcasts re-ship the prefix.
  if (covered(recipient, store_->pool_id(block.parent), visible_slot))
    record_recipient(recipient, pooled(id), visible_slot);
}

void Network::inject_all(const Block& block, std::size_t visible_slot) {
  MH_REQUIRE_MSG(visible_slot >= block.slot,
                 "non-monotone injection: a slot-" + std::to_string(block.slot) +
                     " block cannot be visible at slot " + std::to_string(visible_slot));
  const bool faulted = fault_window(visible_slot);
  const BlockId id = resolve(block);
  if (hetero_) {
    // The call covers every party up at visible_slot, so a holder's pop
    // relays nothing unless one of its out-neighbors may be down by then.
    const bool elidable_id = elidable(id);
    const NearDown& near = near_down(visible_slot);
    // The O(1) special case: nobody is down (so no drop to count), and every
    // view and every coverage already holds the block.
    if (elidable_id && !near.any && id < covered_by_.size() && covered_by_[id] == parties_ &&
        all_views_hold(id)) {
      MH_OBS_COUNT("protocol.net.republish_elided", parties_);
      return;
    }
    MH_OBS_ONLY(std::size_t elided = 0;)
    for (PartyId r = 0; r < parties_; ++r) {
      if (faulted && faults_->is_down(r, visible_slot)) {
        ++faults_->stats().ships_dropped;
        MH_OBS_COUNT("protocol.faults.ships_dropped", 1);
        continue;
      }
      const bool skip = elidable_id && !near[r] && view_holds(r, id);
      if (!skip) push(r, id, visible_slot);
      MH_OBS_ONLY(elided += skip ? 1 : 0;)
      cover(r, id);
    }
    MH_OBS_COUNT("protocol.net.republish_elided", elided);
    MH_OBS_COUNT("protocol.net.blocks_shipped", parties_ - elided);
    return;
  }
  // A block some view lacks ships to everyone, as always; one every view
  // holds gets no lane entry at all.
  const bool elide = elidable(id) && all_views_hold(id);
  if (elide)
    MH_OBS_COUNT("protocol.net.republish_elided", parties_);
  else
    MH_OBS_COUNT("protocol.net.blocks_shipped", parties_);
  // When the parent is covered for everyone, the all-recipient record alone
  // carries the coverage — per-recipient entries would be strictly redundant.
  // A fault window disables it: a down recipient's ship is dropped.
  const BlockId key = pooled(id);
  const BlockId parent = store_->pool_id(block.parent);
  const bool all_covered = !faulted && covered_all(parent, visible_slot);
  if (elide && all_covered) {  // no recipient needs a visit
    record_all(key, visible_slot);
    return;
  }
  for (PartyId r = 0; r < parties_; ++r) {
    if (faulted && faults_->is_down(r, visible_slot)) {
      ++faults_->stats().ships_dropped;
      MH_OBS_COUNT("protocol.faults.ships_dropped", 1);
      continue;
    }
    if (!elide) push(r, id, visible_slot);
    if (!all_covered && covered(r, parent, visible_slot)) record_recipient(r, key, visible_slot);
  }
  if (all_covered) record_all(key, visible_slot);
}

void Network::publish_chain(const BlockTree& tree, BlockHash tip, std::size_t visible_slot,
                            PartyId recipient) {
  const bool everyone = recipient == kEveryone;
  MH_REQUIRE_MSG(everyone || recipient < parties_,
                 "publication for unknown party " + std::to_string(recipient) +
                     " (network has " + std::to_string(parties_) + " parties)");
  // When may the walk stop at a settled ancestor? (See the header.)
  bool may_stop = !views_.empty();
  if (hetero_)
    may_stop = may_stop && !near_down(visible_slot).any;
  else if (everyone)
    may_stop = may_stop && !fault_window(visible_slot);
  else
    may_stop = may_stop && (faults_ == nullptr || faults_->plan().churn.empty());
  hash_scratch_.clear();
  BlockHash h = tip;
  for (; h != genesis_block().hash; h = tree.block(h).parent) {
    if (may_stop && settled(h, visible_slot)) break;
    hash_scratch_.push_back(h);
  }
  // Every block from genesis to the stop is a call that adds no lane entry.
  MH_OBS_COUNT("protocol.net.republish_elided", tree.length(h) * (everyone ? parties_ : 1));
  // Ancestors first: each call pools its block after its parent.
  for (std::size_t i = hash_scratch_.size(); i-- > 0;) {
    const Block& block = tree.block(hash_scratch_[i]);
    if (everyone)
      inject_all(block, visible_slot);
    else
      inject(block, recipient, visible_slot);
  }
  if (views_.empty()) return;
  // The post-call pass, ancestors first: the deepest walked block's parent is
  // the stop (settled) or genesis, and a block whose parent is not settled
  // cannot be either.
  for (std::size_t i = hash_scratch_.size(); i-- > 0;)
    if (!settle(hash_scratch_[i])) break;
}

void Network::crash_recipient(PartyId recipient) {
  MH_REQUIRE_MSG(recipient < parties_,
                 "crash for unknown party " + std::to_string(recipient) +
                     " (network has " + std::to_string(parties_) + " parties)");
  std::unique_ptr<RecipientWatermarks>& marks = watermarks_[recipient];
  // Volatile endpoint state is lost: queued deliveries and the coverage that
  // claimed they were scheduled. The all-recipient bound covers this
  // recipient's wiped in-flight messages too, so it must be invalidated —
  // conservatively for everyone, which only costs re-ships. Each live
  // watermark entry counts once.
  std::size_t invalidated = (marks ? marks->sent.size() : 0) + due_all_live_;
  if (hetero_) {
    // One coverage entry per distinct hash scheduled for this recipient.
    const std::vector<std::uint64_t>& words = coverage_[recipient].words;
    for (std::size_t w = 0; w < words.size(); ++w)
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1, ++invalidated)
        --covered_by_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
    coverage_[recipient] = Coverage{};
    ++epoch_;  // every chain-settled mark claimed this coverage
  }
  if (faults_ != nullptr) faults_->stats().watermarks_invalidated += invalidated;
  MH_OBS_COUNT("protocol.faults.watermarks_invalidated", invalidated);
  events_.wipe(recipient);
  marks.reset();
  due_all_.clear();
  due_all_live_ = 0;
}

void Network::resync_ship(const Block& block, PartyId recipient, std::size_t slot) {
  MH_REQUIRE_MSG(recipient < parties_,
                 "re-sync for unknown party " + std::to_string(recipient) +
                     " (network has " + std::to_string(parties_) + " parties)");
  const BlockId id = resolve(block);
  push(recipient, id, slot);
  if (hetero_)
    cover(recipient, id);
  else
    record_recipient(recipient, pooled(id), slot);
  if (faults_ != nullptr) ++faults_->stats().resync_blocks;
  MH_OBS_COUNT("protocol.faults.resync_blocks", 1);
}

void Network::collect_into(PartyId recipient, std::size_t slot, std::vector<BlockId>* out) {
  MH_REQUIRE_MSG(recipient < parties_,
                 "collect for unknown party " + std::to_string(recipient) +
                     " (network has " + std::to_string(parties_) + " parties)");
  out->clear();
  if (!hetero_) {
    expire_watermarks(recipient, slot);
    events_.collect_due(recipient, slot, [&](BlockId id) { out->push_back(id); });
    return;
  }
  // Gossip forwarding: every pop relays to the neighbors not yet scheduled to
  // receive the block. Coverage only stops a second ship to a neighbor that
  // was scheduled one; a pop is not always this recipient's first sight (the
  // adversary re-publishes, and a fault may duplicate a ship), and a neighbor
  // whose earlier ship was dropped in a fault window is still uncovered, so a
  // duplicate pop is the relay retry after a faulted drop. A relay never
  // schedules toward this recipient (every block in its lane is in its
  // coverage, so even a one-party ring's self-loop is deduplicated), and relay
  // dues are >= slot + 1, so the cascade never re-enters this slot's collect.
  now_ = std::max(now_, slot);
  const bool faulted = fault_window(slot);
  events_.collect_due(recipient, slot, [&](BlockId id) {
    out->push_back(id);
    hetero_relay(recipient, id, slot, faulted);
  });
}

void Network::collect_into(PartyId recipient, std::size_t slot, std::vector<Block>* out) {
  collect_into(recipient, slot, &collect_scratch_);
  out->clear();
  if (collect_scratch_.empty()) return;  // no store yet, when unbound
  // Popping pools nothing, so the column stays put.
  const std::span<const Block> pool = store_->pool_blocks();
  for (const BlockId id : collect_scratch_) out->push_back(block(id, pool));
}

}  // namespace mh
