// An honest protocol participant: collects valid blocks, follows the
// longest-chain rule under its tie-breaking regime, and forges exactly one
// block whenever the schedule elects it.
#pragma once

#include "protocol/blocktree.hpp"
#include "protocol/leader.hpp"

namespace mh {

class HonestNode {
 public:
  /// `view` is the node's initially genesis-only tree; a simulation passes a
  /// view of its block pool, a standalone node owns a private pool.
  HonestNode(PartyId id, TieBreak rule, const ScheduleSource* schedule,
             BlockTree view = BlockTree());

  [[nodiscard]] PartyId id() const noexcept { return id_; }

  /// Validates issuance against the schedule (the "signature check") and adds
  /// the block to the local view, whose try_add checks header integrity.
  /// Blocks whose parents are unknown are buffered (deduplicated) and retried
  /// when an ancestor arrives; blocks the tree reports permanently invalid
  /// are dropped, never buffered. The pool id of every block newly admitted
  /// to the view — the delivered one and any orphans it unblocked, in
  /// acceptance order (parents first) — is appended to `*accepted` when
  /// non-null, so callers can mirror the node's view. A copy of a pooled
  /// block is admitted by its id (the tree's try_add delegates).
  void receive(const Block& block, std::vector<std::uint32_t>* accepted = nullptr);

  /// `receive` of the pooled block `id` (a pool id of this node's view): the
  /// eligibility check reads the pool column, and admission is the tree's
  /// try_add(id), with no hash lookup and no Block copy. Throws
  /// std::invalid_argument if `id` is not a pool id.
  void receive(std::uint32_t id, std::vector<std::uint32_t>* accepted = nullptr);

  /// Current longest-chain head under this node's tie-break rule.
  [[nodiscard]] BlockHash best_head() const;
  [[nodiscard]] std::size_t best_length() const { return tree_.best_length(); }

  /// Forge the slot's block on top of the current best chain.
  [[nodiscard]] Block forge(std::size_t slot, std::uint64_t payload) const;

  [[nodiscard]] const BlockTree& tree() const noexcept { return tree_; }
  /// Parent-unknown blocks currently waiting for their ancestry.
  [[nodiscard]] std::size_t buffered_orphans() const noexcept { return orphans_.size(); }

  /// Has this node seen the block at all — admitted to the view OR buffered
  /// as an orphan?
  [[nodiscard]] bool knows(BlockHash hash) const {
    return tree_.contains(hash) || orphans_.contains(hash);
  }

  /// Crash: the orphan buffer is volatile and is lost; the block tree is the
  /// node's persisted state and survives. The restart path is crash() + the
  /// transport's re-sync shipping the missing public suffix ancestors-first,
  /// which receive() drains like any delivery.
  void crash() noexcept { orphans_.clear(); }

 private:
  /// Both receives: check `block`'s eligibility, admit it by pool `id`
  /// (try_add(const Block&) when kNoId), then report and flush on Added,
  /// buffer on Orphan, count a drop on Invalid.
  void admit(const Block& block, std::uint32_t id, std::vector<std::uint32_t>* accepted);

  PartyId id_;
  TieBreak rule_;
  const ScheduleSource* schedule_;
  BlockTree tree_;
  OrphanBuffer orphans_;
};

}  // namespace mh
