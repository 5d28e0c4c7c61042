#include "protocol/node.hpp"

#include <utility>

#include "obs/obs.hpp"
#include "support/check.hpp"

namespace mh {

HonestNode::HonestNode(PartyId id, TieBreak rule, const ScheduleSource* schedule,
                       BlockTree view)
    : id_(id), rule_(rule), schedule_(schedule), tree_(std::move(view)) {
  MH_REQUIRE(schedule != nullptr);
}

// blocks_received is counted (aggregated) by Simulation::deliver_due / step;
// receive() itself only records the rare outcomes.
void HonestNode::receive(const Block& block, std::vector<Block>* accepted) {
  // Signature check; header integrity is the tree's (checked once per pool).
  if (!schedule_->eligible(block.issuer, block.slot)) {
    MH_OBS_COUNT("protocol.node.invalid_dropped", 1);
    return;
  }
  switch (tree_.try_add(block)) {
    case BlockTree::AddResult::Added:
      if (accepted) accepted->push_back(block);
      orphans_.flush(tree_, accepted);
      break;
    case BlockTree::AddResult::Orphan:
      // Parent not yet known: buffer (deduplicated) and retry when ancestors
      // arrive; re-delivery cannot grow the buffer.
      MH_OBS_COUNT("protocol.node.orphans_buffered", 1);
      orphans_.buffer(block);
      break;
    case BlockTree::AddResult::Duplicate:  // already in the view
      break;
    case BlockTree::AddResult::Invalid:  // can never become valid: drop
      MH_OBS_COUNT("protocol.node.invalid_dropped", 1);
      break;
  }
}

BlockHash HonestNode::best_head() const { return tree_.best_head(rule_); }

Block HonestNode::forge(std::size_t slot, std::uint64_t payload) const {
  MH_REQUIRE_MSG(schedule_->eligible(id_, slot), "node is not a leader of this slot");
  return make_block(best_head(), slot, id_, payload);
}

}  // namespace mh
