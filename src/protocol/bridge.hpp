// The execution -> fork bridge: every protocol execution maps onto the
// abstract fork framework, which is how the combinatorial analysis applies to
// the simulator. Tests validate that honest executions always satisfy the
// fork axioms (F1)-(F4) / (F4_Delta) for their characteristic strings.
#pragma once

#include <span>
#include <unordered_map>

#include "fork/fork.hpp"
#include "protocol/block.hpp"

namespace mh {

struct ExecutionFork {
  Fork fork;
  std::unordered_map<BlockHash, VertexId> vertex_of;
};

/// Builds the fork of an execution from its block set (parents must precede
/// children, which creation order guarantees). Blocks label vertices with
/// their slots; genesis is the root.
ExecutionFork fork_from_blocks(std::span<const Block> blocks);

}  // namespace mh
