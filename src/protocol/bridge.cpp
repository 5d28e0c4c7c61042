#include "protocol/bridge.hpp"

#include "support/check.hpp"

namespace mh {

ExecutionFork fork_from_blocks(std::span<const Block> blocks) {
  ExecutionFork out;
  out.vertex_of.emplace(genesis_block().hash, kRoot);
  for (const Block& b : blocks) {
    if (b.hash == genesis_block().hash) continue;
    const auto parent = out.vertex_of.find(b.parent);
    MH_REQUIRE_MSG(parent != out.vertex_of.end(), "parent block must precede its child");
    const VertexId v =
        out.fork.add_vertex(parent->second, static_cast<std::uint32_t>(b.slot));
    out.vertex_of.emplace(b.hash, v);
  }
  return out;
}

}  // namespace mh
