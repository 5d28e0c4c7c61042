#include "protocol/block.hpp"

namespace mh {

BlockHash block_hash(BlockHash parent, std::uint64_t slot, PartyId issuer,
                     std::uint64_t payload) {
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv1a_accumulate(h, parent);
  h = fnv1a_accumulate(h, slot);
  h = fnv1a_accumulate(h, issuer);
  h = fnv1a_accumulate(h, payload);
  return h;
}

Block make_block(BlockHash parent, std::uint64_t slot, PartyId issuer, std::uint64_t payload) {
  Block b;
  b.parent = parent;
  b.slot = slot;
  b.issuer = issuer;
  b.payload = payload;
  b.hash = block_hash(parent, slot, issuer, payload);
  return b;
}

const Block& genesis_block() {
  static const Block genesis = make_block(0, 0, 0, 0x67656e65736973ULL /* "genesis" */);
  return genesis;
}

bool verify_block_integrity(const Block& block) {
  return block.hash == block_hash(block.parent, block.slot, block.issuer, block.payload);
}

}  // namespace mh
