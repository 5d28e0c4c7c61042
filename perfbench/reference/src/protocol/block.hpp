// Blocks of the simulated PoS protocol. The paper's abstraction requires two
// substrate guarantees, both provided here:
//   * immutability: each block commits to its whole prefix via a header hash
//     over (parent, slot, issuer, payload);
//   * issuance authenticity ("digital signatures"): a block claiming slot t
//     and issuer p is accepted only if the leader schedule actually elected p
//     in slot t (checked by BlockTree/HonestNode against the schedule).
#pragma once

#include <cstdint>

namespace mh {

using BlockHash = std::uint64_t;
using PartyId = std::uint32_t;

/// The adversary is modeled as a single coalition party.
inline constexpr PartyId kAdversary = 0xffffffffu;

struct Block {
  BlockHash hash = 0;
  BlockHash parent = 0;
  std::uint64_t slot = 0;
  PartyId issuer = 0;
  std::uint64_t payload = 0;  ///< digest of the (simulated) transaction batch

  friend bool operator==(const Block&, const Block&) = default;
};

/// FNV-1a building blocks, shared by the header hash below and by digest
/// folds over block streams (e.g. the transport seed pins).
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

constexpr std::uint64_t fnv1a_accumulate(std::uint64_t state, std::uint64_t word) {
  constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
  for (int byte = 0; byte < 8; ++byte) {
    state ^= (word >> (8 * byte)) & 0xffu;
    state *= kFnvPrime;
  }
  return state;
}

/// FNV-1a over the header fields; collision-free for our purposes and cheap.
BlockHash block_hash(BlockHash parent, std::uint64_t slot, PartyId issuer,
                     std::uint64_t payload);

/// Builds a block with its hash filled in.
Block make_block(BlockHash parent, std::uint64_t slot, PartyId issuer, std::uint64_t payload);

/// The genesis block: slot 0, all-zero parent, fixed hash.
const Block& genesis_block();

/// Recomputes the header hash and compares (detects tampering).
bool verify_block_integrity(const Block& block);

}  // namespace mh
