#include "protocol/consensus/leader_select.hpp"

#include <cmath>

#include "engine/seed_sequence.hpp"
#include "support/check.hpp"

namespace mh::consensus {

double phi(double f, double share) {
  MH_REQUIRE_MSG(f > 0.0 && f < 1.0,
                 "active-slot coefficient must lie in (0, 1), got " + std::to_string(f));
  MH_REQUIRE_MSG(share >= 0.0 && share <= 1.0,
                 "relative stake must lie in [0, 1], got " + std::to_string(share));
  return -std::expm1(share * std::log1p(-f));
}

SlotLeaderSelection::SlotLeaderSelection(double f, std::uint64_t root_seed)
    : f_(f), root_seed_(root_seed) {
  MH_REQUIRE_MSG(f > 0.0 && f < 1.0,
                 "active-slot coefficient must lie in (0, 1), got " + std::to_string(f));
}

bool SlotLeaderSelection::eligible(std::uint64_t epoch_nonce, std::size_t slot, PartyId party,
                                   double share) const {
  MH_REQUIRE_MSG(slot >= 1, "slot 0 is genesis and holds no lottery");
  MH_REQUIRE_MSG(slot < (std::size_t{1} << 32),
                 "lottery keys pack the slot into 32 bits, got slot " + std::to_string(slot));
  // One stream per (nonce, slot, party); the single uniform draw below is the
  // simulated VRF output, thresholded at phi(share).
  const engine::SeedSequence streams(root_seed_ ^ epoch_nonce);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(slot) << 32) | static_cast<std::uint64_t>(party);
  Rng rng = streams.stream(key);
  return rng.uniform() < phi(f_, share);
}

SlotLeaders SlotLeaderSelection::draw_slot(std::uint64_t epoch_nonce, std::size_t slot,
                                           const StakeRegistry& registry) const {
  SlotLeaders leaders;
  leaders.adversarial =
      registry.stake(kAdversary) > 0.0 &&
      eligible(epoch_nonce, slot, kAdversary, registry.adversarial_share());
  // A coalition win absorbs the slot (Definition 20: ANY adversarial leader
  // makes the symbol A, and A slots carry no honest vertices through the
  // reduction). Honest co-winners forfeit — their blocks could be simulated
  // by the coalition anyway, so granting the slot to A alone only matches the
  // analysis's pessimism. The induced law agrees: its honest masses are
  // conditioned on the coalition losing.
  if (leaders.adversarial) return leaders;
  for (PartyId p = 0; p < registry.honest_parties(); ++p)
    if (eligible(epoch_nonce, slot, p, registry.share(p))) leaders.honest.push_back(p);
  return leaders;
}

}  // namespace mh::consensus
