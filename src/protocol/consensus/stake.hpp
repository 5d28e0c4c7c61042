// The stakeholder registry of the epoch-managed consensus layer: per-party
// stake weights (honest parties 0..n-1 plus the single adversarial coalition)
// and their declarative epoch-boundary redistribution.
//
// Stake is *absolute weight*; relative stake — what the lottery's
// phi(stake) = 1 - (1-f)^stake consumes — is weight / total. Redistribution
// is declared up front as StakeShiftSpecs ("entering epoch e, party p's
// weight becomes w") and applied when the registry advances across the
// boundary, so a whole shifting-stake scenario is a pure value: two runs with
// the same specs see bit-identical stake trajectories.
#pragma once

#include <cstddef>
#include <vector>

#include "protocol/block.hpp"

namespace mh::consensus {

/// One declarative redistribution event: entering `epoch`, `party`'s absolute
/// stake weight becomes `stake`. `party == kAdversary` re-weights the
/// coalition (the adaptive-corruption axis: honest weight sold to the
/// adversary at an epoch boundary is two specs, one down and one up).
struct StakeShiftSpec {
  std::size_t epoch = 0;
  PartyId party = 0;
  double stake = 0.0;

  friend bool operator==(const StakeShiftSpec&, const StakeShiftSpec&) = default;
};

class StakeRegistry {
 public:
  /// `honest_stakes[p]` is party p's initial weight; weights are >= 0, finite,
  /// and must keep a positive honest total (a chain no honest party can ever
  /// extend is not an execution).
  StakeRegistry(std::vector<double> honest_stakes, double adversarial_stake);

  /// Equal weights: every honest party at (1 - adversarial_stake) / n, the
  /// coalition at adversarial_stake — the parameterization of
  /// LeaderSchedule::praos_induced_law.
  static StakeRegistry uniform(std::size_t honest_parties, double adversarial_stake);

  /// Register a redistribution; specs may arrive in any order and several may
  /// share an epoch (applied in registration order within the boundary).
  void add_shift(const StakeShiftSpec& spec);

  /// Cross boundaries up to and including `epoch`, applying every registered
  /// spec with spec.epoch <= epoch. Epochs never rewind.
  void advance_to_epoch(std::size_t epoch);

  [[nodiscard]] std::size_t honest_parties() const noexcept { return honest_.size(); }
  [[nodiscard]] std::size_t current_epoch() const noexcept { return epoch_; }

  /// Absolute weight of `party` (kAdversary for the coalition).
  [[nodiscard]] double stake(PartyId party) const;
  [[nodiscard]] double total_stake() const noexcept { return total_; }

  /// Relative stake: weight / total (the lottery's phi argument).
  [[nodiscard]] double share(PartyId party) const;
  [[nodiscard]] double adversarial_share() const noexcept;
  [[nodiscard]] std::vector<double> honest_shares() const;

  [[nodiscard]] const std::vector<StakeShiftSpec>& shifts() const noexcept { return shifts_; }

 private:
  void recompute_total();

  std::vector<double> honest_;
  double adversarial_ = 0.0;
  double total_ = 0.0;
  std::vector<StakeShiftSpec> shifts_;  ///< registration order; filtered by epoch
  std::size_t epoch_ = 0;
  bool started_ = false;  ///< advance_to_epoch(0) applies epoch-0 specs once
};

}  // namespace mh::consensus
