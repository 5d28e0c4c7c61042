// Shared experiment drivers for the protocol-level benches: run many seeded
// executions and measure observed consistency violations.
#pragma once

#include <cstddef>

#include "protocol/adversary.hpp"
#include "protocol/simulation.hpp"
#include "support/stats.hpp"

namespace mh {

struct ProtocolExperimentConfig {
  std::size_t honest_parties = 8;
  std::size_t horizon = 200;
  std::size_t delta = 0;
  TieBreak tie_break = TieBreak::AdversarialOrder;
  std::size_t runs = 200;
  std::uint64_t seed = 7;
  /// Worker threads for the sharded engine (one seeded execution per task);
  /// 0 = hardware concurrency. Results are independent of this knob.
  std::size_t threads = 0;
};

struct ProtocolExperimentResult {
  Proportion settlement_violations;  ///< slot-s violations observed at s + k
  Proportion cp_violations;          ///< k-CP^slot breaches at the horizon
  double mean_slot_divergence = 0.0;
  double mean_chain_length = 0.0;
};

/// Runs `runs` seeded executions with the given leader-election law; measures
/// whether slot `target_slot` is violated at observation time target_slot + k
/// and whether the final views breach k-CP^slot.
ProtocolExperimentResult run_protocol_experiment(const SymbolLaw& law, Strategy attack,
                                                 std::size_t target_slot, std::size_t k,
                                                 const ProtocolExperimentConfig& config);

/// Semi-synchronous variant driven by a TetraLaw and network delay Delta.
ProtocolExperimentResult run_protocol_experiment_delta(const TetraLaw& law, Strategy attack,
                                                       std::size_t target_slot, std::size_t k,
                                                       const ProtocolExperimentConfig& config);

}  // namespace mh
