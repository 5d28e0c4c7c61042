#include "sim/experiments.hpp"

#include <memory>

#include "engine/engine.hpp"
#include "support/check.hpp"

namespace mh {

namespace {

/// Per-shard tally of the experiment outcomes; merged in chunk order.
struct RunTally {
  std::size_t settlement_hits = 0;
  std::size_t cp_hits = 0;
  RunningStats divergence;
  RunningStats chain_length;

  void merge(const RunTally& other) {
    settlement_hits += other.settlement_hits;
    cp_hits += other.cp_hits;
    divergence.merge(other.divergence);
    chain_length.merge(other.chain_length);
  }
};

template <typename ScheduleFactory>
ProtocolExperimentResult run_impl(ScheduleFactory&& make_schedule, Strategy attack,
                                  std::size_t target_slot, std::size_t k,
                                  const ProtocolExperimentConfig& config) {
  MH_REQUIRE(target_slot + k <= config.horizon);
  engine::EngineOptions eopt;
  eopt.threads = config.threads;
  eopt.seed = config.seed;
  eopt.chunk_size = 1;  // whole executions are heavy; schedule them one by one

  const RunTally tally = engine::run_sharded<RunTally>(
      config.runs, eopt, [&](std::uint64_t /*run*/, Rng& rng, RunTally& partial) {
        const LeaderSchedule schedule = make_schedule(rng);
        // Only the randomized strategy draws a seed, so the scripted attacks
        // keep their (schedule, simulation) draw order.
        const std::uint64_t adversary_seed = attack == Strategy::Randomized ? rng() : 0;
        const std::unique_ptr<Adversary> adversary =
            make_strategy(attack, target_slot, k, adversary_seed);
        SimulationConfig sim_config{config.tie_break, rng()};
        Simulation sim(schedule, sim_config, config.delta, adversary.get());

        if (sim.play_settlement_game(target_slot, k)) ++partial.settlement_hits;
        if (sim.observed_cp_slot_violation(k)) ++partial.cp_hits;
        partial.divergence.add(static_cast<double>(sim.observed_slot_divergence()));
        std::size_t best = 0;
        for (const HonestNode& node : sim.nodes())
          best = std::max(best, node.best_length());
        partial.chain_length.add(static_cast<double>(best));
      });

  ProtocolExperimentResult result;
  result.settlement_violations = wilson_interval(tally.settlement_hits, config.runs);
  result.cp_violations = wilson_interval(tally.cp_hits, config.runs);
  result.mean_slot_divergence = tally.divergence.mean();
  result.mean_chain_length = tally.chain_length.mean();
  return result;
}

}  // namespace

ProtocolExperimentResult run_protocol_experiment(const SymbolLaw& law, Strategy attack,
                                                 std::size_t target_slot, std::size_t k,
                                                 const ProtocolExperimentConfig& config) {
  return run_impl(
      [&](Rng& rng) {
        return LeaderSchedule::from_symbol_law(law, config.horizon, config.honest_parties, rng);
      },
      attack, target_slot, k, config);
}

ProtocolExperimentResult run_protocol_experiment_delta(const TetraLaw& law, Strategy attack,
                                                       std::size_t target_slot, std::size_t k,
                                                       const ProtocolExperimentConfig& config) {
  return run_impl(
      [&](Rng& rng) {
        return LeaderSchedule::from_tetra_law(law, config.horizon, config.honest_parties, rng);
      },
      attack, target_slot, k, config);
}

}  // namespace mh
