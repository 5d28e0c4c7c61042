#include "oracle/epoch.hpp"

#include <algorithm>

#include "delta/reduction.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace mh::oracle {

namespace {

bool mass_within_band(std::size_t successes, std::size_t trials, double mass,
                      double confidence) {
  const Proportion band = clopper_pearson_interval(successes, trials, confidence);
  return band.lo <= mass && mass <= band.hi;
}

}  // namespace

EpochVerdict check_epoch_execution(const EpochRunConfig& config, Rng& rng) {
  MH_REQUIRE(config.target_slot >= 1 && config.k >= 1);
  MH_REQUIRE(config.target_slot + config.k <= config.horizon);
  config.consensus.validate();
  MH_REQUIRE_MSG(config.band_confidence > 0.0 && config.band_confidence < 1.0,
                 "band confidence must lie in (0, 1)");

  consensus::StakeRegistry registry =
      config.honest_stakes.empty()
          ? consensus::StakeRegistry::uniform(config.honest_parties, config.adversarial_stake)
          : consensus::StakeRegistry(config.honest_stakes, config.adversarial_stake);
  for (const consensus::StakeShiftSpec& spec : config.shifts) registry.add_shift(spec);

  EpochVerdict verdict;

  // --- protocol side: one seeded epoch-managed execution -------------------
  // Draw order mirrors check_execution (schedule seed, strategy seed, sim
  // seed), so the two oracle faces stay stream-compatible cell for cell.
  const consensus::EpochSchedule schedule(config.consensus, std::move(registry),
                                          config.horizon, rng());
  RunConfig proxy;  // make_strategy reads only the attack geometry
  proxy.target_slot = config.target_slot;
  proxy.k = config.k;
  const std::unique_ptr<Adversary> adversary = make_strategy(config.strategy, proxy, rng());
  Simulation sim(schedule, SimulationConfig{config.tie_break, rng()}, config.delta,
                 adversary.get());
  bool tied = false;
  {
    MH_OBS_TIMER("oracle.phase.simulate");
    sim.watch_settlement(config.target_slot, config.k);
    sim.run_until(config.target_slot + config.k);
    tied = sim.observed_settlement_violation(config.target_slot);
    sim.run_until(config.horizon);
  }
  verdict.run.simulated_violation = tied || sim.settlement_watch_violated(config.target_slot);

  // --- global grade: the realized schedule through the shared analytic tail
  // (the run materialized every epoch, so realized() covers the horizon).
  const LeaderSchedule realized = schedule.realized();
  detail::grade_projection(realized, config.delta, config.target_slot, config.k,
                           sim.all_blocks(), verdict.run);

  // --- per-epoch grade: realized frequencies vs the stake-induced law ------
  const TetraString chars = realized.characteristic();
  verdict.cells.reserve(schedule.materialized_epochs());
  for (std::size_t e = 0; e < schedule.materialized_epochs(); ++e) {
    EpochCell cell;
    cell.epoch = e;
    cell.nonce = schedule.epoch_nonce(e);
    const std::size_t lo = schedule.epochs().epoch_start(e);
    const std::size_t hi = std::min(schedule.epochs().epoch_end(e), config.horizon);
    cell.slots = hi - lo + 1;
    for (std::size_t slot = lo; slot <= hi; ++slot)
      ++cell.counts[static_cast<std::size_t>(chars.at(slot))];
    cell.induced = schedule.epoch_induced_law(e);
    cell.reduced = reduced_law(cell.induced, config.delta);
    const double masses[4] = {cell.induced.pBot, cell.induced.ph, cell.induced.pH,
                              cell.induced.pA};
    cell.law_within_band = true;
    for (std::size_t s = 0; s < 4; ++s)
      if (!mass_within_band(cell.counts[s], cell.slots, masses[s], config.band_confidence))
        cell.law_within_band = false;
    cell.graded = true;
    verdict.laws_within_band = verdict.laws_within_band && cell.law_within_band;
    verdict.cells.push_back(cell);
  }
  verdict.all_graded = schedule.materialized_epochs() == schedule.epoch_count();
  MH_OBS_COUNT("oracle.epoch_runs", 1);
  if (!verdict.all_graded) MH_OBS_COUNT("oracle.epoch_ungraded", 1);
  return verdict;
}

}  // namespace mh::oracle
