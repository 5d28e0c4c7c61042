#include "oracle/oracle.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>

#include "delta/delta_fork.hpp"
#include "delta/reduction.hpp"
#include "fork/margin.hpp"
#include "fork/validate.hpp"
#include "obs/obs.hpp"
#include "protocol/bridge.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace mh::oracle {

namespace {

/// Confidence of the per-epoch Clopper-Pearson frequency bands. Epochs are
/// short (R slots), so the band is an exactness check on the induced law's
/// location, not a power test; it is wide enough that a clean lottery
/// essentially never trips it.
constexpr double kEpochBandConfidence = 0.999999;

consensus::StakeRegistry make_registry(const StakeSpec& stake, std::size_t honest_parties) {
  consensus::StakeRegistry registry =
      stake.honest_stakes.empty()
          ? consensus::StakeRegistry::uniform(honest_parties, stake.adversarial_stake)
          : consensus::StakeRegistry(stake.honest_stakes, stake.adversarial_stake);
  for (const consensus::StakeShiftSpec& spec : stake.shifts) registry.add_shift(spec);
  return registry;
}

/// Grades each materialized epoch's realized symbols against the law its
/// stake snapshot induces.
void grade_epochs(const consensus::EpochSchedule& lottery, const LeaderSchedule& realized,
                  std::size_t delta, RunVerdict& verdict) {
  const TetraString chars = realized.characteristic();
  verdict.epochs.reserve(lottery.materialized_epochs());
  for (std::size_t e = 0; e < lottery.materialized_epochs(); ++e) {
    EpochCell cell;
    cell.epoch = e;
    cell.nonce = lottery.epoch_nonce(e);
    const std::size_t lo = lottery.epochs().epoch_start(e);
    const std::size_t hi = std::min(lottery.epochs().epoch_end(e), lottery.horizon());
    cell.slots = hi - lo + 1;
    for (std::size_t slot = lo; slot <= hi; ++slot)
      ++cell.counts[static_cast<std::size_t>(chars.at(slot))];
    cell.induced = lottery.epoch_induced_law(e);
    cell.reduced = reduced_law(cell.induced, delta);
    const double masses[4] = {cell.induced.pBot, cell.induced.ph, cell.induced.pH,
                              cell.induced.pA};
    cell.law_within_band = true;
    for (std::size_t s = 0; s < 4; ++s) {
      const Proportion band =
          clopper_pearson_interval(cell.counts[s], cell.slots, kEpochBandConfidence);
      if (!(band.lo <= masses[s] && masses[s] <= band.hi)) cell.law_within_band = false;
    }
    verdict.laws_within_band = verdict.laws_within_band && cell.law_within_band;
    verdict.epochs.push_back(cell);
  }
  verdict.all_graded = lottery.materialized_epochs() == lottery.epoch_count();
  MH_OBS_COUNT("oracle.epoch_runs", 1);
  if (!verdict.all_graded) MH_OBS_COUNT("oracle.epoch_ungraded", 1);
}

/// The analytic tail: project `schedule` at `delta` against the target
/// decomposition, run the Theorem-5 recurrence, relabel the execution's
/// block set through the reduction bijection, and fill the verdict's
/// analytic_allows / string_margin / fork_valid / fork_margin /
/// margin_dominated fields.
void grade_reduction(const LeaderSchedule& schedule, std::size_t delta,
                     std::size_t target_slot, std::size_t k, std::span<const Block> blocks,
                     RunVerdict& verdict) {
  // --- analytic side: reduce, decompose, run the Theorem-5 recurrence ------
  const AnalyticProjection view = [&] {
    MH_OBS_TIMER("oracle.phase.project");
    AnalyticProjection v = project_schedule(schedule, delta, target_slot);
    // The margin trajectory covers every observation with at least one reduced
    // suffix symbol; when the whole confirmation window is empty the first
    // observation sees x' alone, and the allowance is the distinct-balance
    // condition on x' (Fact 6 at every divergence point).
    verdict.analytic_allows =
        margin_allows_violation(v) ||
        (empty_observation_window(v, k) && prefix_admits_distinct_balance(v));
    verdict.string_margin = v.margin.back();  // mu_{x'}(y') over the full suffix
    return v;
  }();

  // --- refinement: the execution relabels into a valid fork for w' ---------
  const Fork projected = [&] {
    MH_OBS_TIMER("oracle.phase.validate");
    const ExecutionFork execution = fork_from_blocks(blocks);
    Fork p = project_to_synchronous(execution.fork, view.reduction.inverse);
    verdict.fork_valid = validate_fork(p, view.reduction.reduced).ok;
    return p;
  }();
  {
    MH_OBS_TIMER("oracle.phase.reduce");
    verdict.fork_margin =
        relative_margin(projected, view.reduction.reduced, view.x_len);
    verdict.margin_dominated = verdict.fork_margin <= verdict.string_margin;
  }
}

}  // namespace

char RunVerdict::code() const noexcept {
  if (!all_graded) return 'u';
  if (!laws_within_band) return '!';
  if (degraded) {
    if (!recovery_checked) return 'u';
    return dominated() ? 'd' : '!';
  }
  if (!dominated()) return '!';
  if (simulated_violation) return 'V';
  return analytic_allows ? 'a' : '.';
}

RunVerdict check_execution(const RunConfig& config, Rng& rng) {
  MH_REQUIRE(config.target_slot >= 1 && config.k >= 1);
  MH_REQUIRE(config.target_slot + config.k <= config.horizon);
  if (config.stake) config.stake->consensus.validate();
  else config.law.validate();

  RunVerdict verdict;

  // --- protocol side: one seeded execution under the chosen strategy --------
  // `schedule` is the pre-drawn schedule, or — for the lottery, which reveals
  // its slots as the run reaches them — the realized draws once the run ends.
  std::optional<consensus::EpochSchedule> lottery;
  std::optional<LeaderSchedule> schedule;
  if (config.stake)
    lottery.emplace(config.stake->consensus, make_registry(*config.stake, config.honest_parties),
                    config.horizon, rng());
  else
    schedule = LeaderSchedule::from_tetra_law(config.law, config.horizon,
                                              config.honest_parties, rng);
  const ScheduleSource& source =
      lottery ? static_cast<const ScheduleSource&>(*lottery) : *schedule;
  const std::unique_ptr<Adversary> adversary =
      make_strategy(config.strategy, config.target_slot, config.k, rng());
  std::optional<faults::FaultInjector> injector;
  if (config.faults) injector.emplace(*config.faults, source.honest_parties(), config.horizon);
  Simulation sim(source, SimulationConfig{config.tie_break, rng()}, config.delta,
                 adversary.get(), injector ? &*injector : nullptr, config.net);
  {
    MH_OBS_TIMER("oracle.phase.simulate");
    verdict.simulated_violation = sim.play_settlement_game(config.target_slot, config.k);
  }
  if (lottery) {
    schedule = lottery->realized();
    grade_epochs(*lottery, *schedule, config.delta, verdict);
  }

  // --- audit: realized synchrony decides the projection's Delta ------------
  std::optional<LeaderSchedule> effective;
  if (injector) {
    const FaultReport report = sim.fault_report();
    verdict.faulted = true;
    verdict.observed_delta = static_cast<std::uint32_t>(report.observed_delta);
    verdict.delta_unbounded = report.delivery_unbounded;
    verdict.resync_blocks = static_cast<std::uint32_t>(report.stats.resync_blocks);
    verdict.faults_injected = static_cast<std::uint32_t>(report.stats.injected());
    MH_OBS_COUNT("oracle.faulted_runs", 1);
    MH_OBS_COUNT("protocol.faults.injected", report.stats.injected());
    // Down leaders forged nothing: the realized block set matches the
    // schedule with those leaderships removed, and the projection must
    // relabel against THAT characteristic string (else F1 fails on honest
    // indices with no vertex).
    if (report.leaderships_skipped != 0) effective = injector->effective_schedule(*schedule);
  }
  if (config.net.heterogeneous()) {
    // The NetReport's observed Delta already folds in the fault layer's
    // adoption delays (they share one counter), and its pending-delivery
    // inflation keeps it finite on the strongly connected topology set.
    verdict.heterogeneous = true;
    verdict.observed_delta = static_cast<std::uint32_t>(sim.net_report().observed_delta);
    MH_OBS_COUNT("oracle.hetero_runs", 1);
  }
  std::size_t project_delta = config.delta;
  verdict.degraded = verdict.delta_unbounded || verdict.observed_delta > config.delta;
  if (verdict.degraded) {
    MH_OBS_COUNT("oracle.degraded_runs", 1);
    // Never a silent pass: the run is flagged, then — when a finite observed
    // Delta exists — held to the invariants AT that Delta (the graceful-
    // degradation contract). Unbounded non-delivery admits no finite
    // projection; the flag alone stands ('u').
    if (verdict.delta_unbounded) return verdict;
    project_delta = verdict.observed_delta;
    verdict.recovery_checked = true;
  }

  grade_reduction(effective ? *effective : *schedule, project_delta, config.target_slot,
                  config.k, sim.all_blocks(), verdict);
  return verdict;
}

}  // namespace mh::oracle
