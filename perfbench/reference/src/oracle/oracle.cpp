#include "oracle/oracle.hpp"

#include <optional>

#include "delta/delta_fork.hpp"
#include "fork/margin.hpp"
#include "fork/validate.hpp"
#include "obs/obs.hpp"
#include "protocol/bridge.hpp"
#include "support/check.hpp"

namespace mh::oracle {

const char* strategy_name(Strategy s) noexcept {
  switch (s) {
    case Strategy::PrivateChain: return "private-chain";
    case Strategy::Balance: return "balance";
    case Strategy::Randomized: return "randomized";
  }
  return "?";
}

char RunVerdict::code() const noexcept {
  if (degraded) {
    if (!recovery_checked) return 'u';
    return dominated() ? 'd' : '!';
  }
  if (!dominated()) return '!';
  if (simulated_violation) return 'V';
  return analytic_allows ? 'a' : '.';
}

std::unique_ptr<Adversary> make_strategy(Strategy strategy, const RunConfig& config,
                                         std::uint64_t seed) {
  switch (strategy) {
    case Strategy::PrivateChain:
      return std::make_unique<PrivateChainAdversary>(config.target_slot, config.k);
    case Strategy::Balance: return std::make_unique<BalanceAttacker>();
    case Strategy::Randomized: return std::make_unique<RandomizedAdversary>(seed);
  }
  return nullptr;
}

RunVerdict check_execution(const RunConfig& config, Rng& rng, const faults::FaultPlan* plan) {
  MH_REQUIRE(config.target_slot >= 1 && config.k >= 1);
  MH_REQUIRE(config.target_slot + config.k <= config.horizon);
  config.law.validate();

  RunVerdict verdict;

  // --- protocol side: one seeded execution under the chosen strategy --------
  const LeaderSchedule schedule =
      LeaderSchedule::from_tetra_law(config.law, config.horizon, config.honest_parties, rng);
  const std::unique_ptr<Adversary> adversary =
      make_strategy(config.strategy, config, rng());
  std::optional<faults::FaultInjector> injector;
  if (plan != nullptr) injector.emplace(*plan, config.honest_parties, config.horizon);
  Simulation sim(schedule, SimulationConfig{config.tie_break, rng()}, config.delta,
                 adversary.get(), injector ? &*injector : nullptr, config.net);
  bool tied = false;
  {
    MH_OBS_TIMER("oracle.phase.simulate");
    sim.watch_settlement(config.target_slot, config.k);
    sim.run_until(config.target_slot + config.k);
    tied = sim.observed_settlement_violation(config.target_slot);
    sim.run_until(config.horizon);
  }
  verdict.simulated_violation =
      tied || sim.settlement_watch_violated(config.target_slot);

  // --- fault audit: realized synchrony decides the projection's Delta ------
  std::size_t project_delta = config.delta;
  std::optional<LeaderSchedule> effective;
  const LeaderSchedule* projected_schedule = &schedule;
  const bool hetero = config.net.heterogeneous();
  if (injector && !hetero) {
    const FaultReport report = sim.fault_report();
    verdict.faulted = true;
    verdict.observed_delta = static_cast<std::uint32_t>(report.observed_delta);
    verdict.delta_unbounded = report.delivery_unbounded;
    verdict.degraded = report.delivery_unbounded || report.observed_delta > config.delta;
    verdict.resync_blocks = static_cast<std::uint32_t>(report.stats.resync_blocks);
    verdict.faults_injected = static_cast<std::uint32_t>(report.stats.injected());
    MH_OBS_COUNT("oracle.faulted_runs", 1);
    MH_OBS_COUNT("protocol.faults.injected", report.stats.injected());
    if (report.leaderships_skipped != 0) {
      // Down leaders forged nothing: the realized block set matches the
      // schedule with those leaderships removed, and the projection must
      // relabel against THAT characteristic string (else F1 fails on honest
      // indices with no vertex).
      effective = injector->effective_schedule(schedule);
      projected_schedule = &*effective;
    }
    if (verdict.degraded) {
      MH_OBS_COUNT("oracle.degraded_runs", 1);
      // Never a silent pass: the run is flagged, then — when a finite
      // observed Delta exists — held to the invariants AT that Delta (the
      // graceful-degradation contract). Unbounded non-delivery admits no
      // finite projection; the flag alone stands ('u').
      if (verdict.delta_unbounded) return verdict;
      project_delta = report.observed_delta;
      verdict.recovery_checked = true;
    }
  }

  // --- network audit: a heterogeneous run is graded at its observed Delta --
  if (hetero) {
    const NetReport net = sim.net_report();
    verdict.heterogeneous = true;
    verdict.observed_delta = static_cast<std::uint32_t>(net.observed_delta);
    MH_OBS_COUNT("oracle.hetero_runs", 1);
    if (injector) {
      // Faults ride along: the injector contributes stats and the effective
      // (leadership-skipped) schedule; the Delta grade itself comes from the
      // NetReport, whose inflation already folds in the fault layer's
      // adoption delays (they share the same counter).
      const FaultReport report = sim.fault_report();
      verdict.faulted = true;
      verdict.resync_blocks = static_cast<std::uint32_t>(report.stats.resync_blocks);
      verdict.faults_injected = static_cast<std::uint32_t>(report.stats.injected());
      MH_OBS_COUNT("oracle.faulted_runs", 1);
      MH_OBS_COUNT("protocol.faults.injected", report.stats.injected());
      if (report.leaderships_skipped != 0) {
        effective = injector->effective_schedule(schedule);
        projected_schedule = &*effective;
      }
    }
    verdict.degraded = net.observed_delta > config.delta;
    if (verdict.degraded) {
      MH_OBS_COUNT("oracle.degraded_runs", 1);
      // The pending-delivery inflation keeps the observed Delta finite on the
      // strongly connected topology set, so every heterogeneous run holds to
      // the invariants AT that Delta — never a silent pass, never 'u'.
      project_delta = net.observed_delta;
      verdict.recovery_checked = true;
    }
  }

  detail::grade_projection(*projected_schedule, project_delta, config.target_slot, config.k,
                           sim.all_blocks(), verdict);
  return verdict;
}

namespace detail {

void grade_projection(const LeaderSchedule& schedule, std::size_t delta,
                      std::size_t target_slot, std::size_t k,
                      const std::vector<Block>& blocks, RunVerdict& verdict) {
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

}  // namespace detail

}  // namespace mh::oracle
