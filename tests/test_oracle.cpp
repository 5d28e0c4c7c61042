// The differential consistency oracle: protocol executions against the
// analytic fork-theoretic stack on the same leader schedules.
//
// The headline test runs the full 36-cell scenario matrix
// {A0, A0'} x {Delta in 0,1,2} x {3 adversary strategies} x {2 stake laws}
// and asserts the paper's domination invariants on every execution: no
// simulated adversary violates k-settlement on a string whose analytic margin
// forbids it, every execution relabels into a valid fork for its reduced
// string, no fork margin exceeds the Theorem-5 recurrence, and the empirical
// frequencies stay within Clopper-Pearson bands of the exact DP values.
// A composed band grades the stake lottery, a fault plan and a gossip
// network in one execution.
#include "oracle/scenario.hpp"

#include <gtest/gtest.h>

#include "core/relative_margin.hpp"
#include "engine/seed_sequence.hpp"
#include "engine/thread_pool.hpp"
#include "fork/enumerate.hpp"
#include "fork_fixtures.hpp"

namespace mh {
namespace {

using oracle::MatrixConfig;
using oracle::MatrixResult;
using oracle::RunConfig;
using oracle::RunVerdict;

MatrixConfig small_matrix(std::size_t runs, std::size_t threads = 0) {
  MatrixConfig config;
  config.runs = runs;
  config.mc_samples = 1500;
  config.threads = threads;
  return config;
}

/// The 24-run default matrix, computed once: it is a pure function of the
/// config, and both the invariant sweep and the Theorem-2 cell assertions
/// read from it.
const MatrixResult& default_matrix_result() {
  static const MatrixResult result = oracle::run_scenario_matrix(small_matrix(24));
  return result;
}

// ---------------------------------------------------------------------------
// Projection: schedule -> reduced characteristic string -> margin trajectory
// ---------------------------------------------------------------------------

TEST(OracleProjection, SynchronousScheduleProjectsToItsCharString) {
  Rng rng(11);
  const LeaderSchedule schedule = fixtures::schedule_from_text("hAhHAh", 4, rng);
  const auto view = oracle::project_schedule(schedule, 0, 3);
  EXPECT_EQ(view.reduction.reduced.to_string(), "hAhHAh");
  EXPECT_EQ(view.x_len, 2u);  // slots 1..2 precede the target
  // The trajectory is exactly the Theorem-5 recurrence on w = x y.
  const CharString w = CharString::parse("hAhHAh");
  ASSERT_EQ(view.margin.size(), w.size() - 2 + 1);
  for (std::size_t j = 0; j < view.margin.size(); ++j)
    EXPECT_EQ(view.margin[j], relative_margin_recurrence(w.prefix(2 + j), 2)) << "j=" << j;
}

TEST(OracleProjection, DeltaReductionShiftsTheDecompositionPoint) {
  // Tetra string with empty slots: "h..A.h" at Delta=1. Slot 1 is honest with
  // no honest slot in the next Delta slots, so it survives as h; slots 2,3,5
  // are empty; the reduction keeps 3 positions (h, A, h).
  std::vector<SlotLeaders> slots(6);
  slots[0].honest = {0};
  slots[3].adversarial = true;
  slots[5].honest = {1};
  const LeaderSchedule schedule(std::move(slots), 3);
  const auto view = oracle::project_schedule(schedule, 1, 5);
  EXPECT_EQ(view.raw.to_string(), "h..A.h");
  EXPECT_EQ(view.reduction.reduced.size(), 3u);
  // Non-empty slots before slot 5: slots 1 and 4 -> reduced positions 1, 2.
  EXPECT_EQ(view.x_len, 2u);
}

TEST(OracleProjection, MarginForbiddenWindowIsDetected) {
  // Pure-h string from the target onward: margin drops below zero immediately
  // and never recovers, so the analytic side forbids every violation.
  Rng rng(12);
  const LeaderSchedule schedule = fixtures::schedule_from_text("hhhhhhhhhh", 4, rng);
  const auto view = oracle::project_schedule(schedule, 0, 1);
  EXPECT_FALSE(oracle::margin_allows_violation(view));
  // An all-A tail keeps the margin at rho >= 0: violations are permitted.
  const LeaderSchedule hostile = fixtures::schedule_from_text("hAAAAA", 4, rng);
  EXPECT_TRUE(oracle::margin_allows_violation(oracle::project_schedule(hostile, 0, 1)));
}

TEST(OracleProjection, DistinctBalanceMatchesForkEnumeration) {
  // The empty-window allowance (two distinct maximum-length tines achievable
  // within x' alone) against the exhaustive fork oracle, for every string of
  // length <= 5. This is the Fact-6-at-every-divergence-point claim the
  // boundary case of check_execution rests on.
  for (std::size_t n = 0; n <= 5; ++n) {
    fixtures::for_each_char_string(n, [&](const std::vector<Symbol>& symbols) {
      const CharString u{std::vector<Symbol>(symbols)};
      EnumerationOptions options;
      options.closed_only = false;  // the twin witness may be an adversarial leaf
      options.max_adversarial_per_slot = 2;
      options.max_visits = 60'000'000;
      bool achievable = false;
      enumerate_forks(u, options, [&](const Fork& fork) {
        if (fork.longest_tines().size() >= 2) achievable = true;
      });
      EXPECT_EQ(oracle::admits_distinct_balance(u), achievable) << u.to_string();
    });
  }
}

// ---------------------------------------------------------------------------
// Single executions against hand-picked schedules
// ---------------------------------------------------------------------------

TEST(OracleRun, EveryStrategyIsDominatedOnHonestMajoritySchedules) {
  RunConfig rc;
  rc.law = theorem7_law(1.0, 0.1, 0.5);  // dense, honest-majority
  rc.horizon = 40;
  for (const Strategy strategy :
       {Strategy::PrivateChain, Strategy::Balance, Strategy::Randomized}) {
    rc.strategy = strategy;
    for (const TieBreak tie : {TieBreak::AdversarialOrder, TieBreak::ConsistentHash}) {
      rc.tie_break = tie;
      engine::SeedSequence streams(123);
      for (std::size_t r = 0; r < 12; ++r) {
        Rng rng = streams.stream(r);
        const RunVerdict v = oracle::check_execution(rc, rng);
        EXPECT_TRUE(v.dominated())
            << strategy_name(strategy) << " run " << r << " code " << v.code();
        EXPECT_LE(v.fork_margin, v.string_margin);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Composed axes: the stake lottery under faults on a gossip network
// ---------------------------------------------------------------------------

/// The shifted-stake cell of the consensus suite, on a random-k gossip net
/// with geometric latency; each run adds a Mixed fault plan drawn from a
/// stream disjoint from the execution's.
RunConfig composed_run_config(std::size_t run) {
  RunConfig rc;
  rc.stake.emplace();
  rc.stake->consensus.f = 0.5;
  rc.stake->consensus.epoch.epoch_length = 32;
  rc.stake->adversarial_stake = 0.25;
  rc.stake->shifts = {{1, 0, 0.0625}, {1, kAdversary, 0.3125}};
  rc.honest_parties = 6;
  rc.horizon = 96;
  rc.delta = 2;
  rc.strategy = Strategy::Randomized;
  rc.net.topology = net::TopologyKind::RandomK;
  rc.net.k = 2;
  rc.net.latency = {net::LatencyKind::Geometric, 0, 3, 0.3};
  Rng plan_rng = engine::SeedSequence(0xc0ffee).stream(run);
  rc.faults = faults::sample_fault_plan(faults::FaultProfile::Mixed, rc.honest_parties,
                                        rc.horizon, rc.delta, plan_rng);
  return rc;
}

TEST(ComposedOracle, StakeFaultsAndGossipGradeTogether) {
  constexpr std::size_t kRuns = 16;
  const auto sweep = [&](std::size_t threads) {
    std::vector<RunVerdict> verdicts(kRuns);
    const engine::SeedSequence streams(1414);
    engine::for_each_index(kRuns, threads, [&](std::size_t i) {
      Rng rng = streams.stream(i);
      verdicts[i] = oracle::check_execution(composed_run_config(i), rng);
    });
    return verdicts;
  };
  const std::vector<RunVerdict> serial = sweep(1);
  std::size_t injected = 0;
  for (std::size_t i = 0; i < kRuns; ++i) {
    const RunVerdict& v = serial[i];
    // A heterogeneous run is never unbounded, and every epoch is graded.
    EXPECT_NE(v.code(), '!') << "run " << i;
    EXPECT_NE(v.code(), 'u') << "run " << i;
    EXPECT_TRUE(v.faulted && v.heterogeneous);
    EXPECT_TRUE(v.all_graded);
    EXPECT_EQ(v.epochs.size(), 3u);
    if (v.degraded) EXPECT_TRUE(v.recovery_checked);
    injected += v.faults_injected;
  }
  EXPECT_GT(injected, 0u);  // the plans perturbed something
  EXPECT_EQ(sweep(2), serial);
  EXPECT_EQ(sweep(8), serial);
}

// ---------------------------------------------------------------------------
// The scenario matrix (the acceptance surface of the oracle)
// ---------------------------------------------------------------------------

TEST(ScenarioMatrix, ThirtySixCellsZeroDominationViolations) {
  const MatrixResult& result = default_matrix_result();
  ASSERT_GE(result.cells.size(), 36u);

  EXPECT_EQ(result.total_domination_failures(), 0u);
  EXPECT_EQ(result.total_fork_invalid(), 0u);
  EXPECT_EQ(result.total_margin_breaches(), 0u);
  EXPECT_TRUE(result.all_clean());
  for (const auto& cell : result.cells) {
    EXPECT_TRUE(cell.mc_within_band) << "cell law " << cell.law_index;
    EXPECT_TRUE(cell.protocol_within_ceiling) << "cell law " << cell.law_index;
    // Per-cell corollary of per-run domination: the protocol can never beat
    // the analytic allowance count.
    EXPECT_LE(cell.simulated_violations, cell.analytic_allowed);
  }
  // The matrix is not vacuous: adversaries do succeed somewhere...
  EXPECT_GT(result.total_violations(), 0u);
  // ...and margin-forbidden strings occur (cells where not every run allows).
  bool some_forbidden = false;
  for (const auto& cell : result.cells)
    if (cell.analytic_allowed < cell.runs) some_forbidden = true;
  EXPECT_TRUE(some_forbidden);
}

TEST(ScenarioMatrix, VerdictsBitIdenticalAcrossThreadCounts) {
  const MatrixResult serial = oracle::run_scenario_matrix(small_matrix(10, 1));
  for (const std::size_t threads : {2u, 8u}) {
    const MatrixResult parallel = oracle::run_scenario_matrix(small_matrix(10, threads));
    ASSERT_EQ(parallel.cells.size(), serial.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i)
      EXPECT_TRUE(parallel.cells[i] == serial.cells[i]) << "cell " << i << ", threads "
                                                        << threads;
  }
}

TEST(ScenarioMatrix, Theorem2SeparationOnMultiplyHonestHeavyLaw) {
  // The paper's Theorem-2 mechanism, cell-resolved: on the mh-heavy law
  // (pH = 0.9, no adversarial stake) the BalanceAttacker splits concurrent
  // honest leaders under adversarial tie-breaking (A0) and violates
  // settlement, while consistent tie-breaking (A0') removes that lever
  // entirely - same law, same seeds, zero violations.
  const MatrixConfig config = small_matrix(24);  // index geometry only
  const MatrixResult& result = default_matrix_result();

  const std::size_t mh_heavy = 1;  // default_matrix_laws() order
  const std::size_t balance = 1;   // strategies order
  const std::size_t adversarial_order = 0, consistent_hash = 1, delta0 = 0;
  const auto& split_cell =
      result.cells[cell_index(config, adversarial_order, delta0, balance, mh_heavy)];
  const auto& held_cell =
      result.cells[cell_index(config, consistent_hash, delta0, balance, mh_heavy)];

  ASSERT_EQ(split_cell.tie_break, TieBreak::AdversarialOrder);
  ASSERT_EQ(held_cell.tie_break, TieBreak::ConsistentHash);
  ASSERT_EQ(split_cell.strategy, Strategy::Balance);

  EXPECT_GT(split_cell.simulated_violations, 0u);
  EXPECT_EQ(held_cell.simulated_violations, 0u);
  // The analytic (A0) margin agrees that the violations were permitted.
  EXPECT_GE(split_cell.analytic_allowed, split_cell.simulated_violations);
}

TEST(ScenarioMatrix, FirstRunCodesExposeOneCharPerCell) {
  const MatrixResult result = oracle::run_scenario_matrix(small_matrix(2));
  const std::string codes = first_run_codes(result);
  ASSERT_EQ(codes.size(), result.cells.size());
  for (char c : codes) EXPECT_NE(c, '!');
}

}  // namespace
}  // namespace mh
