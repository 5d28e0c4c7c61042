// The differential consistency oracle: run one protocol execution and one
// analytic replay of the same leader schedule, and check the paper's
// domination invariants between them. check_execution is the only entry
// point and RunConfig the only description of a run: its leader schedule,
// network shape, fault plan and stake lottery compose freely.
//
// Per execution the oracle asserts, in order of strength:
//
//   1. refinement   - the execution's block set, relabeled through the
//                     Delta-reduction bijection (Proposition 3), is a valid
//                     synchronous fork for the reduced string (axioms F1-F4);
//   2. margin       - the relative margin of that fork at the target
//                     decomposition never exceeds the Theorem-5 recurrence
//                     value (the recurrence is the max over ALL valid forks);
//   3. domination   - if the simulated adversary achieved a k-settlement
//                     violation, the analytic margin trajectory permits one
//                     (mu_{x'}(y'_j) >= 0 somewhere); a string whose margin
//                     forbids violations can never produce a simulated one.
//
// All three are exact statements (no tolerance, no sampling error), so a
// single counterexample is a genuine bug in either the simulator or the
// analytic stack - which is precisely what a differential oracle is for.
//
// The schedule. Without `stake` it is pre-drawn from `law`. With `stake` it
// is the epoch-managed lottery (stake registry, epoch nonces folded from the
// chain, per-slot VRF draws, stake shifts at epoch boundaries) and the
// oracle grades the lottery's realized draws. Each epoch is then also graded
// on its own: the epoch's stake snapshot induces an i.i.d. TetraLaw
// (consensus::induced_law), the epoch's realized symbols must sit inside
// exact Clopper-Pearson bands around it, and the law is pushed through
// reduced_law (Proposition 4) so each cell carries the Delta-reduced law the
// analytic stack would assign it. An epoch the horizon covers but the run
// never materialized is an oracle gap, not a pass (code 'u').
//
// The audit. A run with a FaultPlan or a non-degenerate NetConfig is
// projected at its OBSERVED Delta against the EFFECTIVE schedule (down
// leaders forge nothing, so their leaderships leave the characteristic
// string). Faults alone take the observed Delta from the FaultReport: the max
// realized honest first-delivery delay outside crash shadows. A
// heterogeneous net takes it from the NetReport, which folds in the fault
// layer's delays and inflates it for honest blocks still undelivered at the
// end, so the projection window stays open. Then:
//
//   * observed Delta <= configured Delta: the run is a legitimate
//     Delta-execution and every invariant above must hold unchanged;
//   * observed Delta beyond the bound: the run is flagged `degraded` (never a
//     silent pass) and re-projected at the observed Delta — the reduction is
//     defined for every finite Delta, so graceful degradation is itself an
//     invariant (code 'd' when it holds, '!' when it does not);
//   * some honest block never delivered at all (an unhealed partition on the
//     lockstep transport): no finite Delta describes the run; it is flagged
//     unchecked (code 'u'). Every heterogeneous topology is strongly
//     connected, so a heterogeneous run is never unbounded: lateness, not
//     partition.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "oracle/characteristic.hpp"
#include "protocol/adversary.hpp"
#include "protocol/consensus/schedule.hpp"
#include "protocol/faults/plan.hpp"
#include "protocol/net/config.hpp"

namespace mh::oracle {

/// An epoch-managed stake lottery. Empty `honest_stakes` means uniform over
/// RunConfig::honest_parties; otherwise the vector IS the profile (its size
/// wins).
struct StakeSpec {
  consensus::ConsensusConfig consensus{};
  std::vector<double> honest_stakes{};
  double adversarial_stake = 0.25;
  std::vector<consensus::StakeShiftSpec> shifts{};
};

/// One execution recipe. `law` draws the leader schedule unless `stake`
/// replaces it with the epoch lottery; `faults` perturbs the run.
struct RunConfig {
  TetraLaw law;
  TieBreak tie_break = TieBreak::AdversarialOrder;
  Strategy strategy = Strategy::PrivateChain;
  std::size_t delta = 0;
  std::size_t target_slot = 2;  ///< the slot whose settlement is attacked
  std::size_t k = 6;            ///< confirmation depth of the settlement watch
  std::size_t horizon = 48;
  std::size_t honest_parties = 6;
  net::NetConfig net{};  ///< network shape; default = degenerate lockstep
  std::optional<StakeSpec> stake{};
  std::optional<faults::FaultPlan> faults{};
};

/// One epoch's grading record (stake-driven runs only).
struct EpochCell {
  std::size_t epoch = 0;
  std::uint64_t nonce = 0;
  std::size_t slots = 0;      ///< slots of this epoch inside the horizon
  std::size_t counts[4]{};    ///< realized symbols, indexed Bot, h, H, A
  TetraLaw induced{};         ///< law induced by the epoch's stake snapshot
  SymbolLaw reduced{};        ///< Proposition-4 image of `induced` at Delta
  bool law_within_band = false;

  friend bool operator==(const EpochCell&, const EpochCell&) = default;
};

/// The oracle's verdict on a single execution. All fields are pure functions
/// of (config, rng stream), so verdicts are bit-identical across thread
/// counts when the streams are counter-based.
struct RunVerdict {
  bool simulated_violation = false;  ///< watch fired or public fork tied
  bool analytic_allows = false;      ///< margin >= 0 somewhere in the window
  bool fork_valid = false;           ///< relabeled execution fork passes F1-F4
  bool margin_dominated = false;     ///< fork margin <= recurrence margin
  std::int64_t fork_margin = 0;      ///< mu_{x'} of the relabeled execution fork
  std::int64_t string_margin = 0;    ///< mu_{x'}(y') of the recurrence, full suffix

  // Fault / network audit (all false/0 for un-faulted degenerate executions).
  bool faulted = false;           ///< a FaultPlan perturbed this execution
  bool heterogeneous = false;     ///< a non-degenerate NetConfig shaped the transport
  bool degraded = false;          ///< observed Delta exceeded the configured bound
  bool delta_unbounded = false;   ///< an honest block was never delivered at all
  bool recovery_checked = false;  ///< degraded run re-projected at observed Delta
  std::uint32_t observed_delta = 0;   ///< max realized honest delay (counted)
  std::uint32_t resync_blocks = 0;    ///< blocks re-shipped by heal/restart re-sync
  std::uint32_t faults_injected = 0;  ///< drops + dups + delays + crash/restart events

  // Epoch grade (empty / vacuously true without a StakeSpec).
  std::vector<EpochCell> epochs{};  ///< one per materialized epoch
  bool all_graded = true;           ///< every epoch covering the horizon graded
  bool laws_within_band = true;     ///< every epoch's frequencies inside its band

  /// The domination invariant: no violation on a margin-forbidden string.
  /// For a degraded (recovery-checked) run the fields hold the observed-Delta
  /// projection, so this doubles as the graceful-degradation invariant.
  [[nodiscard]] bool dominated() const noexcept {
    return (!simulated_violation || analytic_allows) && fork_valid && margin_dominated;
  }

  /// Compact encoding for golden pinning: '.' quiet, 'a' margin allows but no
  /// simulated violation, 'V' simulated violation (analytic side agrees),
  /// '!' any invariant breach; out-of-bound runs report 'd' (degraded
  /// gracefully: observed-Delta projection holds) or 'u' (unbounded observed
  /// Delta, projection undefined) — never a silent pass. A stake-driven run
  /// reports 'u' for an ungraded epoch and '!' for an epoch outside its band
  /// before anything else.
  [[nodiscard]] char code() const noexcept;

  friend bool operator==(const RunVerdict&, const RunVerdict&) = default;
};

/// Runs one seeded execution of `config` and grades it as documented above.
/// Draw order: the schedule (one seed for the lottery, the law's draws
/// otherwise), the strategy seed, the simulation seed.
RunVerdict check_execution(const RunConfig& config, Rng& rng);

}  // namespace mh::oracle
