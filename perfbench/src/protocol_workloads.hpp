// The three protocol workloads: closed-loop protocol executions driven
// through mh::Simulation, one at a time, each checked against a digest pin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "protocol/faults/plan.hpp"
#include "protocol/net/config.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Attack { Balance, Randomized };

struct ProtocolShape {
  std::size_t parties = 0;
  std::size_t horizon = 0;
  std::size_t delta = 0;
  Attack attack = Attack::Balance;
  mh::net::NetConfig net{};  ///< default: the lockstep full mesh
  mh::faults::FaultProfile faults = mh::faults::FaultProfile::None;
  /// Distinct seeded inputs the timed loop cycles through.
  std::size_t inputs = 1;
  /// A golden cell of the library's balance probe, checked once per process
  /// after the timed work: balance_transport_probe(golden_parties,
  /// golden_horizon, golden_seed) must fold to golden_digest. Zero seed: none.
  std::size_t golden_parties = 0;
  std::size_t golden_horizon = 0;
  std::uint64_t golden_seed = 0;
  std::uint64_t golden_digest = 0;
};

/// 64 parties x 10^4 slots, balance attack, Delta = 0, lockstep mesh. Its
/// golden cell is the E14 acceptance cell (256 x 10^4, 0xe8c91e144e62c305).
[[nodiscard]] ProtocolShape chain_growth_shape();
/// 2.5 * 10^4 parties x 25 slots, same law and attack.
[[nodiscard]] ProtocolShape committee_wide_shape();
/// 64 parties x 1000 slots, RandomizedAdversary at Delta = 2 on a random-k
/// (k = 4) topology with capped geometric latency and a sampled Mixed fault
/// plan. The horizon is fixed: cost grows about T^2 here.
[[nodiscard]] ProtocolShape adversarial_gossip_shape();

/// What one execution produced and what it cost. The layer block is filled
/// by traced executions only.
struct ExecutionResult {
  std::uint64_t digest = 0;  ///< the transport-probe FNV fold
  std::size_t blocks = 0;    ///< every block forged or minted, genesis excluded
  double setup_s = 0.0;      ///< schedule, plan, adversary, Simulation construction
  double run_s = 0.0;        ///< the Simulation run alone
  double check_s = 0.0;      ///< the digest fold

  struct Layers {
    double construct_s = 0.0;          ///< Simulation constructor
    double adversary_s = 0.0;          ///< time inside the adversary hooks
    std::size_t adversary_calls = 0;
    double add_ns = 0.0;               ///< BlockTree::try_add, per block
    double receive_ns = 0.0;           ///< HonestNode::receive, per block
    std::size_t orphans_peak = 0;      ///< max over slots of orphans buffered, all nodes
    double ship_ns = 0.0;              ///< Network replay time per shipped copy
    double shipped_per_needed = 0.0;   ///< copies shipped / (honest blocks x (P - 1))
    std::size_t faults_injected = 0;
    std::size_t resync_blocks = 0;
    std::size_t leaderships_skipped = 0;
    std::size_t observed_delta = 0;    ///< NetReport bound (heterogeneous shapes)
    bool replays_ok = true;            ///< every replay admitted every block
  } layers;
};

/// Runs input `input_seed` of `shape` once: one Simulation::run. With a
/// tracer the adversary is wrapped in a decorator that times its hooks and
/// cuts the run into slot spans, and the finished execution is replayed
/// through fresh BlockTree, HonestNode and Network objects. Both paths must
/// fold to the same digest.
ExecutionResult execute(const ProtocolShape& shape, std::uint64_t input_seed,
                        Tracer* tracer = nullptr);

/// One timed unit of the untraced closed loop, in wall-clock seconds. The
/// driver of the run (run.py) pairs each step with the same step of the
/// reference build and reports the ratios.
struct Step {
  double setup_s = 0.0;  ///< median set-up time of the step's input
  double pass_s = 0.0;   ///< the whole operation: set-up, work, checks
  double run_s = 0.0;    ///< the part that simulates slots
  double slots = 0.0;    ///< slots simulated in run_s
};

/// An untraced workload, driven one step at a time: the constructor runs the
/// untimed warm-up and its pins, every step() one checked operation.
class WorkloadServer {
 public:
  virtual ~WorkloadServer() = default;
  virtual Step step() = 0;
  /// Checks that are too large to run before the timed work: they would set
  /// the process's peak RSS. Runs once, after that has been read.
  virtual void finish() {}
};

/// The untraced protocol workload: input k = SeedSequence(seed).derive(k),
/// step i runs input i mod shape.inputs.
[[nodiscard]] std::unique_ptr<WorkloadServer> protocol_server(const ProtocolShape& shape,
                                                              std::uint64_t seed,
                                                              Report& report);

struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 1.0;
  Tracer* tracer = nullptr;
};

/// The traced workload: warm-up and pins, then traced executions for
/// `seconds`; records the protocol per-layer metrics into `report`.
void run_protocol(const ProtocolShape& shape, const RunOptions& options, Report& report);

}  // namespace perfbench
