#include "protocol_workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "engine/seed_sequence.hpp"
#include "protocol/adversary.hpp"
#include "protocol/faults/injector.hpp"
#include "protocol/transport_probe.hpp"

namespace perfbench {

ProtocolShape chain_growth_shape() {
  ProtocolShape shape;
  shape.parties = 64;
  shape.horizon = 10000;
  shape.inputs = 4;
  shape.golden_parties = 256;
  shape.golden_horizon = 10000;
  shape.golden_seed = 20240914;  // the E14 acceptance cell
  shape.golden_digest = 0xe8c91e144e62c305ULL;
  return shape;
}

ProtocolShape committee_wide_shape() {
  ProtocolShape shape;
  shape.parties = 25000;
  shape.horizon = 25;
  shape.inputs = 4;
  return shape;
}

ProtocolShape adversarial_gossip_shape() {
  ProtocolShape shape;
  shape.parties = 64;
  shape.horizon = 1000;
  shape.delta = 2;
  shape.attack = Attack::Randomized;
  shape.net.topology = mh::net::TopologyKind::RandomK;
  shape.net.k = 4;
  shape.net.latency = mh::net::LatencyLaw{mh::net::LatencyKind::Geometric, 0, 3, 0.5};
  shape.faults = mh::faults::FaultProfile::Mixed;
  shape.inputs = 6;
  return shape;
}

namespace {

/// Fault plans draw from their own stream, so an input's schedule and
/// adversary draws match the transport probe's whether or not it is faulted.
constexpr std::uint64_t kPlanStream = 0xfa017b1a5eedULL;

/// Spans after which a traced run stops starting executions: about 50 MB of
/// trace. A cheap execution cut into slot spans makes about four per slot.
constexpr std::size_t kTraceSpanBudget = 500'000;

/// Set-up samples per untraced step: this many constructions, or this long.
constexpr std::size_t kSetupSamples = 20;
constexpr double kSetupBudgetSeconds = 0.05;

/// Times every adversary hook under a span and forwards to the stock strategy
/// unchanged, so a traced execution must fold to the untraced digest.
///
/// It also cuts the execution into slot spans: "sim.slot" t runs from the
/// on_slot_begin hook of slot t to that of slot t + 1 (the last one closes in
/// finish()). Stepping the Simulation with one run_until(t) per slot would
/// give per-slot spans too, but it is not equivalent to run() on faulted
/// executions: run_until(t) ends by flushing the deliveries due at t + 1,
/// ahead of that slot's crash events. Between slot spans the hook samples the
/// nodes' orphan buffers.
class TracedAdversary final : public mh::Adversary {
 public:
  TracedAdversary(mh::Adversary& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  void begin(mh::Simulation& sim) override {
    const auto span = tracer_.scope("adversary.begin");
    inner_.begin(sim);
  }
  void on_slot_begin(std::size_t slot, mh::Simulation& sim) override {
    finish();
    std::size_t orphans = 0;
    for (const mh::HonestNode& node : sim.nodes()) orphans += node.buffered_orphans();
    orphans_peak_ = std::max(orphans_peak_, orphans);
    slot_span_ = tracer_.open("sim.slot");
    const auto span = tracer_.scope("adversary.on_slot_begin");
    inner_.on_slot_begin(slot, sim);
  }
  std::vector<std::size_t> delivery_delays(const mh::Block& block, std::size_t slot,
                                           mh::Simulation& sim) override {
    const auto span = tracer_.scope("adversary.delivery_delays");
    return inner_.delivery_delays(block, slot, sim);
  }
  mh::BlockHash break_tie(mh::PartyId node, const std::vector<mh::BlockHash>& candidates,
                          mh::Simulation& sim) override {
    const auto span = tracer_.scope("adversary.break_tie");
    return inner_.break_tie(node, candidates, sim);
  }

  /// Closes the open slot span, if any.
  void finish() {
    if (slot_span_ != 0) tracer_.close(slot_span_);
    slot_span_ = 0;
  }
  [[nodiscard]] std::size_t orphans_peak() const noexcept { return orphans_peak_; }

 private:
  mh::Adversary& inner_;
  Tracer& tracer_;
  std::uint32_t slot_span_ = 0;
  std::size_t orphans_peak_ = 0;  ///< max over slots of orphans buffered, all nodes
};

constexpr const char* kAdversaryHooks[] = {"adversary.begin", "adversary.on_slot_begin",
                                           "adversary.delivery_delays", "adversary.break_tie"};

std::unique_ptr<mh::Adversary> make_adversary(Attack attack, std::uint64_t seed) {
  if (attack == Attack::Balance) return std::make_unique<mh::BalanceAttacker>();
  return std::make_unique<mh::RandomizedAdversary>(seed);
}

/// One execution's inputs and objects. Draws follow the transport probe's
/// order (schedule, adversary seed, simulation seed), so a balance input
/// reproduces mh::balance_transport_probe bit for bit.
class Execution {
 public:
  Execution(const ProtocolShape& shape, std::uint64_t seed, Tracer* tracer)
      : shape_(shape),
        rng_(seed),
        schedule_(mh::LeaderSchedule::from_symbol_law(mh::kTransportProbeLaw, shape.horizon,
                                                      shape.parties, rng_)) {
    adversary_ = make_adversary(shape.attack, rng_());
    mh::Adversary* adversary = adversary_.get();
    if (tracer != nullptr) {
      traced_ = std::make_unique<TracedAdversary>(*adversary_, *tracer);
      adversary = traced_.get();
    }
    if (shape.faults != mh::faults::FaultProfile::None) {
      mh::Rng plan_rng(seed ^ kPlanStream);
      injector_.emplace(mh::faults::sample_fault_plan(shape.faults, shape.parties,
                                                      shape.horizon, shape.delta, plan_rng),
                        shape.parties, shape.horizon);
    }
    const mh::SimulationConfig config{mh::TieBreak::AdversarialOrder, rng_()};
    mh::faults::FaultInjector* injector = injector_ ? &*injector_ : nullptr;
    if (tracer == nullptr) {
      sim_.emplace(schedule_, config, shape.delta, adversary, injector, shape.net);
    } else {
      const auto span = tracer->scope("sim.construct");
      sim_.emplace(schedule_, config, shape.delta, adversary, injector, shape.net);
    }
  }

  Execution(const Execution&) = delete;
  Execution& operator=(const Execution&) = delete;

  [[nodiscard]] const mh::Simulation& sim() const { return *sim_; }
  [[nodiscard]] const mh::LeaderSchedule& schedule() const { return schedule_; }

  /// One Simulation::run, under a "sim.run" span when traced.
  double run(Tracer* tracer) {
    const double start = now_s();
    if (tracer == nullptr) {
      sim_->run();
    } else {
      const auto span = tracer->scope("sim.run");
      sim_->run();
      traced_->finish();
    }
    return now_s() - start;
  }

  [[nodiscard]] std::size_t orphans_peak() const { return traced_ ? traced_->orphans_peak() : 0; }

  /// The transport probe's fold: creation order, public acceptance order,
  /// adopted heads, divergence, plus observed Delta on heterogeneous shapes.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t d = mh::kFnvOffsetBasis;
    for (const mh::Block& b : sim_->all_blocks()) d = mh::fnv1a_accumulate(d, b.hash);
    for (const mh::BlockHash h : sim_->public_tree().arrival_order())
      d = mh::fnv1a_accumulate(d, h);
    for (const mh::HonestNode& node : sim_->nodes())
      d = mh::fnv1a_accumulate(d, node.best_head());
    d = mh::fnv1a_accumulate(d, sim_->observed_slot_divergence());
    if (shape_.net.heterogeneous())
      d = mh::fnv1a_accumulate(d, sim_->net_report().observed_delta);
    return d;
  }

 private:
  const ProtocolShape& shape_;
  mh::Rng rng_;
  mh::LeaderSchedule schedule_;
  std::unique_ptr<mh::Adversary> adversary_;
  std::unique_ptr<TracedAdversary> traced_;
  std::optional<mh::faults::FaultInjector> injector_;
  std::optional<mh::Simulation> sim_;
};

double per_op_ns(double seconds, std::size_t ops) {
  return ops == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(ops);
}

/// The public view's blocks, genesis excluded, in public arrival order.
std::vector<mh::Block> public_stream(const mh::Simulation& sim) {
  const mh::BlockTree& view = sim.public_tree();
  std::vector<mh::Block> out;
  for (const mh::BlockHash h : view.arrival_order())
    if (h != mh::genesis_block().hash) out.push_back(view.block(h));
  return out;
}

/// Replays of one finished execution through fresh BlockTree, HonestNode and
/// Network objects, each under one span.
void replay_layers(const ProtocolShape& shape, const Execution& ex, Tracer& tracer,
                   ExecutionResult::Layers& out) {
  const mh::Simulation& sim = ex.sim();
  const std::vector<mh::Block> stream = public_stream(sim);

  {
    mh::BlockTree tree;
    std::size_t added = 0;
    std::uint32_t id = 0;
    {
      const auto span = tracer.scope("blocktree.replay");
      id = span.id();
      for (const mh::Block& b : stream)
        added += tree.try_add(b) == mh::BlockTree::AddResult::Added ? 1 : 0;
    }
    out.add_ns = per_op_ns(tracer.seconds(id), stream.size());
    out.replays_ok = out.replays_ok && added == stream.size();
  }

  {
    mh::HonestNode node(0, sim.tie_break(), &ex.schedule());
    std::uint32_t id = 0;
    {
      const auto span = tracer.scope("node.replay");
      id = span.id();
      for (const mh::Block& b : stream) node.receive(b);
    }
    out.receive_ns = per_op_ns(tracer.seconds(id), stream.size());
    out.replays_ok = out.replays_ok && node.tree().block_count() == stream.size() + 1;
  }

  {
    // The honest forge stream, in creation order (slots non-decreasing).
    std::vector<mh::Block> forged;
    for (const mh::Block& b : sim.all_blocks())
      if (b.issuer != mh::kAdversary && b.slot != 0) forged.push_back(b);
    mh::Network network(shape.parties, shape.delta, shape.net);
    std::vector<mh::Block> inbox;
    std::size_t shipped = 0;
    std::size_t next = 0;
    std::uint32_t id = 0;
    {
      const auto span = tracer.scope("network.replay");
      id = span.id();
      // Past the horizon, keep collecting until no delivery can still be
      // pending: every queued due lies within delta + max latency + 1 slots.
      const std::size_t quiet = shape.delta + shape.net.latency.max_extra() + 2;
      std::size_t idle = 0;
      for (std::size_t t = 1; t <= shape.horizon || idle < quiet; ++t) {
        std::size_t got = 0;
        for (mh::PartyId r = 0; r < shape.parties; ++r) {
          network.collect_into(r, t, &inbox);
          got += inbox.size();
        }
        shipped += got;
        idle = got == 0 ? idle + 1 : 0;
        for (; next < forged.size() && forged[next].slot == t; ++next)
          network.broadcast_chain(sim.global_tree(), forged[next], t);
      }
    }
    out.ship_ns = per_op_ns(tracer.seconds(id), shipped);
    const double needed = static_cast<double>(forged.size()) *
                          static_cast<double>(shape.parties - 1);
    out.shipped_per_needed = needed == 0.0 ? 0.0 : static_cast<double>(shipped) / needed;
    out.replays_ok = out.replays_ok && next == forged.size();
  }

  const mh::FaultReport faults = sim.fault_report();
  out.faults_injected = faults.stats.injected();
  out.resync_blocks = faults.stats.resync_blocks;
  out.leaderships_skipped = faults.leaderships_skipped;
  out.observed_delta = sim.net_report().observed_delta;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

ExecutionResult execute(const ProtocolShape& shape, std::uint64_t input_seed, Tracer* tracer) {
  ExecutionResult result;
  const std::size_t first_span = tracer != nullptr ? tracer->spans().size() : 0;
  double t0 = now_s();
  Execution ex(shape, input_seed, tracer);
  result.setup_s = now_s() - t0;
  result.run_s = ex.run(tracer);
  t0 = now_s();
  result.digest = ex.digest();
  result.check_s = now_s() - t0;
  result.blocks = ex.sim().all_blocks().size() - 1;
  if (tracer != nullptr) {
    ExecutionResult::Layers& layers = result.layers;
    const std::vector<double> construct = tracer->durations("sim.construct", first_span);
    layers.construct_s = construct.empty() ? 0.0 : construct.front();
    layers.orphans_peak = ex.orphans_peak();
    for (const char* hook : kAdversaryHooks) {
      const std::vector<double> calls = tracer->durations(hook, first_span);
      layers.adversary_calls += calls.size();
      layers.adversary_s += std::accumulate(calls.begin(), calls.end(), 0.0);
    }
    replay_layers(shape, ex, *tracer, layers);
  }
  return result;
}

namespace {

/// pins[k]: the digest input k folded to the first time this process ran it.
class InputPins {
 public:
  InputPins(std::size_t inputs, Report& report) : pins_(inputs), report_(report) {}

  void check(std::size_t k, std::uint64_t digest, const char* where) {
    if (!pins_[k]) {
      pins_[k] = digest;
      return;
    }
    report_.check(*pins_[k] == digest, std::string(where) + ": input " + std::to_string(k) +
                                           " folded to " + hex(digest) + ", pinned " +
                                           hex(*pins_[k]));
  }

 private:
  std::vector<std::optional<std::uint64_t>> pins_;
  Report& report_;
};

/// Untimed cold warm-up: input 0, pinned. The first execution in a process
/// also pays for growing the per-thread BlockTree arena. Returns its run time.
double warm_up(const ProtocolShape& shape, const mh::engine::SeedSequence& input_seeds,
               InputPins& pins) {
  const ExecutionResult cold = execute(shape, input_seeds.derive(0));
  pins.check(0, cold.digest, "warm-up");
  return cold.run_s;
}

void check_golden_cell(const ProtocolShape& shape, Report& report) {
  if (shape.golden_seed == 0) return;
  const mh::TransportProbeOutcome probe = mh::balance_transport_probe(
      shape.golden_parties, shape.golden_horizon, shape.golden_seed);
  report.check(probe.digest == shape.golden_digest,
               "golden cell digest " + hex(probe.digest) + ", want " + hex(shape.golden_digest));
}

class ProtocolServer final : public WorkloadServer {
 public:
  ProtocolServer(const ProtocolShape& shape, std::uint64_t seed, Report& report)
      : shape_(shape), input_seeds_(seed), pins_(shape.inputs, report), report_(report) {
    warm_up(shape_, input_seeds_, pins_);
  }

  /// Set-up alone, repeated so its median is steady where one set-up takes
  /// microseconds, then one checked execution of the same input.
  Step step() override {
    const std::size_t k = next_++ % shape_.inputs;
    const std::uint64_t input = input_seeds_.derive(k);
    std::vector<double> setup;
    const double start = now_s();
    while (setup.size() < kSetupSamples && now_s() - start < kSetupBudgetSeconds) {
      const double t0 = now_s();
      const Execution ex(shape_, input, nullptr);
      setup.push_back(now_s() - t0);
    }
    const ExecutionResult r = execute(shape_, input);
    pins_.check(k, r.digest, "execution");
    setup.push_back(r.setup_s);
    return Step{median(setup), r.setup_s + r.run_s + r.check_s, r.run_s,
                static_cast<double>(shape_.horizon)};
  }

  void finish() override { check_golden_cell(shape_, report_); }

 private:
  const ProtocolShape shape_;
  const mh::engine::SeedSequence input_seeds_;
  InputPins pins_;
  Report& report_;
  std::size_t next_ = 0;
};

}  // namespace

std::unique_ptr<WorkloadServer> protocol_server(const ProtocolShape& shape, std::uint64_t seed,
                                                Report& report) {
  return std::make_unique<ProtocolServer>(shape, seed, report);
}

void run_protocol(const ProtocolShape& shape, const RunOptions& options, Report& report) {
  Tracer& tracer = *options.tracer;
  const mh::engine::SeedSequence input_seeds(options.seed);
  InputPins pins(shape.inputs, report);
  const double cold_run_s = warm_up(shape, input_seeds, pins);

  // The warm re-run of input 0: the arena warm-up cost, and the untraced
  // time to measure the tracing overhead against.
  const ExecutionResult warm = execute(shape, input_seeds.derive(0));
  pins.check(0, warm.digest, "warm re-run");
  const double arena_warmup_s = cold_run_s - warm.run_s;
  const double untraced0_run_s = warm.run_s;

  // The traced closed loop: every input at least once, then until `seconds`
  // or until the trace holds kTraceSpanBudget spans, whichever comes first.
  std::vector<ExecutionResult> results;
  const double start = now_s();
  for (std::size_t i = 0; i < shape.inputs || (now_s() - start < options.seconds &&
                                               tracer.spans().size() < kTraceSpanBudget);
       ++i) {
    const std::size_t k = i % shape.inputs;
    tracer.set_run(static_cast<std::uint32_t>(i + 1));
    results.push_back(execute(shape, input_seeds.derive(k), &tracer));
    pins.check(k, results.back().digest, "traced execution");
    report.check(results.back().layers.replays_ok, "layer replays admitted every block");
  }
  check_golden_cell(shape, report);

  const auto collect = [&](auto field) {
    std::vector<double> out;
    for (const ExecutionResult& r : results) out.push_back(field(r));
    return out;
  };

  // Per-layer metrics. Times are medians over the traced executions; counts
  // come from the first traced execution (input 0), so they are a pure
  // function of the seed.
  const ExecutionResult::Layers& first = results.front().layers;
  const Distribution slot = summarize(tracer.durations("sim.slot"));
  report.set("sim.slot_p50_us", slot.p50 * 1e6, "us");
  report.set("sim.slot_tail_us", slot.tail * 1e6, "us");
  report.set("sim.slot_tail_pct", slot.tail_pct, "%");
  report.set("sim.slot_samples", static_cast<double>(slot.samples), "count");
  report.set("sim.blocks", static_cast<double>(results.front().blocks), "count");
  report.set("sim.construct_s",
             median(collect([](const ExecutionResult& r) { return r.layers.construct_s; })),
             "s");
  report.set("adversary.self_s",
             median(collect([](const ExecutionResult& r) { return r.layers.adversary_s; })),
             "s");
  report.set("adversary.calls", static_cast<double>(first.adversary_calls), "count");
  report.set("adversary.share", median(collect([](const ExecutionResult& r) {
               return r.layers.adversary_s / r.run_s;
             })),
             "ratio");
  report.set("blocktree.add_ns",
             median(collect([](const ExecutionResult& r) { return r.layers.add_ns; })), "ns");
  report.set("blocktree.adds",
             static_cast<double>((shape.parties + 2) * results.front().blocks),
             "count-computed");
  report.set("blocktree.arena_warmup_s", arena_warmup_s, "s");
  report.set("node.receive_ns",
             median(collect([](const ExecutionResult& r) { return r.layers.receive_ns; })),
             "ns");
  report.set("node.orphans_buffered", static_cast<double>(first.orphans_peak), "count");
  report.set("network.ship_ns",
             median(collect([](const ExecutionResult& r) { return r.layers.ship_ns; })), "ns");
  report.set("network.shipped_per_needed", first.shipped_per_needed, "ratio");
  report.set("faults.injected", static_cast<double>(first.faults_injected), "count");
  report.set("faults.resync_blocks", static_cast<double>(first.resync_blocks), "count");
  report.set("faults.leaderships_skipped", static_cast<double>(first.leaderships_skipped),
             "count");
  report.set("net.observed_delta", static_cast<double>(first.observed_delta), "slots");
  report.set("engine.threads", 1.0, "count");
  report.set("trace.overhead_s", results.front().run_s - untraced0_run_s, "s");
}

}  // namespace perfbench
