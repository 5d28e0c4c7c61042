// E18 — the heterogeneous network core under the observed-Delta oracle: a
// topology x latency x bandwidth sweep with golden digest pins, plus the
// hetero oracle band (every run graded, never '!' or 'u').
//
// Three gates, in report order:
//
//   1. façade gate — hetero_transport_probe with the DEGENERATE NetConfig
//      must reproduce balance_transport_probe's golden pin bit-identically
//      (the event-core refactor's contract with the lockstep model);
//   2. pinned matrix — every heterogeneous cell's digest (which folds the
//      delivery order, adopted heads, AND the recovered observed Delta) must
//      match its pin: any drift in relay order, latency draws, bandwidth
//      spillover, or the inflation rule fails the process;
//   3. hetero band — topology x strategy x latency cells, every execution
//      graded by oracle::check_execution: within the configured Delta the
//      full domination invariant set must hold, beyond it the run must
//      re-project at its observed Delta ('d'), never breach ('!') and never
//      go unbounded ('u' — the topology set is strongly connected).
//
// MH_NET_QUICK shrinks the band's per-cell runs for CI smoke; the pinned
// matrix always runs in full (that is the drift gate CI exists to catch).
// The env spotlight cell applies the strict MH_NET_* knobs on top of a ring
// base, so a CI job (or a laptop) can steer one extra shape without a
// rebuild; it prints its digest and observed Delta but pins nothing.
#include <benchmark/benchmark.h>

#include "bench_harness.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "delta/semi_sync.hpp"
#include "engine/seed_sequence.hpp"
#include "engine/thread_pool.hpp"
#include "oracle/oracle.hpp"
#include "protocol/net/config.hpp"
#include "protocol/transport_probe.hpp"
#include "support/table.hpp"

namespace {

using mh::net::LatencyKind;
using mh::net::LatencyLaw;
using mh::net::NetConfig;
using mh::net::TopologyKind;

// --- the pinned heterogeneous matrix ----------------------------------------

constexpr std::size_t kPinParties = 16;
constexpr std::size_t kPinHorizon = 128;
constexpr std::uint64_t kPinSeed = 1804;
constexpr std::size_t kPinDelta = 2;

struct NetCell {
  const char* name;
  TopologyKind topology;
  std::size_t k;
  LatencyLaw latency;
  std::size_t bandwidth;
  std::uint64_t pin;  ///< golden digest; 0 = unpinned (print-only)
};

NetConfig cell_config(const NetCell& cell) {
  NetConfig cfg;
  cfg.topology = cell.topology;
  cfg.k = cell.k;
  cfg.latency = cell.latency;
  cfg.bandwidth = cell.bandwidth;
  return cfg;
}

// Every axiom relaxation of EXPERIMENTS.md E18 appears at least once:
// non-mesh who-ships-to-whom (A0's implicit diffusion), per-link latency laws
// (A4_Delta's uniform bound), and egress caps (the model's free simultaneous
// broadcast). Pins are regenerated ONLY for an intentional semantic change.
const NetCell kPinnedCells[] = {
    {"ring/deg0/bw-inf", TopologyKind::Ring, 3, {LatencyKind::Degenerate, 0, 0, 0.5}, 0,
     0xfa80dbe4bc666990ULL},
    {"ring/uni2/bw-inf", TopologyKind::Ring, 3, {LatencyKind::Uniform, 0, 2, 0.5}, 0,
     0x598644741dc33365ULL},
    {"ring/geo.5c2/bw1", TopologyKind::Ring, 3, {LatencyKind::Geometric, 0, 2, 0.5}, 1,
     0x7cb2fcc8d5e607e5ULL},
    {"rand3/deg0/bw-inf", TopologyKind::RandomK, 3, {LatencyKind::Degenerate, 0, 0, 0.5}, 0,
     0xc94f92f064939321ULL},
    {"rand3/geo.3c3/bw-inf", TopologyKind::RandomK, 3, {LatencyKind::Geometric, 0, 3, 0.3}, 0,
     0x38b884666db4fd32ULL},
    {"2cluster/deg0/bw-inf", TopologyKind::TwoClusterBridge, 3,
     {LatencyKind::Degenerate, 0, 0, 0.5}, 0, 0xea32f4091082b0a0ULL},
    {"2cluster/uni2/bw2", TopologyKind::TwoClusterBridge, 3, {LatencyKind::Uniform, 0, 2, 0.5},
     2, 0xa53a35b90e3cb53fULL},
    {"mesh/fix1/bw-inf", TopologyKind::FullMesh, 3, {LatencyKind::Degenerate, 1, 0, 0.5}, 0,
     0x71f34a5439739ab3ULL},
    {"mesh/uni2/bw-inf", TopologyKind::FullMesh, 3, {LatencyKind::Uniform, 0, 2, 0.5}, 0,
     0x830b9e4a0685638cULL},
    {"mesh/deg0/bw1", TopologyKind::FullMesh, 3, {LatencyKind::Degenerate, 0, 0, 0.5}, 1,
     0x97cc95e63479c418ULL},
};
constexpr std::size_t kPinnedCellCount = sizeof(kPinnedCells) / sizeof(kPinnedCells[0]);

struct CellRecord {
  std::string name;
  std::string shape;
  std::uint64_t digest = 0;
  std::uint64_t pin = 0;
  std::size_t blocks = 0;
  std::size_t observed_delta = 0;
  double ms = 0.0;
};
std::vector<CellRecord> g_cell_records;

// --- the hetero oracle band --------------------------------------------------

struct BandCell {
  const char* name;
  TopologyKind topology;
  LatencyLaw latency;
  std::size_t bandwidth;
  mh::Strategy strategy;
};

const BandCell kBandCells[] = {
    {"mesh/uni2/balance", TopologyKind::FullMesh, {LatencyKind::Uniform, 0, 2, 0.5}, 0,
     mh::Strategy::Balance},
    {"ring/deg0/balance", TopologyKind::Ring, {LatencyKind::Degenerate, 0, 0, 0.5}, 0,
     mh::Strategy::Balance},
    {"ring/uni2/random", TopologyKind::Ring, {LatencyKind::Uniform, 0, 2, 0.5}, 0,
     mh::Strategy::Randomized},
    {"rand2/geo.4c3/balance", TopologyKind::RandomK, {LatencyKind::Geometric, 0, 3, 0.4}, 0,
     mh::Strategy::Balance},
    {"rand2/uni2/private", TopologyKind::RandomK, {LatencyKind::Uniform, 0, 2, 0.5}, 0,
     mh::Strategy::PrivateChain},
    {"2cluster/uni2/balance", TopologyKind::TwoClusterBridge, {LatencyKind::Uniform, 0, 2, 0.5},
     0, mh::Strategy::Balance},
    {"2cluster/deg1/bw2/random", TopologyKind::TwoClusterBridge,
     {LatencyKind::Degenerate, 1, 0, 0.5}, 2, mh::Strategy::Randomized},
    {"mesh/geo.5c2/bw1/balance", TopologyKind::FullMesh, {LatencyKind::Geometric, 0, 2, 0.5},
     1, mh::Strategy::Balance},
};
constexpr std::size_t kBandCellCount = sizeof(kBandCells) / sizeof(kBandCells[0]);
constexpr std::uint64_t kBandSeed = 1808;
constexpr std::size_t kBandHorizon = 96;

mh::oracle::RunConfig band_run_config(const BandCell& cell) {
  mh::oracle::RunConfig rc;
  rc.law = mh::theorem7_law(1.0, 0.25, 0.45);
  rc.strategy = cell.strategy;
  rc.delta = 1;
  rc.horizon = kBandHorizon;
  rc.target_slot = 4;
  rc.k = 8;
  rc.honest_parties = 8;
  rc.net.topology = cell.topology;
  rc.net.k = 2;
  rc.net.latency = cell.latency;
  rc.net.bandwidth = cell.bandwidth;
  return rc;
}

struct BandOutcome {
  bool clean = false;
  std::size_t runs = 0;
  std::size_t violations = 0;   // 'V' — simulated AND analytically allowed
  std::size_t degraded = 0;     // 'd' — re-projected at the observed Delta
  std::size_t breaches = 0;     // '!' + 'u' — the gate
  std::size_t max_observed_delta = 0;
  std::size_t vacuous = 0;      // graded at an observed Delta >= horizon / 4
};
BandOutcome g_band;
bool g_facade_ok = false;
bool g_pins_ok = false;
bool g_band_dirty = false;  // set by the timed iterations too

// --- report sections ---------------------------------------------------------

bool facade_gate_report() {
  const mh::TransportProbeOutcome legacy = mh::balance_transport_probe(
      mh::kBalanceProbePinParties, mh::kBalanceProbePinHorizon, mh::kBalanceProbePinSeed);
  const mh::TransportProbeOutcome event_core =
      mh::hetero_transport_probe(mh::kBalanceProbePinParties, mh::kBalanceProbePinHorizon,
                                 mh::kBalanceProbePinSeed, 0, NetConfig::degenerate());
  const bool facade = event_core.digest == legacy.digest;
  const bool pin = legacy.digest == mh::kBalanceProbePinDigest;
  std::printf("façade gate (degenerate NetConfig vs lockstep transport):\n");
  std::printf("  event-core  : 0x%016llx\n  lockstep    : 0x%016llx -> %s\n",
              static_cast<unsigned long long>(event_core.digest),
              static_cast<unsigned long long>(legacy.digest),
              facade ? "identical" : "DRIFT");
  std::printf("  golden pin  : 0x%016llx -> %s\n\n",
              static_cast<unsigned long long>(mh::kBalanceProbePinDigest),
              pin ? "held" : "DRIFT");
  g_facade_ok = facade && pin;
  return g_facade_ok;
}

bool pinned_matrix_report() {
  std::printf("pinned heterogeneous matrix (%zu parties x %zu slots, seed %llu, Delta=%zu):\n",
              kPinParties, kPinHorizon, static_cast<unsigned long long>(kPinSeed), kPinDelta);
  mh::TextTable table({"cell", "shape", "blocks", "obsD", "digest", "pin", "ms"});
  bool ok = true;
  g_cell_records.clear();
  for (const NetCell& cell : kPinnedCells) {
    const NetConfig cfg = cell_config(cell);
    const mh::TransportProbeOutcome out =
        mh::hetero_transport_probe(kPinParties, kPinHorizon, kPinSeed, kPinDelta, cfg);
    const bool match = cell.pin == 0 || out.digest == cell.pin;
    ok = ok && match;
    char digest_hex[32], pin_hex[32];
    std::snprintf(digest_hex, sizeof digest_hex, "0x%016llx",
                  static_cast<unsigned long long>(out.digest));
    std::snprintf(pin_hex, sizeof pin_hex, "%s",
                  match ? (cell.pin == 0 ? "(unpinned)" : "held") : "DRIFT");
    table.add_row({cell.name, cfg.describe(), std::to_string(out.blocks),
                   std::to_string(out.observed_delta), digest_hex, pin_hex,
                   std::to_string(static_cast<int>(out.seconds * 1e3))});
    g_cell_records.push_back({cell.name, cfg.describe(), out.digest, cell.pin, out.blocks,
                              out.observed_delta, out.seconds * 1e3});
    if (!match)
      std::printf("DIGEST DRIFT in cell %s: got 0x%016llx, pinned 0x%016llx\n", cell.name,
                  static_cast<unsigned long long>(out.digest),
                  static_cast<unsigned long long>(cell.pin));
  }
  std::printf("%s\n", table.render().c_str());
  g_pins_ok = ok;
  return ok;
}

bool hetero_band_report() {
  const std::size_t runs_per_cell = mh::bench::env_flag("MH_NET_QUICK") ? 4 : 16;
  const std::size_t threads = mh::engine::threads_from_env();
  std::printf(
      "hetero oracle band: %zu cells x %zu executions (seed %llu)\n"
      "(every run graded at its observed Delta: 'd' degrades gracefully,\n"
      " '!' breaches an invariant, 'u' would mean an unbounded delay)\n\n",
      kBandCellCount, runs_per_cell, static_cast<unsigned long long>(kBandSeed));

  g_band = BandOutcome{};
  g_band.runs = kBandCellCount * runs_per_cell;
  std::string codes(g_band.runs, '?');
  std::vector<std::size_t> observed(g_band.runs, 0);
  std::vector<char> vacuous(g_band.runs, 0);
  const mh::engine::SeedSequence streams(kBandSeed);
  // One counter-based stream per (cell, run): the band is bit-identical
  // across MH_THREADS values, exactly like the scenario matrix.
  mh::engine::for_each_index(g_band.runs, threads, [&](std::size_t i) {
    const mh::oracle::RunConfig rc = band_run_config(kBandCells[i / runs_per_cell]);
    mh::Rng rng = streams.stream(i);
    const mh::oracle::RunVerdict v = mh::oracle::check_execution(rc, rng);
    codes[i] = v.code();
    observed[i] = v.observed_delta;
    vacuous[i] = v.recovery_checked && v.observed_delta >= kBandHorizon / 4;
  });
  g_band.vacuous = static_cast<std::size_t>(std::count(vacuous.begin(), vacuous.end(), 1));

  mh::TextTable table({"cell", "strategy", "codes", "maxObsD"});
  bool clean = true;
  for (std::size_t c = 0; c < kBandCellCount; ++c) {
    const std::string cell_codes = codes.substr(c * runs_per_cell, runs_per_cell);
    std::size_t max_obs = 0;
    for (std::size_t r = 0; r < runs_per_cell; ++r) {
      const char code = cell_codes[r];
      max_obs = std::max(max_obs, observed[c * runs_per_cell + r]);
      if (code == 'V') ++g_band.violations;
      if (code == 'd') ++g_band.degraded;
      if (code == '!' || code == 'u') {
        ++g_band.breaches;
        clean = false;
        std::printf("ORACLE BREACH '%c' in cell %s run %zu (band seed %llu, stream %zu)\n",
                    code, kBandCells[c].name, r, static_cast<unsigned long long>(kBandSeed),
                    c * runs_per_cell + r);
      }
    }
    g_band.max_observed_delta = std::max(g_band.max_observed_delta, max_obs);
    table.add_row({kBandCells[c].name, mh::strategy_name(kBandCells[c].strategy),
                   cell_codes, std::to_string(max_obs)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("totals: %zu runs, %zu violations, %zu degraded, %zu breaches -> %s\n",
              g_band.runs, g_band.violations, g_band.degraded, g_band.breaches,
              clean ? "clean" : "DIRTY");
  std::printf("vacuous grades: %zu runs graded at an observed Delta >= horizon / 4 = %zu\n\n",
              g_band.vacuous, kBandHorizon / 4);
  g_band.clean = clean;
  return clean;
}

void env_spotlight_report() {
  NetConfig base;
  base.topology = TopologyKind::Ring;
  const NetConfig cfg = mh::net::net_config_from_env(base);
  const mh::TransportProbeOutcome out =
      mh::hetero_transport_probe(kPinParties, kPinHorizon, kPinSeed, kPinDelta, cfg);
  std::printf("env spotlight (MH_NET_* over a ring base): %s\n", cfg.describe().c_str());
  std::printf("  digest 0x%016llx, %zu blocks, observed Delta %zu\n\n",
              static_cast<unsigned long long>(out.digest), out.blocks, out.observed_delta);
}

// --- timed benchmarks --------------------------------------------------------

// One heterogeneous probe per topology kind: the sweep's unit of work
// (gossip relay + latency draws + the end-of-run net audit).
void BM_HeteroProbe(benchmark::State& state) {
  const NetCell& cell = kPinnedCells[static_cast<std::size_t>(state.range(0))];
  const NetConfig cfg = cell_config(cell);
  for (auto _ : state) {
    const mh::TransportProbeOutcome out =
        mh::hetero_transport_probe(kPinParties, kPinHorizon, kPinSeed, kPinDelta, cfg);
    if (cell.pin != 0 && out.digest != cell.pin) {
      g_band_dirty = true;
      state.SkipWithError("pinned digest drifted in timed run");
    }
    benchmark::DoNotOptimize(out.digest);
  }
  state.SetLabel(cell.name);
}
BENCHMARK(BM_HeteroProbe)->Arg(1)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

// One graded heterogeneous execution end to end (simulate + net audit +
// observed-Delta projection): the band's unit of work.
void BM_HeteroGradedExecution(benchmark::State& state) {
  const BandCell& cell = kBandCells[static_cast<std::size_t>(state.range(0))];
  const mh::oracle::RunConfig rc = band_run_config(cell);
  const mh::engine::SeedSequence streams(kBandSeed);
  std::uint64_t i = 0;
  for (auto _ : state) {
    mh::Rng rng = streams.stream(i++);
    const mh::oracle::RunVerdict v = mh::oracle::check_execution(rc, rng);
    if (v.code() == '!' || v.code() == 'u') {
      g_band_dirty = true;
      state.SkipWithError("hetero execution broke an invariant");
    }
    benchmark::DoNotOptimize(v.observed_delta);
  }
  state.SetLabel(cell.name);
}
BENCHMARK(BM_HeteroGradedExecution)->Arg(0)->Arg(2)->Arg(5)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  mh::bench::MainOptions options;
  options.post_run_clean = [] { return !g_band_dirty; };
  options.results = [] {
    mh::obs::Json cells = mh::obs::Json::array();
    for (const CellRecord& rec : g_cell_records) {
      mh::obs::Json cell = mh::obs::Json::object();
      cell.set("name", rec.name);
      cell.set("shape", rec.shape);
      cell.set("digest", rec.digest);
      cell.set("pin", rec.pin);
      cell.set("blocks", static_cast<std::uint64_t>(rec.blocks));
      cell.set("observed_delta", static_cast<std::uint64_t>(rec.observed_delta));
      cell.set("ms", rec.ms);
      cells.push(std::move(cell));
    }
    mh::obs::Json results = mh::obs::Json::object();
    results.set("facade_ok", g_facade_ok);
    results.set("pins_ok", g_pins_ok);
    results.set("cells", std::move(cells));
    results.set("band_clean", g_band.clean);
    results.set("band_runs", static_cast<std::uint64_t>(g_band.runs));
    results.set("band_violations", static_cast<std::uint64_t>(g_band.violations));
    results.set("band_degraded", static_cast<std::uint64_t>(g_band.degraded));
    results.set("band_breaches", static_cast<std::uint64_t>(g_band.breaches));
    results.set("band_max_observed_delta",
                static_cast<std::uint64_t>(g_band.max_observed_delta));
    results.set("band_vacuous_grades", static_cast<std::uint64_t>(g_band.vacuous));
    return results;
  };
  return mh::bench::run_main(argc, argv, "net", [] {
    const bool facade_ok = facade_gate_report();
    const bool pins_ok = pinned_matrix_report();
    const bool band_ok = hetero_band_report();
    env_spotlight_report();
    return facade_ok && pins_ok && band_ok;
  }, options);
}
