// E19 — the epoch-managed consensus layer under the differential oracle: a
// stake-profile x shift-plan x strategy band where every execution draws its
// leaders through the per-slot VRF lottery (epoch nonces folded from the
// chain, stake redistributed at epoch boundaries) and is graded twice —
// globally through the Definition-22 reduction, and per epoch against the
// stake-induced law's exact Clopper-Pearson bands.
//
// Three gates, in report order:
//
//   1. epoch band — every cell's every execution must grade: zero ungraded
//      epochs ('u' would mean the schedule never materialized a cell the
//      horizon covers) and zero invariant breaches ('!'); simulated
//      violations ('V') and quiet runs ('.'/'a') are outcomes, not failures;
//   2. pin — the quick band's per-cell codes must match their golden string
//      bit for bit: any drift in the lottery, the nonce fold, the simulation
//      or the grade shows up here;
//   3. spotlight — one shifted-stake execution unrolled epoch by epoch:
//      realized symbol counts vs the induced law of each epoch's stake
//      snapshot, every row inside its band.
//
// MH_EPOCH_QUICK shrinks the band's per-cell runs to the pinned 4 for CI
// smoke; the full 16-run band is not pinned (its streams differ). The timed
// benchmark measures one graded epoch-managed execution end to end (lottery
// materialization + simulation + projection + per-epoch banding).
#include <benchmark/benchmark.h>

#include "bench_harness.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "engine/seed_sequence.hpp"
#include "engine/thread_pool.hpp"
#include "oracle/oracle.hpp"
#include "support/table.hpp"

namespace {

using mh::Strategy;
using mh::consensus::StakeShiftSpec;
using mh::oracle::RunConfig;
using mh::oracle::RunVerdict;

constexpr std::uint64_t kBandSeed = 1904;
constexpr std::size_t kQuickRuns = 4;
/// The quick band's codes, cell by cell (kQuickRuns each).
constexpr const char* kQuickBandPin = "aVaa" ".aa." "aaaa" "aaaa" "a.a." ".aaa" "aaaa";

struct EpochBandCell {
  const char* name;
  std::vector<double> honest_stakes;  ///< empty = uniform over six parties
  double adversarial_stake;
  std::vector<StakeShiftSpec> shifts;
  std::size_t nonce_window;  ///< 0 = the 2R/3 default
  std::size_t delta;
  Strategy strategy;
};

// Profiles cover every axis the layer added: skew (per-party shares), both
// shift directions (coalition buys in / honest stake churns), a deliberately
// small nonce window (the grinding-protection margin at its thinnest), and a
// Delta > 0 cell so the per-epoch laws pass through a non-trivial reduction.
const EpochBandCell kBandCells[] = {
    {"uniform/private", {}, 0.25, {}, 0, 0, Strategy::PrivateChain},
    {"uniform/balance", {}, 0.25, {}, 0, 0, Strategy::Balance},
    {"skewed/private", {0.40, 0.12, 0.08, 0.08, 0.05, 0.02}, 0.25, {}, 0, 0,
     Strategy::PrivateChain},
    {"shift-adv/private", {}, 0.25,
     {{1, 0, 0.0625}, {1, mh::kAdversary, 0.3125}}, 0, 0, Strategy::PrivateChain},
    {"shift-honest/random", {}, 0.2,
     {{1, 0, 0.30}, {1, 1, 0.05}, {2, 2, 0.25}, {2, 3, 0.05}}, 0, 0, Strategy::Randomized},
    {"grind-window4/private", {}, 0.25, {}, 4, 0, Strategy::PrivateChain},
    {"uniform/delta1/balance", {}, 0.25, {}, 0, 1, Strategy::Balance},
};
constexpr std::size_t kBandCellCount = sizeof(kBandCells) / sizeof(kBandCells[0]);

RunConfig band_run_config(const EpochBandCell& cell) {
  RunConfig config;
  config.stake.emplace();
  config.stake->consensus.f = 0.5;
  config.stake->consensus.epoch.epoch_length = 32;
  config.stake->consensus.epoch.nonce_window = cell.nonce_window;
  config.stake->honest_stakes = cell.honest_stakes;
  config.stake->adversarial_stake = cell.adversarial_stake;
  config.stake->shifts = cell.shifts;
  config.honest_parties = 6;
  config.strategy = cell.strategy;
  config.delta = cell.delta;
  config.target_slot = 2;
  config.k = 6;
  config.horizon = 96;
  return config;
}

struct BandOutcome {
  bool clean = false;
  std::size_t runs = 0;
  std::size_t violations = 0;  // 'V'
  std::size_t quiet = 0;       // '.' + 'a'
  std::size_t breaches = 0;    // '!'
  std::size_t ungraded = 0;    // 'u' — an epoch cell the oracle never graded
  std::size_t epoch_cells = 0; // graded per-epoch cells across the band
  bool pinned = false;         // quick band: the codes were compared to the pin
  bool pin_held = false;
};
BandOutcome g_band;
std::vector<std::string> g_cell_codes;  // per band cell, for the results JSON
bool g_dirty = false;                   // set by the timed iterations too

bool epoch_band_report() {
  const bool quick = mh::bench::env_flag("MH_EPOCH_QUICK");
  const std::size_t runs_per_cell = quick ? kQuickRuns : 16;
  const std::size_t threads = mh::engine::threads_from_env();
  std::printf(
      "epoch oracle band: %zu cells x %zu executions (seed %llu)\n"
      "(epoch-managed lottery, nonce folded from the chain; every run graded\n"
      " globally AND per epoch: 'u' = ungraded epoch cell, '!' = breach)\n\n",
      kBandCellCount, runs_per_cell, static_cast<unsigned long long>(kBandSeed));

  g_band = BandOutcome{};
  g_band.runs = kBandCellCount * runs_per_cell;
  std::string codes(g_band.runs, '?');
  std::vector<std::size_t> graded_cells(g_band.runs, 0);
  const mh::engine::SeedSequence streams(kBandSeed);
  // One counter-based stream per (cell, run): bit-identical across MH_THREADS.
  mh::engine::for_each_index(g_band.runs, threads, [&](std::size_t i) {
    const RunConfig config = band_run_config(kBandCells[i / runs_per_cell]);
    mh::Rng rng = streams.stream(i);
    const RunVerdict v = mh::oracle::check_execution(config, rng);
    codes[i] = v.code();
    graded_cells[i] = v.epochs.size();
  });

  mh::TextTable table({"cell", "strategy", "codes", "epochs"});
  bool clean = true;
  g_cell_codes.assign(kBandCellCount, "");
  for (std::size_t c = 0; c < kBandCellCount; ++c) {
    const std::string cell_codes = codes.substr(c * runs_per_cell, runs_per_cell);
    g_cell_codes[c] = cell_codes;
    std::size_t epochs = 0;
    for (std::size_t r = 0; r < runs_per_cell; ++r) {
      const char code = cell_codes[r];
      epochs += graded_cells[c * runs_per_cell + r];
      if (code == 'V') ++g_band.violations;
      if (code == '.' || code == 'a') ++g_band.quiet;
      if (code == '!' || code == 'u') {
        if (code == '!') ++g_band.breaches;
        if (code == 'u') ++g_band.ungraded;
        clean = false;
        std::printf("ORACLE BREACH '%c' in cell %s run %zu (band seed %llu, stream %zu)\n",
                    code, kBandCells[c].name, r, static_cast<unsigned long long>(kBandSeed),
                    c * runs_per_cell + r);
      }
    }
    g_band.epoch_cells += epochs;
    table.add_row({kBandCells[c].name, mh::strategy_name(kBandCells[c].strategy),
                   cell_codes, std::to_string(epochs)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "totals: %zu runs, %zu epoch cells graded, %zu violations, %zu quiet, "
      "%zu breaches, %zu ungraded -> %s\n\n",
      g_band.runs, g_band.epoch_cells, g_band.violations, g_band.quiet, g_band.breaches,
      g_band.ungraded, clean ? "clean" : "DIRTY");
  g_band.clean = clean;
  if (quick) {
    g_band.pinned = true;
    g_band.pin_held = codes == kQuickBandPin;
    std::printf("pin (quick band codes): %s\n  pinned %s -> %s\n\n", codes.c_str(),
                kQuickBandPin, g_band.pin_held ? "held" : "DRIFT");
  }
  return clean && (!quick || g_band.pin_held);
}

bool spotlight_report() {
  // One shifted-stake execution, unrolled: each epoch's realized symbol
  // counts against the law its stake snapshot induces.
  const RunConfig config = band_run_config(kBandCells[3]);  // shift-adv
  mh::Rng rng = mh::engine::SeedSequence(kBandSeed).stream(9001);
  const RunVerdict v = mh::oracle::check_execution(config, rng);
  std::printf("spotlight: %s, one execution (code '%c')\n", kBandCells[3].name, v.code());
  mh::TextTable table(
      {"epoch", "nonce", "slots", "Bot/h/H/A", "induced (pBot,ph,pH,pA)", "band"});
  for (const mh::oracle::EpochCell& cell : v.epochs) {
    char nonce_hex[24], counts[32], law[64];
    std::snprintf(nonce_hex, sizeof nonce_hex, "0x%012llx",
                  static_cast<unsigned long long>(cell.nonce));
    std::snprintf(counts, sizeof counts, "%zu/%zu/%zu/%zu", cell.counts[0], cell.counts[1],
                  cell.counts[2], cell.counts[3]);
    std::snprintf(law, sizeof law, "%.3f,%.3f,%.3f,%.3f", cell.induced.pBot, cell.induced.ph,
                  cell.induced.pH, cell.induced.pA);
    table.add_row({std::to_string(cell.epoch), nonce_hex, std::to_string(cell.slots), counts,
                   law, cell.law_within_band ? "within" : "OUTSIDE"});
  }
  std::printf("%s\n", table.render().c_str());
  return v.code() != '!' && v.code() != 'u';
}

// One graded epoch-managed execution end to end: lottery materialization,
// simulation, Definition-22 projection, per-epoch banding.
void BM_EpochExecution(benchmark::State& state) {
  const EpochBandCell& cell = kBandCells[static_cast<std::size_t>(state.range(0))];
  const RunConfig config = band_run_config(cell);
  const mh::engine::SeedSequence streams(kBandSeed);
  std::uint64_t i = 0;
  for (auto _ : state) {
    mh::Rng rng = streams.stream(i++);
    const RunVerdict v = mh::oracle::check_execution(config, rng);
    if (v.code() == '!' || v.code() == 'u') {
      g_dirty = true;
      state.SkipWithError("epoch execution broke an invariant");
    }
    benchmark::DoNotOptimize(v.all_graded);
  }
  state.SetLabel(cell.name);
}
BENCHMARK(BM_EpochExecution)->Arg(0)->Arg(3)->Arg(5)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  mh::bench::MainOptions options;
  options.post_run_clean = [] { return !g_dirty; };
  options.results = [] {
    mh::obs::Json cells = mh::obs::Json::array();
    for (std::size_t c = 0; c < kBandCellCount; ++c) {
      mh::obs::Json cell = mh::obs::Json::object();
      cell.set("name", kBandCells[c].name);
      cell.set("strategy", mh::strategy_name(kBandCells[c].strategy));
      cell.set("codes", c < g_cell_codes.size() ? g_cell_codes[c] : "");
      cells.push(std::move(cell));
    }
    mh::obs::Json results = mh::obs::Json::object();
    results.set("band_clean", g_band.clean);
    if (g_band.pinned) results.set("pin_held", g_band.pin_held);
    results.set("band_runs", static_cast<std::uint64_t>(g_band.runs));
    results.set("epoch_cells_graded", static_cast<std::uint64_t>(g_band.epoch_cells));
    results.set("violations", static_cast<std::uint64_t>(g_band.violations));
    results.set("quiet", static_cast<std::uint64_t>(g_band.quiet));
    results.set("breaches", static_cast<std::uint64_t>(g_band.breaches));
    results.set("ungraded", static_cast<std::uint64_t>(g_band.ungraded));
    results.set("cells", std::move(cells));
    return results;
  };
  return mh::bench::run_main(argc, argv, "epoch", [] {
    const bool band_ok = epoch_band_report();
    const bool spotlight_ok = spotlight_report();
    return band_ok && spotlight_ok;
  }, options);
}
