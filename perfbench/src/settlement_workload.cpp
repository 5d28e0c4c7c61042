#include "settlement_workload.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "analysis/sweep.hpp"
#include "chars/bernoulli.hpp"
#include "core/exact_dp.hpp"
#include "oracle/scenario.hpp"
#include "engine/seed_sequence.hpp"
#include "engine/thread_pool.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMaxDepth = 250;
/// check_execution calls per matrix cell in the traced oracle pass.
constexpr std::size_t kOracleRunsPerCell = 30;

/// The pool width: 4, or fewer on a machine with fewer hardware threads.
std::size_t settlement_threads() {
  return std::min<std::size_t>(4, mh::engine::default_threads());
}

/// The 36 Table-1 laws: Pr[A] = alpha, Pr[h] = ratio * (1 - alpha).
std::vector<mh::SymbolLaw> table1_laws() {
  constexpr double kAlphas[] = {0.01, 0.10, 0.20, 0.30, 0.40, 0.49};
  constexpr double kRatios[] = {1.0, 0.9, 0.8, 0.5, 0.25, 0.01};
  std::vector<mh::SymbolLaw> laws;
  for (const double ratio : kRatios)
    for (const double alpha : kAlphas) laws.push_back(mh::table1_law(alpha, ratio));
  return laws;
}

/// The large matrix of bench_oracle at 50 runs a cell, seeded by `seed`.
mh::oracle::MatrixConfig large_matrix(std::uint64_t seed, std::size_t threads) {
  mh::oracle::MatrixConfig config;
  config.runs = 50;
  config.horizon = 160;
  config.target_slot = 4;
  config.k = 10;
  config.mc_samples = 20000;
  config.threads = threads;
  config.seed = seed;
  return config;
}

/// FNV fold of every P(k) of every series, as IEEE doubles, in law order.
std::uint64_t series_checksum(const std::vector<mh::SettlementSeries>& series) {
  std::uint64_t d = mh::kFnvOffsetBasis;
  for (const mh::SettlementSeries& s : series)
    for (const long double p : s.violation) {
      const double value = static_cast<double>(p);
      std::uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof bits);
      d = mh::fnv1a_accumulate(d, bits);
    }
  return d;
}

struct SweepPass {
  std::vector<mh::SettlementSeries> series;
  double wall_s = 0.0;
  double busy_s = 0.0;  ///< summed per-cell time (traced replica only)
};

struct MatrixPass {
  mh::oracle::MatrixResult result;
  double wall_s = 0.0;
  double busy_s = 0.0;
};

/// Per-cell [start, end) clock readings, taken on pool workers and turned
/// into spans by the caller once the fan-out has joined.
struct CellClock {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

double add_cell_spans(Tracer& tracer, const char* name, std::uint32_t parent,
                      const std::vector<CellClock>& cells) {
  double busy = 0.0;
  for (const CellClock& c : cells) {
    tracer.add(name, c.start, c.end, parent);
    busy += static_cast<double>(c.end - c.start) * 1e-9;
  }
  return busy;
}

SweepPass sweep(const std::vector<mh::SymbolLaw>& laws, std::size_t threads, Tracer* tracer) {
  SweepPass pass;
  const double start = now_s();
  if (tracer == nullptr) {
    mh::SweepOptions opt;
    opt.threads = threads;
    pass.series = mh::sweep_settlement_series(laws, kMaxDepth, opt);
    pass.wall_s = now_s() - start;
    return pass;
  }
  // The library sweep's own fan-out, one timed exact_settlement_series per cell.
  pass.series.resize(laws.size());
  std::vector<CellClock> clocks(laws.size());
  std::uint32_t id = 0;
  {
    const auto span = tracer->scope("engine.sweep");
    id = span.id();
    mh::engine::for_each_index(laws.size(), threads, [&](std::size_t i) {
      clocks[i].start = now_ns();
      pass.series[i] = mh::exact_settlement_series(laws[i], kMaxDepth);
      clocks[i].end = now_ns();
    });
  }
  pass.wall_s = now_s() - start;
  pass.busy_s = add_cell_spans(*tracer, "engine.sweep.cell", id, clocks);
  return pass;
}

/// Axes of cell `idx` of a default-axes matrix, inverted the way
/// run_scenario_matrix lays cells out (row-major tie, delta, strategy, law).
struct CellAxes {
  std::size_t tie_i, delta_i, strategy_i, law_i;
};

CellAxes cell_axes(const mh::oracle::MatrixConfig& config, std::size_t n_laws,
                   std::size_t idx) {
  CellAxes a{};
  a.law_i = idx % n_laws;
  idx /= n_laws;
  a.strategy_i = idx % config.strategies.size();
  idx /= config.strategies.size();
  a.delta_i = idx % config.deltas.size();
  a.tie_i = idx / config.deltas.size();
  return a;
}

std::size_t cell_count(const mh::oracle::MatrixConfig& config, std::size_t n_laws) {
  return config.tie_breaks.size() * config.deltas.size() * config.strategies.size() * n_laws;
}

/// The one-cell matrix that reproduces cell `idx` of `config`: a matrix
/// derives cell i's seed as SeedSequence(seed).derive(i), and derive(i) of
/// root r equals derive(0) of root r + i * 0x9e3779b97f4a7c15. The caller
/// checks that identity before trusting the replica.
mh::oracle::MatrixConfig single_cell(const mh::oracle::MatrixConfig& config,
                                     const std::vector<mh::oracle::NamedLaw>& laws,
                                     std::size_t idx) {
  const CellAxes a = cell_axes(config, laws.size(), idx);
  mh::oracle::MatrixConfig one = config;
  one.tie_breaks = {config.tie_breaks[a.tie_i]};
  one.deltas = {config.deltas[a.delta_i]};
  one.strategies = {config.strategies[a.strategy_i]};
  one.laws = {laws[a.law_i]};
  one.threads = 1;
  one.seed = config.seed + 0x9e3779b97f4a7c15ULL * idx;
  return one;
}

MatrixPass matrix(const mh::oracle::MatrixConfig& config, Tracer* tracer, Report& report) {
  MatrixPass pass;
  const double start = now_s();
  if (tracer == nullptr) {
    pass.result = mh::oracle::run_scenario_matrix(config);
    pass.wall_s = now_s() - start;
    return pass;
  }
  // The matrix's own fan-out, one timed one-cell run_scenario_matrix per cell.
  const std::vector<mh::oracle::NamedLaw> laws = mh::oracle::default_matrix_laws();
  const std::size_t n = cell_count(config, laws.size());
  pass.result.cells.resize(n);
  std::vector<CellClock> clocks(n);
  std::uint32_t id = 0;
  {
    const auto span = tracer->scope("engine.matrix");
    id = span.id();
    mh::engine::for_each_index(n, config.threads, [&](std::size_t idx) {
      clocks[idx].start = now_ns();
      mh::oracle::MatrixResult one =
          mh::oracle::run_scenario_matrix(single_cell(config, laws, idx));
      one.cells.front().law_index = cell_axes(config, laws.size(), idx).law_i;
      pass.result.cells[idx] = std::move(one.cells.front());
      clocks[idx].end = now_ns();
    });
  }
  pass.wall_s = now_s() - start;
  pass.busy_s = add_cell_spans(*tracer, "engine.matrix.cell", id, clocks);
  bool seeds_ok = true;
  for (std::size_t idx = 0; idx < n; ++idx) {
    const std::uint64_t one_cell_seed = single_cell(config, laws, idx).seed;
    seeds_ok = seeds_ok && mh::engine::SeedSequence(one_cell_seed).derive(0) ==
                               mh::engine::SeedSequence(config.seed).derive(idx);
  }
  report.check(seeds_ok, "one-cell matrices reproduce the full matrix's cell seeds");
  return pass;
}

/// One check_execution per (cell, run) of the matrix's first runs, serial,
/// each under an "oracle.check" span. Run 0 of every cell must reproduce the
/// matrix's pinned first-run code.
void oracle_checks(const mh::oracle::MatrixConfig& config,
                   const mh::oracle::MatrixResult& reference, Tracer& tracer, Report& report) {
  const std::vector<mh::oracle::NamedLaw> laws = mh::oracle::default_matrix_laws();
  const mh::engine::SeedSequence cell_seeds(config.seed);
  const std::string want = mh::oracle::first_run_codes(reference);
  std::string got;
  std::size_t undominated = 0;
  for (std::size_t idx = 0; idx < cell_count(config, laws.size()); ++idx) {
    const CellAxes a = cell_axes(config, laws.size(), idx);
    mh::oracle::RunConfig rc;
    rc.law = laws[a.law_i].law;
    rc.tie_break = config.tie_breaks[a.tie_i];
    rc.strategy = config.strategies[a.strategy_i];
    rc.delta = config.deltas[a.delta_i];
    rc.target_slot = config.target_slot;
    rc.k = config.k;
    rc.horizon = config.horizon;
    rc.honest_parties = config.honest_parties;
    const mh::engine::SeedSequence runs(cell_seeds.derive(idx));
    for (std::size_t r = 0; r < kOracleRunsPerCell; ++r) {
      mh::Rng rng = runs.stream(r);
      mh::oracle::RunVerdict v;
      {
        const auto span = tracer.scope("oracle.check");
        v = mh::oracle::check_execution(rc, rng);
      }
      if (r == 0) got.push_back(v.code());
      if (!v.dominated()) ++undominated;
    }
  }
  report.check(got == want, "oracle first-run codes " + got + ", matrix pinned " + want);
  report.check(undominated == 0,
               std::to_string(undominated) + " oracle checks broke the domination invariants");
}

/// The law grid and the matrix configuration: the workload's whole input.
struct SettlementInputs {
  std::vector<mh::SymbolLaw> laws;
  mh::oracle::MatrixConfig config;
};

/// Builds the inputs `reps` times, so the median build time is steady
/// although one build takes about a microsecond.
SettlementInputs build_inputs(std::uint64_t seed, std::size_t threads, std::size_t reps,
                              double* median_s) {
  SettlementInputs inputs;
  std::vector<double> times;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    inputs.laws = table1_laws();
    for (const mh::SymbolLaw& law : inputs.laws) law.validate();
    inputs.config = large_matrix(mh::engine::SeedSequence(seed).derive(0), threads);
    inputs.config.laws = mh::oracle::default_matrix_laws();
    times.push_back(now_s() - t0);
  }
  if (median_s != nullptr) *median_s = median(times);
  return inputs;
}

double matrix_slots(const mh::oracle::MatrixConfig& config) {
  return static_cast<double>(config.runs * config.horizon *
                             cell_count(config, config.laws.size()));
}

/// The checks on every sweep and matrix of a run: the series checksum, clean
/// cells, and the first matrix's first-run codes pinning the rest.
class PassChecks {
 public:
  explicit PassChecks(Report& report) : report_(report) {}

  void sweep(const SweepPass& pass, const char* what) {
    const std::uint64_t sum = series_checksum(pass.series);
    report_.check(sum == kTable1SeriesChecksum,
                  std::string(what) + " series checksum " + std::to_string(sum));
  }

  void matrix(const MatrixPass& pass, const char* what) {
    report_.check(pass.result.all_clean(), std::string(what) + " matrix has an unclean cell");
    const std::string got = mh::oracle::first_run_codes(pass.result);
    if (codes_.empty()) codes_ = got;
    report_.check(got == codes_,
                  std::string(what) + " first-run codes " + got + ", pinned " + codes_);
  }

 private:
  Report& report_;
  std::string codes_;
};

class SettlementServer final : public WorkloadServer {
 public:
  SettlementServer(std::uint64_t seed, Report& report)
      : seed_(seed), threads_(settlement_threads()), report_(report), checks_(report) {
    // Untimed warm-up: the pool's threads and first allocations.
    const SettlementInputs inputs = build_inputs(seed_, threads_, 1, nullptr);
    checks_.sweep(sweep(inputs.laws, threads_, nullptr), "warm-up sweep");
    checks_.matrix(matrix(inputs.config, nullptr, report_), "warm-up");
  }

  Step step() override {
    double setup_s = 0.0;
    const SettlementInputs inputs = build_inputs(seed_, threads_, kSetupReps, &setup_s);
    const double t0 = now_s();
    const SweepPass s = sweep(inputs.laws, threads_, nullptr);
    checks_.sweep(s, "sweep");
    const MatrixPass m = matrix(inputs.config, nullptr, report_);
    checks_.matrix(m, "scenario");
    return Step{setup_s, now_s() - t0, m.wall_s, matrix_slots(inputs.config)};
  }

 private:
  static constexpr std::size_t kSetupReps = 1000;

  const std::uint64_t seed_;
  const std::size_t threads_;
  Report& report_;
  PassChecks checks_;
};

}  // namespace

std::unique_ptr<WorkloadServer> settlement_server(std::uint64_t seed, Report& report) {
  return std::make_unique<SettlementServer>(seed, report);
}

void run_settlement(const RunOptions& options, Report& report) {
  Tracer* tracer = options.tracer;
  const std::size_t threads = settlement_threads();
  const SettlementInputs inputs = build_inputs(options.seed, threads, 1, nullptr);
  const std::vector<mh::SymbolLaw>& laws = inputs.laws;
  const mh::oracle::MatrixConfig& config = inputs.config;
  PassChecks checks(report);

  // Untraced passes through the library entry points. The first is the
  // reference the traced replicas must reproduce; the second, warm, is the
  // baseline of the tracing overhead.
  checks.sweep(sweep(laws, threads, nullptr), "library sweep");
  const MatrixPass reference = matrix(config, nullptr, report);
  checks.matrix(reference, "library");
  const SweepPass untraced_sweep = sweep(laws, threads, nullptr);
  checks.sweep(untraced_sweep, "library sweep");
  const MatrixPass untraced_matrix = matrix(config, nullptr, report);
  checks.matrix(untraced_matrix, "library");
  const double untraced_pass_s = untraced_sweep.wall_s + untraced_matrix.wall_s;

  std::vector<double> sweep_s, matrix_s, sweep_eff, matrix_eff;
  const double start = now_s();
  for (std::size_t i = 0; i == 0 || now_s() - start < options.seconds; ++i) {
    tracer->set_run(static_cast<std::uint32_t>(i + 1));
    const SweepPass s = sweep(laws, threads, tracer);
    checks.sweep(s, "sweep");
    const MatrixPass m = matrix(config, tracer, report);
    checks.matrix(m, "scenario");
    report.check(m.result.cells == reference.result.cells,
                 "one-cell replicas reproduce every cell verdict of the matrix");
    sweep_s.push_back(s.wall_s);
    matrix_s.push_back(m.wall_s);
    sweep_eff.push_back(s.busy_s / (static_cast<double>(threads) * s.wall_s));
    matrix_eff.push_back(m.busy_s / (static_cast<double>(threads) * m.wall_s));
  }

  // Single-thread kernel timing: one exact_settlement_series per law.
  std::vector<mh::SettlementSeries> serial;
  for (const mh::SymbolLaw& law : laws) {
    const auto span = tracer->scope("dp.law_series");
    serial.push_back(mh::exact_settlement_series(law, kMaxDepth));
  }
  report.check(series_checksum(serial) == kTable1SeriesChecksum, "serial series checksum");
  oracle_checks(config, reference.result, *tracer, report);

  const std::vector<double> law_series = tracer->durations("dp.law_series");
  const Distribution check = summarize(tracer->durations("oracle.check"));
  report.set("oracle.check_p50_us", check.p50 * 1e6, "us");
  report.set("oracle.check_tail_us", check.tail * 1e6, "us");
  report.set("oracle.check_tail_pct", check.tail_pct, "%");
  report.set("oracle.check_samples", static_cast<double>(check.samples), "count");
  report.set("dp.law_series_p50_s", median(law_series), "s");
  report.set("dp.law_series_max_s", *std::max_element(law_series.begin(), law_series.end()),
             "s");
  report.set("engine.sweep_efficiency", median(sweep_eff), "ratio");
  report.set("engine.matrix_efficiency", median(matrix_eff), "ratio");
  report.set("engine.threads", static_cast<double>(threads), "count");
  report.set("trace.overhead_s", sweep_s.front() + matrix_s.front() - untraced_pass_s, "s");
}

}  // namespace perfbench
