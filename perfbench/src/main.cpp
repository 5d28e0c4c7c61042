// The repository benchmark's program: one workload per process, in one of
// two modes.
//
//   perfbench --workload <name> --seed <n> --serve
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 1
//             [--trace-out <path>]
//
// Both modes first check the two golden transport pins.
//
// --serve is the untraced run, driven by perfbench/run.py over stdin and
// stdout. After its warm-up the program prints "ready"; each "step" line on
// stdin runs one checked operation and answers
// "step <setup_s> <pass_s> <run_s> <slots>" in wall-clock seconds. At "end"
// or end of input it answers "end <attempted> <failed> <peak_rss_mb>" and
// exits, 1 if any check failed.
//
// --trace 1 runs the traced closed loop for `--seconds`, writes every span to
// the trace file, and prints the per-layer metrics as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. Any failed check
// exits 1; a usage error exits 2 without a result line.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>

#include "protocol/transport_probe.hpp"
#include "protocol_workloads.hpp"
#include "report.hpp"
#include "settlement_workload.hpp"
#include "trace.hpp"

namespace {

using perfbench::MetricSpec;
using perfbench::Report;
using perfbench::kPerLayer;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool serve = false;
  double seconds = 0.0;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload chain_growth|committee_wide|adversarial_gossip|"
               "settlement_analysis --seed N (--serve | --seconds S --trace 1 "
               "[--trace-out PATH])\n",
               problem.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (flag == "--serve") {
      args.serve = true;
      --i;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && value[0] != '-' && *end == '\0';
      if (!have_seed) usage("--seed wants a non-negative integer, got '" + value + "'");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && args.seconds > 0.0;
      if (!have_seconds) usage("--seconds wants a positive number, got '" + value + "'");
    } else if (flag == "--trace") {
      have_trace = value == "1";
      if (!have_trace) usage("--trace wants 1; the untraced run is --serve");
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (args.workload.empty() || !have_seed)
    usage("--workload and --seed are required");
  if (args.serve == (have_seconds || have_trace))
    usage("give either --serve or --seconds and --trace 1");
  if (!args.serve && !(have_seconds && have_trace))
    usage("the traced run wants --seconds and --trace 1");
  if (args.trace_out.empty()) args.trace_out = args.workload + ".trace.jsonl";
  return args;
}

/// The two golden transport pins, checked before anything is timed.
void check_golden_pins(Report& report) {
  const mh::TransportProbeOutcome balance = mh::balance_transport_probe(
      mh::kBalanceProbePinParties, mh::kBalanceProbePinHorizon, mh::kBalanceProbePinSeed);
  report.check(balance.digest == mh::kBalanceProbePinDigest, "balance transport pin drifted");
  const mh::TransportProbeOutcome randomized = mh::randomized_transport_probe(
      mh::kRandomizedProbePinParties, mh::kRandomizedProbePinHorizon,
      mh::kRandomizedProbePinSeed, mh::kRandomizedProbePinDelta);
  report.check(randomized.digest == mh::kRandomizedProbePinDigest,
               "randomized transport pin drifted");
}

std::unique_ptr<perfbench::WorkloadServer> make_server(const Args& args, Report& report) {
  if (args.workload == "chain_growth")
    return perfbench::protocol_server(perfbench::chain_growth_shape(), args.seed, report);
  if (args.workload == "committee_wide")
    return perfbench::protocol_server(perfbench::committee_wide_shape(), args.seed, report);
  if (args.workload == "adversarial_gossip")
    return perfbench::protocol_server(perfbench::adversarial_gossip_shape(), args.seed, report);
  return perfbench::settlement_server(args.seed, report);
}

void run_traced(const Args& args, perfbench::Tracer& tracer, Report& report) {
  const perfbench::RunOptions options{args.seed, args.seconds, &tracer};
  if (args.workload == "chain_growth") {
    perfbench::run_protocol(perfbench::chain_growth_shape(), options, report);
  } else if (args.workload == "committee_wide") {
    perfbench::run_protocol(perfbench::committee_wide_shape(), options, report);
  } else if (args.workload == "adversarial_gossip") {
    perfbench::run_protocol(perfbench::adversarial_gossip_shape(), options, report);
  } else {
    perfbench::run_settlement(options, report);
  }
}

/// The untraced run: answers "step" lines until "end" or end of input.
int serve(const Args& args) {
  Report report;
  try {
    check_golden_pins(report);
    const std::unique_ptr<perfbench::WorkloadServer> server = make_server(args, report);
    std::printf("ready\n");
    std::fflush(stdout);
    std::string line;
    while (std::getline(std::cin, line) && line == "step") {
      const perfbench::Step s = server->step();
      std::printf("step %.17g %.17g %.17g %.17g\n", s.setup_s, s.pass_s, s.run_s, s.slots);
      std::fflush(stdout);
    }
    const double rss_mb = perfbench::peak_rss_mb();
    server->finish();
    std::printf("end %zu %zu %.17g\n", report.attempted(), report.failed(), rss_mb);
    std::fflush(stdout);
    return report.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    report.check(false, std::string("thrown: ") + e.what());
  }
  std::printf("end %zu %zu %.17g\n", report.attempted(), report.failed(),
              perfbench::peak_rss_mb());
  std::fflush(stdout);
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (std::find(std::begin(perfbench::kWorkloads), std::end(perfbench::kWorkloads),
                args.workload) == std::end(perfbench::kWorkloads))
    usage("unknown workload '" + args.workload + "'");
  if (args.serve) return serve(args);

  Report report;
  perfbench::Tracer tracer;
  try {
    check_golden_pins(report);
    run_traced(args, tracer, report);
    report.check(tracer.write(args.trace_out), "writing the trace to " + args.trace_out);
    report.set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
    for (const MetricSpec& spec : kPerLayer)
      if (report.find(spec.name) == nullptr) report.set(spec.name, 0.0, spec.unit);
    // The result must carry exactly the per-layer metrics.
    bool complete = report.metrics().size() == std::size(kPerLayer);
    for (const MetricSpec& spec : kPerLayer) complete = complete && report.find(spec.name) != nullptr;
    report.check(complete, "the result carries exactly the per-layer metrics");
  } catch (const std::exception& e) {
    report.check(false, std::string("thrown: ") + e.what());
  }

  std::printf("workload %s seed %llu: %zu checks, %zu failed, error_rate %.6f\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              report.attempted(), report.failed(), report.error_rate());
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.failed() == 0 ? 0 : 1;
}
