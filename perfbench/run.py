#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to .bench_build/ (configured
once, then incremental); build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. A failed build exits 1 without a
result.

--trace 0 runs the workload on two builds of the library at once: the
checkout's (perfbench) and the frozen reference copy under
perfbench/reference (perfbench_reference). Both start on the same seed and
warm up; then this script has them take one step each, alternately and never
together, for --seconds. Each end-to-end time is the median over steps of
current / reference, scaled by what the reference step takes on the machine
the figures in REFERENCE were measured on. The host is shared and its speed
drifts by three times and more between runs; both builds see the same drift,
so the ratio stays put while a change to the library moves it.

--trace 1 runs the checkout's build alone, traced, and reports the per-layer
metrics; its spans go to .bench_build/traces/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("chain_growth", "committee_wide", "adversarial_gossip", "settlement_analysis")

# The reference build's wall-clock step figures on the machine named in
# perfbench/README.md: medians over five runs of 25 s, seeds 11-15. A
# reference second is a second of that machine in that state.
REFERENCE = {
    "chain_growth": {"setup_s": 6.24e-4, "pass_s": 0.2473, "slots_per_s": 40691.0},
    "committee_wide": {"setup_s": 0.02512, "pass_s": 0.3602, "slots_per_s": 75.18},
    "adversarial_gossip": {"setup_s": 8.41e-5, "pass_s": 0.7082, "slots_per_s": 1418.5},
    "settlement_analysis": {"setup_s": 6.35e-7, "pass_s": 0.4556, "slots_per_s": 1.34467e6},
}


def build():
    env = dict(os.environ)
    # Keep any compiler cache inside the checkout, and off.
    env["CCACHE_DISABLE"] = "1"
    env["CCACHE_DIR"] = os.path.join(BUILD, "ccache")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "perfbench_reference",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


class Server:
    """One build of the benchmark in --serve mode (see src/main.cpp)."""

    def __init__(self, name, workload, seed):
        self.name = name
        self.proc = subprocess.Popen(
            [os.path.join(BUILD, name), "--serve", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def read(self, word):
        fields = self.proc.stdout.readline().split()
        if not fields or fields[0] != word:
            raise RuntimeError("%s: expected '%s', got %r" % (self.name, word, fields))
        return [float(f) for f in fields[1:]]

    def send(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def step(self):
        self.send("step")
        setup_s, pass_s, run_s, slots = self.read("step")
        return {"setup_s": setup_s, "pass_s": pass_s, "run_s": run_s, "slots": slots}

    def end(self):
        """Ends the server; returns (attempted, failed, peak RSS in MiB)."""
        self.send("end")
        attempted, failed, rss = self.read("end")
        self.proc.stdin.close()
        self.proc.wait()
        return int(attempted), int(failed), rss

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def listed_end_to_end():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)["end_to_end"]]


def paired_run(workload, seed, seconds):
    """The untraced run. Returns (attempted, failed, metrics)."""
    # Once warm, both builds move to the same processor: the host's
    # processors differ in speed, and a process tends to stay where it
    # started. The protocol workloads run one thread; settlement's pool
    # keeps every processor.
    servers = [Server(name, workload, seed) for name in ("perfbench", "perfbench_reference")]
    try:
        for server in servers:
            server.read("ready")  # both warm up at once; nothing is timed yet
        if workload != "settlement_analysis":
            cpu = max(os.sched_getaffinity(0))
            for server in servers:
                os.sched_setaffinity(server.proc.pid, {cpu})
        pairs = []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            current_first = len(pairs) % 2 == 0
            first, second = servers if current_first else servers[::-1]
            a, b = first.step(), second.step()
            pairs.append((a, b) if current_first else (b, a))
            now = time.monotonic()
            # Stop before a step pair would run past --seconds.
            if now - start + (now - began) > seconds:
                break
        ends = [server.end() for server in servers]
    finally:
        for server in servers:
            server.stop()

    def ratio(key):
        return statistics.median(cur[key] / ref[key] for cur, ref in pairs)

    def wall(side, key):
        return statistics.median(pair[side][key] for pair in pairs)

    for side, name in ((0, "current"), (1, "reference")):
        print("%s wall medians over %d steps: setup_s %.6g  pass_s %.6g  slots_per_s %.6g"
              % (name, len(pairs), wall(side, "setup_s"), wall(side, "pass_s"),
                 statistics.median(p[side]["slots"] / p[side]["run_s"] for p in pairs)))
    print("current / reference: setup %.4f  pass %.4f  run %.4f"
          % (ratio("setup_s"), ratio("pass_s"), ratio("run_s")))

    base = REFERENCE[workload]
    metrics = {
        "setup_s": (ratio("setup_s") * base["setup_s"], "s"),
        "pass_s": (ratio("pass_s") * base["pass_s"], "s"),
        "slots_per_s": (base["slots_per_s"] / ratio("run_s"), "1/s"),
        "peak_rss_mb": (ends[0][2], "MB"),
    }
    listed = listed_end_to_end() == [(name, unit) for name, (_, unit) in metrics.items()]
    if not listed:
        print("perfbench: FAILED BENCHMARK.json lists other end-to-end metrics", file=sys.stderr)
    attempted = sum(end[0] for end in ends) + 1
    failed = sum(end[1] for end in ends) + (0 if listed else 1)
    return attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed wants a non-negative integer and --seconds a positive number")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.trace == "1":
        trace = os.path.join(BUILD, "traces", "%s-seed%d.jsonl" % (args.workload, args.seed))
        return subprocess.run(
            [os.path.join(BUILD, "perfbench"), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", repr(args.seconds), "--trace", "1", "--trace-out",
             trace], cwd=ROOT).returncode

    attempted, failed, metrics = paired_run(args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
