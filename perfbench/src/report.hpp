// The benchmark's result sheet and its summary statistics.
//
// A Report counts every checked operation (attempted / failed; a failure is a
// digest or verdict mismatch, an unclean cell, or a thrown error) and holds
// the named metrics of one run. It prints them as the single JSON object that
// ends the benchmark's standard output.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The workloads, in BENCHMARK.json order.
inline constexpr std::string_view kWorkloads[] = {"chain_growth", "committee_wide",
                                                  "adversarial_gossip", "settlement_analysis"};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every traced run reports exactly these (BENCHMARK.json "per_layer"). A
/// metric of a layer the workload never calls reads 0: no calls, no time.
inline constexpr MetricSpec kPerLayer[] = {
    {"sim.slot_p50_us", "us"},
    {"sim.slot_tail_us", "us"},
    {"sim.slot_tail_pct", "%"},
    {"sim.slot_samples", "count"},
    {"sim.blocks", "count"},
    {"sim.construct_s", "s"},
    {"adversary.self_s", "s"},
    {"adversary.calls", "count"},
    {"adversary.share", "ratio"},
    {"blocktree.add_ns", "ns"},
    {"blocktree.adds", "count-computed"},
    {"blocktree.arena_warmup_s", "s"},
    {"node.receive_ns", "ns"},
    {"node.orphans_buffered", "count"},
    {"network.ship_ns", "ns"},
    {"network.shipped_per_needed", "ratio"},
    {"faults.injected", "count"},
    {"faults.resync_blocks", "count"},
    {"faults.leaderships_skipped", "count"},
    {"net.observed_delta", "slots"},
    {"oracle.check_p50_us", "us"},
    {"oracle.check_tail_us", "us"},
    {"oracle.check_tail_pct", "%"},
    {"oracle.check_samples", "count"},
    {"dp.law_series_p50_s", "s"},
    {"dp.law_series_max_s", "s"},
    {"engine.sweep_efficiency", "ratio"},
    {"engine.matrix_efficiency", "ratio"},
    {"engine.threads", "count"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

/// Metric names are [A-Za-z0-9_.-]+, at most 64 characters, starting with a
/// letter or a digit.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;

/// Median of the samples (mean of the middle two for even counts); 0 when empty.
[[nodiscard]] double median(std::vector<double> samples);

/// A timing distribution summarized as its median and its tail: the highest
/// percentile of the ladder 50, 90, 99, 99.9, ... that has at least
/// `kMinBeyond` samples strictly beyond it (nearest rank). With fewer than
/// 2 * kMinBeyond samples no percentile qualifies and `tail_pct` is 0.
struct Distribution {
  static constexpr std::size_t kMinBeyond = 10;

  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;    ///< the percentile `tail` reports (0: too few samples)
  std::size_t beyond = 0;   ///< samples strictly above the tail's rank
  std::size_t samples = 0;
};
[[nodiscard]] Distribution summarize(std::vector<double> samples);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// Counts one checked operation; a false `ok` is a failure and `what`
  /// goes to stderr.
  void check(bool ok, std::string_view what);

  /// Records a metric; throws std::invalid_argument on a malformed name, a
  /// non-finite value, or a name recorded twice.
  void set(std::string_view name, double value, std::string_view unit);

  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }
  [[nodiscard]] double error_rate() const noexcept {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) / static_cast<double>(attempted_);
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const Metric* find(std::string_view name) const noexcept;

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json() const;

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Monotonic wall clock in seconds.
[[nodiscard]] double now_s();

}  // namespace perfbench
