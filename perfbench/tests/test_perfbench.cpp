// The benchmark's own tests: the tail-percentile rule, metric-name
// validation, error accounting, and that tracing cannot change outputs.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "protocol/transport_probe.hpp"
#include "protocol_workloads.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace {

using perfbench::Distribution;
using perfbench::summarize;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted
  return v;
}

TEST(Percentile, TooFewSamplesReportNoTail) {
  const Distribution d = summarize(one_to(19));
  EXPECT_EQ(d.samples, 19u);
  EXPECT_EQ(d.tail_pct, 0.0);
  EXPECT_EQ(d.p50, 10.0);
}

TEST(Percentile, TailKeepsAtLeastTenSamplesBeyond) {
  struct Case {
    std::size_t n;
    double pct;
    double value;
    std::size_t beyond;
  };
  const Case cases[] = {
      {20, 50.0, 10.0, 10},     {99, 50.0, 50.0, 49},       {100, 90.0, 90.0, 10},
      {999, 90.0, 900.0, 99},   {1000, 99.0, 990.0, 10},    {10000, 99.9, 9990.0, 10},
      {19999, 99.9, 19980.0, 19}, {100000, 99.99, 99990.0, 10},
  };
  for (const Case& c : cases) {
    const Distribution d = summarize(one_to(c.n));
    EXPECT_EQ(d.samples, c.n);
    EXPECT_EQ(d.tail_pct, c.pct) << "n = " << c.n;
    EXPECT_EQ(d.tail, c.value) << "n = " << c.n;
    EXPECT_EQ(d.beyond, c.beyond) << "n = " << c.n;
    EXPECT_GE(d.beyond, Distribution::kMinBeyond);
    // Exactly `beyond` samples lie strictly above the reported value.
    EXPECT_EQ(static_cast<double>(c.n) - d.tail, static_cast<double>(d.beyond));
  }
}

TEST(Percentile, MedianOfEvenCountAveragesTheMiddle) {
  EXPECT_EQ(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(perfbench::median({}), 0.0);
}

TEST(MetricNames, AcceptOnlyTheContractAlphabet) {
  EXPECT_TRUE(perfbench::valid_metric_name("sim.slot_p50_us"));
  EXPECT_TRUE(perfbench::valid_metric_name("0-a_b.c"));
  EXPECT_TRUE(perfbench::valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(perfbench::valid_metric_name(""));
  EXPECT_FALSE(perfbench::valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(perfbench::valid_metric_name("_leading"));
  EXPECT_FALSE(perfbench::valid_metric_name(".leading"));
  EXPECT_FALSE(perfbench::valid_metric_name("has space"));
  EXPECT_FALSE(perfbench::valid_metric_name("slash/name"));
  EXPECT_FALSE(perfbench::valid_metric_name("quote\""));
}

TEST(MetricNames, EveryReportedMetricIsWellFormed) {
  for (const perfbench::MetricSpec& spec : perfbench::kPerLayer)
    EXPECT_TRUE(perfbench::valid_metric_name(spec.name)) << spec.name;
}

TEST(MetricNames, BenchmarkJsonListsWhatTheRunsReport) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();

  // Metric entries carry a unit; workload entries carry a why. The traced
  // run reports the per-layer list; run.py checks the end-to-end list.
  std::vector<std::string> listed, workloads;
  const std::size_t per_layer = json.find("\"per_layer\"");
  ASSERT_NE(per_layer, std::string::npos);
  const std::regex metric(R"re("name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)")re");
  for (std::sregex_iterator it(json.begin() + per_layer, json.end(), metric), end; it != end;
       ++it)
    listed.push_back((*it)[1].str() + " " + (*it)[2].str());
  const std::regex workload(R"re("name":\s*"([^"]+)",\s*"why")re");
  for (std::sregex_iterator it(json.begin(), json.end(), workload), end; it != end; ++it)
    workloads.push_back((*it)[1].str());

  std::vector<std::string> reported;
  for (const perfbench::MetricSpec& spec : perfbench::kPerLayer)
    reported.push_back(std::string(spec.name) + " " + spec.unit);
  EXPECT_EQ(listed, reported);
  EXPECT_EQ(workloads, std::vector<std::string>(std::begin(perfbench::kWorkloads),
                                                std::end(perfbench::kWorkloads)));
}

TEST(Report, RejectsMalformedDuplicateAndNonFiniteMetrics) {
  perfbench::Report report;
  report.set("ok.name", 1.0, "s");
  EXPECT_THROW(report.set("ok.name", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(report.set("bad name", 1.0, "s"), std::invalid_argument);
  EXPECT_THROW(report.set("nan", std::numeric_limits<double>::quiet_NaN(), "s"),
               std::invalid_argument);
  ASSERT_EQ(report.metrics().size(), 1u);
}

TEST(Report, ErrorRateCountsFailedAgainstAttempted) {
  perfbench::Report report;
  EXPECT_EQ(report.error_rate(), 0.0);
  report.check(true, "a");
  report.check(true, "b");
  report.check(true, "c");
  EXPECT_EQ(report.error_rate(), 0.0);
  EXPECT_NE(report.json().find("\"correct\": true"), std::string::npos);
  report.check(false, "digest mismatch");
  report.check(false, "thrown");
  EXPECT_EQ(report.attempted(), 5u);
  EXPECT_EQ(report.failed(), 2u);
  EXPECT_DOUBLE_EQ(report.error_rate(), 0.4);
  const std::string json = report.json();
  EXPECT_NE(json.find("\"correct\": false"), std::string::npos);
  EXPECT_NE(json.find("\"attempted\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"failed\": 2"), std::string::npos);
}

TEST(Report, JsonCarriesEveryMetricWithItsUnit) {
  perfbench::Report report;
  report.check(true, "x");
  report.set("setup_s", 0.125, "s");
  report.set("slots_per_s", 8500.5, "1/s");
  EXPECT_EQ(report.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"
            "\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}, "
            "\"slots_per_s\": {\"value\": 8500.5, \"unit\": \"1/s\"}}}");
}

TEST(Tracer, ScopesNestAndCloseInOrder) {
  perfbench::Tracer tracer;
  tracer.set_run(7);
  {
    const auto outer = tracer.scope("outer");
    const auto inner = tracer.scope("inner");
    EXPECT_EQ(inner.id(), outer.id() + 1);
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[0].parent, 0u);
  EXPECT_EQ(tracer.spans()[1].parent, tracer.spans()[0].id);
  EXPECT_EQ(tracer.spans()[1].run, 7u);
  EXPECT_GE(tracer.spans()[0].end_ns, tracer.spans()[1].end_ns);
  EXPECT_EQ(tracer.durations("inner").size(), 1u);
}

/// The workload shapes, shrunk so each execution takes milliseconds.
perfbench::ProtocolShape small(perfbench::ProtocolShape shape, std::size_t parties,
                               std::size_t horizon) {
  shape.parties = parties;
  shape.horizon = horizon;
  return shape;
}

TEST(Tracing, TracedAndUntracedExecutionsFoldToTheSameDigest) {
  const perfbench::ProtocolShape shapes[] = {
      small(perfbench::chain_growth_shape(), 16, 400),
      small(perfbench::committee_wide_shape(), 3000, 12),
      small(perfbench::adversarial_gossip_shape(), 24, 300),
  };
  for (const perfbench::ProtocolShape& shape : shapes) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 99ULL}) {
      perfbench::Tracer tracer;
      const perfbench::ExecutionResult plain = perfbench::execute(shape, seed);
      const perfbench::ExecutionResult traced = perfbench::execute(shape, seed, &tracer);
      EXPECT_EQ(plain.digest, traced.digest) << shape.parties << " parties, seed " << seed;
      EXPECT_EQ(plain.blocks, traced.blocks);
      EXPECT_TRUE(traced.layers.replays_ok);
      EXPECT_EQ(tracer.durations("sim.slot").size(), shape.horizon);
      EXPECT_GT(traced.layers.adversary_calls, 0u);
    }
  }
}

TEST(Tracing, BalanceInputsReproduceTheLibraryProbe) {
  const perfbench::ProtocolShape shape = small(perfbench::chain_growth_shape(), 16, 400);
  for (std::uint64_t seed : {3ULL, 4242ULL}) {
    EXPECT_EQ(perfbench::execute(shape, seed).digest,
              mh::balance_transport_probe(shape.parties, shape.horizon, seed).digest);
  }
}

}  // namespace
