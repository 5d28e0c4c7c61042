#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid] : 0.5 * (samples[mid - 1] + samples[mid]);
}

Distribution summarize(std::vector<double> samples) {
  Distribution d;
  d.samples = samples.size();
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  d.p50 = median(samples);
  // Percentile 100 (1 - 1/divisor) at nearest rank n - floor(n / divisor)
  // leaves floor(n / divisor) samples beyond it; integer arithmetic keeps
  // the "at least ten beyond" rule exact.
  struct Rung {
    std::size_t divisor;
    double pct;
  };
  constexpr Rung kLadder[] = {{2, 50.0},        {10, 90.0},       {100, 99.0},
                              {1000, 99.9},     {10000, 99.99},   {100000, 99.999},
                              {1000000, 99.9999}};
  for (const Rung& rung : kLadder) {
    if (n / rung.divisor < Distribution::kMinBeyond) break;
    d.beyond = n / rung.divisor;
    d.tail = samples[n - d.beyond - 1];
    d.tail_pct = rung.pct;
  }
  return d;
}

void Report::check(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED %.*s\n", static_cast<int>(what.size()), what.data());
}

void Report::set(std::string_view name, double value, std::string_view unit) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("malformed metric name '" + std::string(name) + "'");
  if (!std::isfinite(value))
    throw std::invalid_argument("metric '" + std::string(name) + "' is not finite");
  if (find(name) != nullptr)
    throw std::invalid_argument("metric '" + std::string(name) + "' recorded twice");
  metrics_.push_back(Metric{std::string(name), value, std::string(unit)});
}

const Metric* Report::find(std::string_view name) const noexcept {
  for (const Metric& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
    if (i != 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
