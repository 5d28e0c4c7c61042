// Phase timing: the wall clock, and an RAII ScopedTimer that records the
// duration of its enclosing scope (ns) into the histogram of the same name in
// Registry::global().
//
// Timing is wall-clock and therefore nondeterministic — duration histograms
// feed dashboards and bench artifacts, never simulation results. Like the
// rest of the metrics layer, a timer records only while obs::enabled().
#pragma once

#include <cstdint>

namespace mh::obs {

class Histogram;

/// Monotonic wall clock in nanoseconds (steady_clock).
std::uint64_t now_ns() noexcept;

/// Records the duration of its scope into a histogram. Inert (records
/// nothing, reads no clock) unless obs::enabled() was true at construction.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_ = nullptr;  ///< null when inert
  std::uint64_t begin_ns_ = 0;
};

}  // namespace mh::obs
