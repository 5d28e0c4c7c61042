// Umbrella header + the instrumentation hook macros the rest of the library
// uses. Two gates stack:
//
//   * compile time — the MH_OBS CMake option defines MH_OBS_ENABLED for the
//     whole build; without it every MH_OBS_* hook below expands to ((void)0)
//     and the instrumented layers compile exactly as before (zero cost, no
//     branch, no symbol);
//   * run time — with hooks compiled in, nothing records until
//     obs::enabled() is switched on (MH_OBS=1 in the environment, or
//     obs::set_enabled(true)); the disabled cost is one relaxed atomic load
//     and a predictable branch per hook.
//
// Instruments resolve once per call site through a function-local static, so
// the steady-state hot path is a per-thread relaxed atomic increment — no
// lock, no lookup. Metric names are dot-scoped by layer:
//
//   engine.pool.*     chunk scheduling, task latency, idle/steal counts
//   protocol.net.*    blocks shipped/delivered, watermarks, chain sync
//   protocol.node.*   deliveries, orphan buffering/flushing
//   protocol.tree.*   lifted-ancestor query depths
//   protocol.sim.*    slot loop progress
//   dp.*              banded-kernel band widths, cells touched, precision path
//   oracle.*          per-cell timings, phase timers, MC<->DP band slack
//
// Recording never perturbs results: instruments touch no RNG stream and no
// simulation state, and shard merges are commutative sums (metrics.hpp).
#pragma once

#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace mh::obs {

/// True when this build carries the instrumentation hooks (MH_OBS=ON).
constexpr bool compiled() noexcept {
#ifdef MH_OBS_ENABLED
  return true;
#else
  return false;
#endif
}

}  // namespace mh::obs

#ifdef MH_OBS_ENABLED

#define MH_OBS_CONCAT_INNER(a, b) a##b
#define MH_OBS_CONCAT(a, b) MH_OBS_CONCAT_INNER(a, b)

/// Statement splice: the argument exists only in MH_OBS builds.
#define MH_OBS_ONLY(...) __VA_ARGS__

/// counter(name) += n.
#define MH_OBS_COUNT(name, n)                                         \
  do {                                                                \
    if (::mh::obs::enabled()) {                                       \
      static ::mh::obs::Counter& mh_obs_counter_ =                    \
          ::mh::obs::Registry::global().counter(name);                \
      mh_obs_counter_.add(static_cast<std::uint64_t>(n));             \
    }                                                                 \
  } while (0)

/// gauge(name) = v (snapshot merges take the max across shards).
#define MH_OBS_GAUGE_SET(name, v)                                     \
  do {                                                                \
    if (::mh::obs::enabled()) {                                       \
      static ::mh::obs::Gauge& mh_obs_gauge_ =                        \
          ::mh::obs::Registry::global().gauge(name);                  \
      mh_obs_gauge_.set(static_cast<std::int64_t>(v));                \
    }                                                                 \
  } while (0)

/// histogram(name).record(v) — log-bucketed, v must be unsigned-convertible.
#define MH_OBS_HIST(name, v)                                          \
  do {                                                                \
    if (::mh::obs::enabled()) {                                       \
      static ::mh::obs::Histogram& mh_obs_hist_ =                     \
          ::mh::obs::Registry::global().histogram(name);              \
      mh_obs_hist_.record(static_cast<std::uint64_t>(v));             \
    }                                                                 \
  } while (0)

/// RAII duration histogram of the enclosing scope, under `name`.
#define MH_OBS_TIMER(name) ::mh::obs::ScopedTimer MH_OBS_CONCAT(mh_obs_timer_, __LINE__)(name)

#else  // !MH_OBS_ENABLED — every hook compiles away entirely.

#define MH_OBS_ONLY(...)
#define MH_OBS_COUNT(name, n) ((void)0)
#define MH_OBS_GAUGE_SET(name, v) ((void)0)
#define MH_OBS_HIST(name, v) ((void)0)
#define MH_OBS_TIMER(name) ((void)0)

#endif  // MH_OBS_ENABLED
