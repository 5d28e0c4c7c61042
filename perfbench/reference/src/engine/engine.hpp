// The parallel experiment engine: deterministic sharded Monte-Carlo /
// simulation sweeps.
//
//   engine::run_sharded<Partial>(n, opt, task)
//
// runs task(i, rng_i, partial) for every sample index i in [0, n), where
// rng_i is the i-th counter-based stream of SeedSequence(opt.seed). The index
// space is cut into fixed-size chunks (a function of n only — never of the
// thread count), chunks are claimed dynamically by a ThreadPool, each chunk
// accumulates into its own Partial, and the partials are folded in chunk
// order by engine::Reduce. Consequences:
//
//   * results are bit-for-bit identical for any `threads`, including the
//     serial fallback at threads <= 1 (which runs the same chunked plan);
//   * no locks or atomics on the hot path — shards share nothing;
//   * Partial can be std::size_t (counts), std::vector (histograms), or any
//     type with merge() (RunningStats, Proportion, experiment tallies).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "engine/reduce.hpp"
#include "engine/seed_sequence.hpp"
#include "engine/thread_pool.hpp"

namespace mh::engine {

struct EngineOptions {
  std::size_t threads = 0;     ///< total parallelism; 0 = hardware concurrency
  std::uint64_t seed = 1;      ///< root of the per-sample stream family
  std::size_t chunk_size = 0;  ///< samples per shard; 0 = auto (from n only)
};

/// Auto chunk size: enough chunks for dynamic balance on any plausible core
/// count, big enough that per-chunk overhead vanishes. Pure in n_samples.
constexpr std::size_t auto_chunk_size(std::size_t n_samples) noexcept {
  return std::clamp<std::size_t>(n_samples / 256, 1, 4096);
}

/// Sharded sweep with an explicit reduction over the per-chunk partials.
/// `fold(partials)` sees the partials in chunk order and returns the total.
template <typename Partial, typename Task, typename Fold>
Partial run_sharded(std::size_t n_samples, const EngineOptions& opt, Task&& task,
                    Fold&& fold) {
  const std::size_t chunk = opt.chunk_size != 0 ? opt.chunk_size : auto_chunk_size(n_samples);
  const std::size_t n_chunks = n_samples == 0 ? 0 : (n_samples + chunk - 1) / chunk;
  const SeedSequence seeds(opt.seed);
  std::vector<Partial> partials(n_chunks);
  auto run_chunk = [&](std::size_t c) {
    // Accumulate on the stack and publish once: adjacent chunks' partials sit
    // on shared cache lines, and per-sample writes there would false-share.
    Partial partial{};
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(n_samples, begin + chunk);
    for (std::size_t i = begin; i < end; ++i) {
      Rng rng = seeds.stream(i);
      task(static_cast<std::uint64_t>(i), rng, partial);
    }
    partials[c] = std::move(partial);
  };
  const std::size_t threads = std::min(resolve_threads(opt.threads), std::max<std::size_t>(n_chunks, 1));
  if (threads <= 1) {
    for (std::size_t c = 0; c < n_chunks; ++c) run_chunk(c);
  } else {
    ThreadPool pool(threads);
    pool.for_each_chunk(n_chunks, run_chunk);
  }
  return std::forward<Fold>(fold)(partials);
}

/// Sharded sweep with the default ordered reduction (engine::Reduce).
template <typename Partial, typename Task>
Partial run_sharded(std::size_t n_samples, const EngineOptions& opt, Task&& task) {
  return run_sharded<Partial>(n_samples, opt, std::forward<Task>(task),
                              [](const std::vector<Partial>& partials) {
                                return Reduce::fold(partials);
                              });
}

}  // namespace mh::engine
