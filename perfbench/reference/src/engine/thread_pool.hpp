// A chunked, self-scheduling thread pool for the experiment engine.
//
// Work is published as a half-open chunk index space [0, n_chunks); workers
// (and the calling thread, which always participates) claim chunks with an
// atomic counter — dynamic "steal the next chunk" scheduling, so uneven chunk
// costs balance without any work assignment up front. The pool never decides
// *what* a chunk computes, only who runs it; determinism is the job of
// SeedSequence + ordered reduction (see engine.hpp).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mh::engine {

/// Threads used when a `threads` knob is 0 ("auto"): hardware concurrency,
/// with a floor of 1 when the runtime cannot tell.
std::size_t default_threads() noexcept;

/// Resolve a user-facing `threads` knob (0 = auto) to a concrete count >= 1.
std::size_t resolve_threads(std::size_t threads) noexcept;

/// Reads the MH_THREADS environment variable (benches' global override);
/// returns `fallback` when unset or empty, 0 still means "auto". A malformed
/// value throws std::invalid_argument (support/env.hpp) instead of silently
/// running at the default width.
std::size_t threads_from_env(std::size_t fallback = 0);

/// One-line "engine: N thread(s) (MH_THREADS to override)" stdout banner,
/// shared by the bench drivers.
void print_thread_banner();

/// Fan `n` independent cells across a pool: body(i) runs exactly once for
/// every i in [0, n), claimed dynamically. The serial fallback (resolved
/// threads <= 1, or n <= 1) runs the identical plan, so any body that writes
/// only cell-indexed state is bit-for-bit thread-count invariant. This is the
/// shared skeleton of the analysis sweeps and the oracle scenario matrix.
void for_each_index(std::size_t n, std::size_t threads,
                    const std::function<void(std::size_t)>& body);

class ThreadPool {
 public:
  /// Total parallelism, including the calling thread: spawns threads-1 workers.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t threads() const noexcept { return workers_.size() + 1; }

  /// Runs body(chunk) exactly once for every chunk in [0, n_chunks), on this
  /// thread and the workers; blocks until all chunks finish. If any body
  /// throws, remaining chunks are abandoned and the first exception is
  /// rethrown here.
  void for_each_chunk(std::size_t n_chunks, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  void drain(bool stolen);
  void record_error() noexcept;

  std::mutex mutex_;
  std::condition_variable wake_;  // workers: a new job epoch or stop
  std::condition_variable done_;  // caller: all workers drained the job
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::atomic<std::size_t> next_chunk_{0};
  std::size_t n_chunks_ = 0;
  std::size_t active_workers_ = 0;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
  std::vector<std::thread> workers_;
};

}  // namespace mh::engine
