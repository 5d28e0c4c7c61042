// Phase tracing: RAII Span / ScopedTimer instruments feeding a fixed-capacity
// ring-buffer sink (oldest events overwritten, recording never blocks on a
// full buffer and never allocates after construction).
//
// Spans nest per thread: each carries the nesting depth at which it opened,
// so a drained ring reconstructs the phase structure
// (simulate -> project -> validate -> reduce) without a separate stack.
// Events are pushed on span CLOSE, so a parent appears after its children.
//
// Timing is wall-clock and therefore nondeterministic — trace events and
// duration histograms feed dashboards and bench artifacts, never simulation
// results. Like the metrics layer, spans record only while obs::enabled().
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace mh::obs {

class Histogram;

/// Monotonic wall clock in nanoseconds (steady_clock).
std::uint64_t now_ns() noexcept;

/// Small dense ordinal for the calling thread (first use assigns), used to
/// attribute trace events. Unlike shard indices these never wrap.
std::uint32_t thread_ordinal() noexcept;

struct TraceEvent {
  const char* name = "";  ///< must point at static storage (string literals)
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;
  std::uint32_t depth = 0;  ///< nesting depth at open (0 = top level)

  [[nodiscard]] std::uint64_t duration_ns() const noexcept { return end_ns - begin_ns; }
};

class TraceSink {
 public:
  /// The process-wide sink Span/ScopedTimer record into.
  static TraceSink& global();

  explicit TraceSink(std::size_t capacity = 4096);

  void record(const TraceEvent& event);

  /// Buffered events, oldest first. At most capacity(); earlier events were
  /// overwritten (see dropped()).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] std::uint64_t recorded() const;  ///< total ever recorded
  [[nodiscard]] std::uint64_t dropped() const;   ///< overwritten by wrap-around
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;       ///< ring write cursor
  std::uint64_t recorded_ = 0;
};

/// RAII phase marker. Inert (records nothing, reads no clock) unless
/// obs::enabled() was true at construction.
class Span {
 public:
  explicit Span(const char* name) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Current nesting depth of the calling thread (0 = no open span).
  [[nodiscard]] static std::uint32_t current_depth() noexcept;

 private:
  friend class ScopedTimer;
  const char* name_;
  std::uint64_t begin_ns_ = 0;
  std::uint32_t depth_ = 0;
  bool active_ = false;
};

/// A Span that additionally records its duration (ns) into the histogram of
/// the same name in Registry::global().
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Span span_;
  Histogram* hist_ = nullptr;  ///< null when inert
};

}  // namespace mh::obs
