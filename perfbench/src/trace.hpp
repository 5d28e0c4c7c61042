// In-memory span recording for the traced run.
//
// Every span is one timed call the benchmark makes into a library layer:
// name, start, end, parent span and run id. Spans opened with scope() nest
// on the calling thread's stack; spans timed on pool workers are measured by
// the caller and added closed with add(). Nothing is written until write(),
// which the benchmark calls once, when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds (the span time base).
[[nodiscard]] std::uint64_t now_ns() noexcept;

struct Span {
  std::uint32_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;
  std::uint32_t run = 0;     ///< one execution / pass of the workload
  const char* name = "";     ///< a string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Tracer {
 public:
  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

   private:
    Tracer& tracer_;
    std::uint32_t id_;
  };

  /// Opens a span as a child of the innermost open scope (single thread).
  [[nodiscard]] Scope scope(const char* name) { return Scope(*this, name); }

  /// Unscoped form of scope(), for spans that open and close in different
  /// calls: close() must name the innermost open span.
  std::uint32_t open(const char* name);
  void close(std::uint32_t id);

  /// Records an already closed span under `parent`; returns its id.
  std::uint32_t add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint32_t parent);

  /// Spans recorded from here on carry this run id.
  void set_run(std::uint32_t run) noexcept { run_ = run; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Duration of span `id` (closed spans only).
  [[nodiscard]] double seconds(std::uint32_t id) const { return spans_[id - 1].seconds(); }
  /// Durations (seconds) of the spans named `name` recorded at or after
  /// position `from` of spans(), in recording order.
  [[nodiscard]] std::vector<double> durations(std::string_view name,
                                              std::size_t from = 0) const;

  /// Writes every span as one JSON object per line; false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< ids of the open scopes, innermost last
  std::uint32_t run_ = 0;
};

}  // namespace perfbench
