#include "obs/trace.hpp"

#include <chrono>

#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace mh::obs {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t thread_ordinal() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

namespace {
thread_local std::uint32_t t_span_depth = 0;
}  // namespace

TraceSink& TraceSink::global() {
  static TraceSink sink;
  return sink;
}

TraceSink::TraceSink(std::size_t capacity) : ring_(capacity) {
  MH_REQUIRE(capacity >= 1);
}

void TraceSink::record(const TraceEvent& event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_[next_] = event;
  next_ = (next_ + 1) % ring_.size();
  ++recorded_;
}

std::vector<TraceEvent> TraceSink::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  const std::size_t n = recorded_ < ring_.size() ? static_cast<std::size_t>(recorded_)
                                                 : ring_.size();
  out.reserve(n);
  // Oldest-first: when wrapped, the oldest live event sits at the cursor.
  const std::size_t start = recorded_ < ring_.size() ? 0 : next_;
  for (std::size_t i = 0; i < n; ++i) out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

std::uint64_t TraceSink::recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::uint64_t TraceSink::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recorded_ < ring_.size() ? 0 : recorded_ - ring_.size();
}

void TraceSink::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  next_ = 0;
  recorded_ = 0;
}

Span::Span(const char* name) noexcept : name_(name) {
  if (!enabled()) return;
  active_ = true;
  depth_ = t_span_depth++;
  begin_ns_ = now_ns();
}

Span::~Span() {
  if (!active_) return;
  --t_span_depth;
  TraceEvent event;
  event.name = name_;
  event.begin_ns = begin_ns_;
  event.end_ns = now_ns();
  event.thread = thread_ordinal();
  event.depth = depth_;
  TraceSink::global().record(event);
}

std::uint32_t Span::current_depth() noexcept { return t_span_depth; }

ScopedTimer::ScopedTimer(const char* name) : span_(name) {
  if (span_.active_) hist_ = &Registry::global().histogram(name);
}

ScopedTimer::~ScopedTimer() {
  if (hist_ != nullptr) hist_->record(now_ns() - span_.begin_ns_);
}

}  // namespace mh::obs
