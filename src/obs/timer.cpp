#include "obs/timer.hpp"

#include <chrono>

#include "obs/metrics.hpp"

namespace mh::obs {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ScopedTimer::ScopedTimer(const char* name) {
  if (!enabled()) return;
  hist_ = &Registry::global().histogram(name);
  begin_ns_ = now_ns();
}

ScopedTimer::~ScopedTimer() {
  if (hist_ != nullptr) hist_->record(now_ns() - begin_ns_);
}

}  // namespace mh::obs
