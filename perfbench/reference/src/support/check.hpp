// Lightweight contract checking used across the library.
//
// MH_REQUIRE is for preconditions on public APIs: it throws std::invalid_argument
// so callers (tests, examples) can observe and recover from misuse.
// MH_ASSERT is for internal invariants: it throws std::logic_error, signalling a
// bug in this library rather than in the caller.
#pragma once

#include <stdexcept>
#include <string>

namespace mh {

[[noreturn]] inline void require_failed(const char* expr, const char* file, int line,
                                        const std::string& msg) {
  throw std::invalid_argument(std::string("requirement failed: ") + expr + " at " + file + ":" +
                              std::to_string(line) + (msg.empty() ? "" : (": " + msg)));
}

[[noreturn]] inline void assert_failed(const char* expr, const char* file, int line,
                                       const std::string& msg) {
  throw std::logic_error(std::string("internal invariant failed: ") + expr + " at " + file + ":" +
                         std::to_string(line) + (msg.empty() ? "" : (": " + msg)));
}

}  // namespace mh

#define MH_REQUIRE(expr)                                       \
  do {                                                         \
    if (!(expr)) ::mh::require_failed(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define MH_REQUIRE_MSG(expr, msg)                                \
  do {                                                           \
    if (!(expr)) ::mh::require_failed(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)

#define MH_ASSERT(expr)                                       \
  do {                                                        \
    if (!(expr)) ::mh::assert_failed(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define MH_ASSERT_MSG(expr, msg)                                \
  do {                                                          \
    if (!(expr)) ::mh::assert_failed(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)
