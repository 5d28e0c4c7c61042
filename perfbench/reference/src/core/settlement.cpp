#include "core/settlement.hpp"

#include <optional>

#include "core/catalan.hpp"
#include "core/relative_margin.hpp"
#include "support/check.hpp"

namespace mh {

namespace {

/// The vertex labeled s on the tine ending at t, if any.
std::optional<VertexId> slot_vertex_on_tine(const Fork& fork, VertexId t, std::size_t s) {
  for (VertexId v = t;; v = fork.parent(v)) {
    if (fork.label(v) == s) return v;
    if (v == kRoot || fork.label(v) < s) return std::nullopt;
  }
}

}  // namespace

bool diverge_prior_to(const Fork& fork, VertexId t1, VertexId t2, std::size_t s) {
  const std::optional<VertexId> v1 = slot_vertex_on_tine(fork, t1, s);
  const std::optional<VertexId> v2 = slot_vertex_on_tine(fork, t2, s);
  if (!v1 && !v2) return false;  // both chains skip slot s: they agree about it
  return v1 != v2;
}

bool settlement_violation_in_fork(const Fork& fork, std::size_t s) {
  const std::vector<VertexId> heads = fork.longest_tines();
  for (std::size_t a = 0; a < heads.size(); ++a)
    for (std::size_t b = a + 1; b < heads.size(); ++b)
      if (diverge_prior_to(fork, heads[a], heads[b], s)) return true;
  return false;
}

bool margin_violation_at(const CharString& w, std::size_t s, std::size_t k) {
  MH_REQUIRE(s >= 1 && k >= 1);
  MH_REQUIRE_MSG(s - 1 + k <= w.size(), "string too short for the requested (s, k)");
  const std::vector<std::int64_t> trajectory = margin_trajectory(w, s - 1);
  return trajectory[k] >= 0;
}

bool margin_violation_within(const CharString& w, std::size_t s, std::size_t k) {
  MH_REQUIRE(s >= 1 && k >= 1);
  MH_REQUIRE_MSG(s - 1 + k <= w.size(), "string too short for the requested (s, k)");
  const std::vector<std::int64_t> trajectory = margin_trajectory(w, s - 1);
  for (std::size_t j = k; j < trajectory.size(); ++j)
    if (trajectory[j] >= 0) return true;
  return false;
}

bool settled_via_catalan(const CharString& w, std::size_t s, std::size_t k) {
  MH_REQUIRE(s >= 1 && k >= 1);
  return first_uniquely_honest_catalan(w, s, s + k - 1) != 0;
}

}  // namespace mh
