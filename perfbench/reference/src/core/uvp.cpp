#include "core/uvp.hpp"

#include "core/catalan.hpp"
#include "core/relative_margin.hpp"
#include "support/check.hpp"

namespace mh {

bool has_uvp_catalan(const CharString& w, std::size_t s) {
  MH_REQUIRE(s >= 1 && s <= w.size());
  return w.uniquely_honest(s) && is_catalan(w, s);
}

bool has_uvp_margin(const CharString& w, std::size_t s) {
  MH_REQUIRE(s >= 1 && s <= w.size());
  if (!w.uniquely_honest(s)) return false;
  const std::vector<std::int64_t> trajectory = margin_trajectory(w, s - 1);
  // trajectory[0] = mu_x(eps) = rho(x) >= 0 is exempt; Lemma 1 quantifies over
  // nonempty prefixes y.
  for (std::size_t j = 1; j < trajectory.size(); ++j)
    if (trajectory[j] >= 0) return false;
  return true;
}

bool has_uvp_consecutive_catalan(const CharString& w, std::size_t s) {
  MH_REQUIRE(s >= 1 && s + 1 <= w.size());
  const CatalanFlags flags = catalan_flags(w);
  return flags.catalan[s - 1] && flags.catalan[s];
}

bool bottleneck_holds_in_fork(const Fork& fork, const CharString& w, std::size_t s) {
  MH_REQUIRE(s >= 1 && s <= w.size());
  for (std::size_t k = s + 1; k <= w.size() + 1; ++k) {
    for (VertexId t : viable_tines_at_onset(fork, w, k)) {
      bool contains_s = false;
      for (VertexId v = t;; v = fork.parent(v)) {
        if (fork.label(v) == s) {
          contains_s = true;
          break;
        }
        if (v == kRoot) break;
      }
      if (!contains_s) return false;
    }
  }
  return true;
}

bool uvp_holds_in_fork(const Fork& fork, const CharString& w, std::size_t s,
                       std::size_t first_onset) {
  MH_REQUIRE(s >= 1 && s <= w.size());
  if (first_onset == 0) first_onset = s + 1;
  MH_REQUIRE(first_onset >= s + 1);
  for (VertexId u : fork.vertices_with_label(static_cast<std::uint32_t>(s))) {
    bool u_on_all = true;
    for (std::size_t k = first_onset; k <= w.size() + 1 && u_on_all; ++k)
      for (VertexId t : viable_tines_at_onset(fork, w, k))
        if (!fork.on_tine(u, t)) {
          u_on_all = false;
          break;
        }
    if (u_on_all) return true;
  }
  return false;
}

}  // namespace mh
