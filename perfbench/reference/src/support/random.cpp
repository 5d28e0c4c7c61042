#include "support/random.hpp"

#include <cmath>

#include "support/check.hpp"

namespace mh {

std::uint64_t sample_geometric(Rng& rng, double beta) {
  MH_REQUIRE(beta >= 0.0 && beta < 1.0);
  if (beta == 0.0) return 0;
  // Inversion: X = floor(log(U) / log(beta)) has the desired law.
  const double u = 1.0 - rng.uniform();  // in (0, 1]
  const double x = std::floor(std::log(u) / std::log(beta));
  return x < 0.0 ? 0 : static_cast<std::uint64_t>(x);
}

}  // namespace mh
