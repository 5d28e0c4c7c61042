#include "protocol/net/config.hpp"

#include "support/check.hpp"
#include "support/env.hpp"

namespace mh::net {

void NetConfig::validate(std::size_t parties) const {
  MH_REQUIRE_MSG(parties >= 1, "a network needs at least one party, got " +
                                   std::to_string(parties));
  latency.validate();
  if (topology == TopologyKind::RandomK && parties > 1)
    MH_REQUIRE_MSG(k >= 1 && k < parties,
                   "random-k topology needs 1 <= k < parties, got k = " +
                       std::to_string(k) + " with " + std::to_string(parties) +
                       " parties");
}

std::string NetConfig::describe() const {
  std::string out = topology_kind_name(topology);
  if (topology == TopologyKind::RandomK) out += "(k=" + std::to_string(k) + ")";
  out += " / " + latency.describe();
  out += bandwidth == 0 ? " / bw=inf" : " / bw=" + std::to_string(bandwidth);
  return out;
}

NetConfig net_config_from_env(NetConfig base) {
  NetConfig cfg = base;
  static const char* const kTopologies[] = {"full-mesh", "random-k", "ring", "two-cluster"};
  cfg.topology = static_cast<TopologyKind>(env::choice(
      "MH_NET_TOPOLOGY", kTopologies, 4, static_cast<std::size_t>(base.topology)));
  cfg.k = env::size("MH_NET_K", base.k, 1);
  static const char* const kLaws[] = {"degenerate", "uniform", "geometric"};
  cfg.latency.kind = static_cast<LatencyKind>(env::choice(
      "MH_NET_LATENCY", kLaws, 3, static_cast<std::size_t>(base.latency.kind)));
  cfg.latency.fixed = env::size("MH_NET_LATENCY_FIXED", base.latency.fixed);
  cfg.latency.cap = env::size("MH_NET_LATENCY_CAP", base.latency.cap);
  cfg.latency.p = env::positive_number("MH_NET_LATENCY_P", base.latency.p);
  cfg.bandwidth = env::size("MH_NET_BANDWIDTH", base.bandwidth);
  cfg.seed = env::size("MH_NET_SEED", static_cast<std::size_t>(base.seed));
  cfg.latency.validate();  // rejects e.g. MH_NET_LATENCY_P=1.5 up front
  return cfg;
}

}  // namespace mh::net
