#!/bin/sh
# Fails if the tree's own code calls the perfbench-only report forwards
# Simulation::fault_report() / net_report(), names the deleted NetReport, or
# calls the deleted Network::broadcast. The forwards' own one-line
# definitions in simulation.hpp are the only allowed matches.
# Usage: sh tools/forward_guard.sh <repository root>
cd "${1:-.}" || exit 2
hits=$(grep -rnE 'fault_report\(|net_report\(|NetReport|\.broadcast\(' \
         --include='*.cpp' --include='*.hpp' --include='*.h' src tests bench examples |
       grep -vE '^src/protocol/simulation\.hpp:[0-9]+:  \[\[nodiscard\]\] DeliveryReport (fault|net)_report\(\) const \{ return delivery_report\(\); \}$')
if [ -n "$hits" ]; then
  echo "the perfbench-only report forwards or a deleted API are in use:" >&2
  echo "$hits" >&2
  exit 1
fi
