// The settlement_analysis workload: the Table-1 DP sweep (36 laws, k <= 250,
// Reference precision) followed by the oracle scenario matrix of
// bench_oracle's large shape cut to 50 runs a cell (36 cells x 50 runs,
// horizon 160, 2 * 10^4 MC samples), both fanned across the engine pool at a
// fixed thread count. Both are cut so a pass takes about half a second: the
// untraced run needs many passes to pair (see run.py).
#pragma once

#include <cstdint>

#include "protocol_workloads.hpp"

namespace perfbench {

/// FNV fold of every P(k), as IEEE doubles, of the Reference-precision
/// series of the 36 Table-1 laws at k <= 250, in law order.
inline constexpr std::uint64_t kTable1SeriesChecksum = 0x4e4e4fcff9ec7bb7ULL;

/// The untraced workload: set-up, then one sweep + matrix pass per step.
[[nodiscard]] std::unique_ptr<WorkloadServer> settlement_server(std::uint64_t seed,
                                                                Report& report);

/// The traced workload: set-up, then traced passes for `seconds`; records
/// the settlement per-layer metrics into `report`.
void run_settlement(const RunOptions& options, Report& report);

}  // namespace perfbench
