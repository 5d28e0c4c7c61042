// Peak RSS and live heap per block of one pinned transport cell: the memory
// figures EXPERIMENTS.md E17 quotes, re-measurable from the tree.
//
//   ./cell_memory e14        # 256 parties x 10^4 slots, seed 20240914
//   ./cell_memory committee  # 10^5 parties x 25 slots, SeedSequence(97).derive(4)
//   ./cell_memory lockstep   # 16 parties x 10^6 slots, SeedSequence(97).derive(6)
//
// Each cell is the balance probe's execution (transport_probe.cpp: balance
// attacker, Delta = 0, the lockstep transport), rebuilt here so the heap can
// be read while the Simulation is still alive. Peak RSS is getrusage's
// ru_maxrss for the whole process, so run one cell per process. Live heap is
// glibc's mallinfo2().uordblks after the run minus before the schedule was
// built, divided by the pool's blocks. The digest folds what the probe folds
// and is checked against the cell's golden pin; a drift exits 1. The memory
// figures are a report only.
#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "engine/seed_sequence.hpp"
#include "protocol/adversary.hpp"
#include "protocol/transport_probe.hpp"

namespace {

struct Cell {
  const char* name;
  std::size_t parties;
  std::size_t horizon;
  std::uint64_t seed;
  std::uint64_t pin;
};

const Cell kCells[] = {
    {"e14", 256, 10000, 20240914, 0xe8c91e144e62c305ULL},
    {"committee", 100000, 25, mh::engine::SeedSequence(97).derive(4), 0xae56b39a9e692465ULL},
    {"lockstep", 16, 1000000, mh::engine::SeedSequence(97).derive(6), 0x4c1fc6a63ab5a731ULL},
};

int usage() {
  std::fprintf(stderr, "usage: cell_memory <e14|committee|lockstep>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) return usage();
  const Cell* cell = nullptr;
  for (const Cell& c : kCells)
    if (std::strcmp(argv[1], c.name) == 0) cell = &c;
  if (cell == nullptr) return usage();

  const std::size_t heap_before = mallinfo2().uordblks;
  mh::Rng rng(cell->seed);
  const mh::LeaderSchedule schedule =
      mh::LeaderSchedule::from_symbol_law(mh::kTransportProbeLaw, cell->horizon, cell->parties,
                                          rng);
  mh::BalanceAttacker adversary;
  (void)rng();  // the probe draws an adversary seed the balance attacker ignores
  mh::Simulation sim(schedule, mh::SimulationConfig{mh::TieBreak::AdversarialOrder, rng()}, 0,
                     &adversary);
  const auto start = std::chrono::steady_clock::now();
  sim.run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const std::size_t live = mallinfo2().uordblks - heap_before;

  std::uint64_t digest = mh::kFnvOffsetBasis;
  for (const mh::Block& b : sim.all_blocks()) digest = mh::fnv1a_accumulate(digest, b.hash);
  for (const std::uint32_t id : sim.public_tree().arrival_ids())
    digest = mh::fnv1a_accumulate(digest, sim.all_blocks()[id].hash);
  for (const mh::HonestNode& node : sim.nodes())
    digest = mh::fnv1a_accumulate(digest, node.best_head());
  digest = mh::fnv1a_accumulate(digest, sim.observed_slot_divergence());

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  const std::size_t blocks = sim.all_blocks().size();
  const bool pinned = digest == cell->pin;
  std::printf("cell %s: %zu parties x %zu slots, %zu blocks\n", cell->name, cell->parties,
              cell->horizon, blocks);
  std::printf("  run          %.3f s\n", seconds);
  std::printf("  peak RSS     %.1f MB\n", static_cast<double>(usage_now.ru_maxrss) / 1024.0);
  std::printf("  live heap    %.1f MB, %.0f B per block\n", static_cast<double>(live) / 1e6,
              static_cast<double>(live) / static_cast<double>(blocks));
  std::printf("  digest       0x%016llx (pin 0x%016llx) -> %s\n",
              static_cast<unsigned long long>(digest),
              static_cast<unsigned long long>(cell->pin), pinned ? "ok" : "DRIFT");
  return pinned ? 0 : 1;
}
