// The discrete-event heterogeneous network core (src/protocol/net/): event
// ordering, topology construction, latency laws, bandwidth spillover, gossip
// relay delivery, the degenerate-façade equivalence contract, and the
// observed-Delta oracle grading of heterogeneous executions — including the
// {1, 2, 8}-thread bit-identity the counter-based streams guarantee.
#include "protocol/net/config.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <random>
#include <set>
#include <string>

#include "delta/semi_sync.hpp"
#include "engine/seed_sequence.hpp"
#include "engine/thread_pool.hpp"
#include "oracle/oracle.hpp"
#include "protocol/net/event_core.hpp"
#include "protocol/net/latency.hpp"
#include "protocol/net/topology.hpp"
#include "protocol/adversary.hpp"
#include "protocol/faults/injector.hpp"
#include "protocol/network.hpp"
#include "protocol/simulation.hpp"
#include "protocol/transport_probe.hpp"

namespace mh {
namespace {

using net::BlockId;
using net::EventCore;
using net::LatencyKind;
using net::LatencyLaw;
using net::NetConfig;
using net::Topology;
using net::TopologyKind;

Block test_block(std::uint64_t payload, std::uint64_t slot = 1, PartyId issuer = 0) {
  return make_block(genesis_block().hash, slot, issuer, payload);
}

std::vector<Block> drain(Network& net, PartyId recipient, std::size_t slot) {
  std::vector<Block> due;
  net.collect_into(recipient, slot, &due);
  return due;
}

// ---------------------------------------------------------------------------
// EventCore: the (due, seq) total order
// ---------------------------------------------------------------------------

std::vector<BlockId> collect_ids(EventCore& core, PartyId recipient, std::size_t slot) {
  std::vector<BlockId> ids;
  core.collect_due(recipient, slot, [&](BlockId id) { ids.push_back(id); });
  return ids;
}

TEST(EventCore, PopsDueAscendingThenSchedulingOrder) {
  EventCore core(1);
  core.schedule(0, 5, 1);
  core.schedule(0, 3, 2);
  core.schedule(0, 5, 3);
  // Earliest due first, then scheduling order within a due.
  EXPECT_EQ(collect_ids(core, 0, 10), (std::vector<BlockId>{2, 1, 3}));
}

TEST(EventCore, CollectHonorsTheDueBoundAndDrains) {
  EventCore core(2);
  core.schedule(0, 2, 1);
  core.schedule(0, 4, 2);
  core.schedule(1, 2, 3);
  EXPECT_EQ(collect_ids(core, 0, 3), (std::vector<BlockId>{1}));
  EXPECT_EQ(core.pending(0), 1u);   // the due-4 delivery is still queued
  EXPECT_EQ(core.pending(1), 1u);   // other recipients untouched
  EXPECT_EQ(collect_ids(core, 0, 4), (std::vector<BlockId>{2}));
  EXPECT_EQ(core.pending(0), 0u);
}

TEST(EventCore, SeqOrderSurvivesOutOfInsertionDues) {
  // A later-scheduled send with a shorter draw overtakes an earlier one: the
  // contract is (due, seq), NOT insertion order.
  EventCore core(1);
  core.schedule(0, 9, 1);  // scheduled first, lands last
  core.schedule(0, 2, 2);
  EXPECT_EQ(collect_ids(core, 0, 100), (std::vector<BlockId>{2, 1}));
}

TEST(EventCore, WipeDropsOnlyThatRecipient) {
  EventCore core(2);
  core.schedule(0, 2, 1);
  core.schedule(1, 2, 2);
  core.wipe(0);
  EXPECT_EQ(core.pending(0), 0u);
  EXPECT_EQ(core.pending(1), 1u);
}

TEST(EventCore, LanesMatchAPriorityQueueReference) {
  // Differential fuzz against the (due, seq) heap the lanes replaced. A slot
  // loop schedules mostly near-future dues, some far ahead (bandwidth
  // spill), some at or before the slot just collected (rushed injections
  // after a collect), re-collects an already-collected slot, and wipes.
  struct Ref {
    std::size_t due;
    std::uint64_t seq;
    BlockId id;
  };
  struct Later {
    bool operator()(const Ref& a, const Ref& b) const noexcept {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };
  using Heap = std::priority_queue<Ref, std::vector<Ref>, Later>;
  constexpr std::size_t kParties = 3;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    EventCore core(kParties);
    std::vector<Heap> ref(kParties);
    std::uint64_t seq = 0;
    BlockId next_id = 0;
    for (std::size_t slot = 1; slot <= 200; ++slot) {
      const std::size_t sends = rng.below(12);
      for (std::size_t i = 0; i < sends; ++i) {
        const auto r = static_cast<PartyId>(rng.below(kParties));
        std::size_t due = slot + 1 + rng.below(4);
        const std::uint64_t kind = rng.below(10);
        if (kind == 0) due = slot + 10 + rng.below(40);        // far ahead
        if (kind == 1) due = slot - std::min<std::size_t>(slot, rng.below(3));  // rushed
        core.schedule(r, due, next_id);
        ref[r].push(Ref{due, seq++, next_id});
        ++next_id;
      }
      if (rng.below(25) == 0) {
        const auto r = static_cast<PartyId>(rng.below(kParties));
        core.wipe(r);
        ref[r] = Heap();
      }
      // Collect the slot, sometimes twice (a rushed send in between lands in
      // the second collect of the same slot).
      const std::size_t rounds = rng.below(4) == 0 ? 2 : 1;
      for (std::size_t round = 0; round < rounds; ++round) {
        if (round == 1) {
          const auto r = static_cast<PartyId>(rng.below(kParties));
          core.schedule(r, slot, next_id);
          ref[r].push(Ref{slot, seq++, next_id});
          ++next_id;
        }
        for (PartyId r = 0; r < kParties; ++r) {
          const std::vector<BlockId> got = collect_ids(core, r, slot);
          std::vector<BlockId> want;
          while (!ref[r].empty() && ref[r].top().due <= slot) {
            want.push_back(ref[r].top().id);
            ref[r].pop();
          }
          ASSERT_EQ(got, want) << "seed " << seed << " slot " << slot << " party " << r;
          ASSERT_EQ(core.pending(r), ref[r].size());
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The block store: blocks travel under pool ids, tampered copies under aliases
// ---------------------------------------------------------------------------

TEST(NetworkStore, ShipsThousandsOfBlocksAcrossPoolGrowthUnchanged) {
  // An unbound network pools what it is handed in a private tree: a chain of
  // thousands of blocks (one pool id each, across many index growths) and
  // their genesis-child siblings come back exactly as sent, and re-sending
  // them names the same blocks.
  Network net(2, 0);
  std::vector<Block> blocks;
  BlockHash tip = genesis_block().hash;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    blocks.push_back(make_block(i % 3 == 2 ? genesis_block().hash : tip, 1 + i, 0, i));
    if (i % 3 != 2) tip = blocks.back().hash;
  }
  const std::size_t last = blocks.back().slot;
  for (const Block& b : blocks) net.inject(b, 0, last);
  EXPECT_EQ(drain(net, 0, last), blocks);
  for (const Block& b : blocks) net.inject_all(b, last + 1);
  EXPECT_EQ(drain(net, 0, last + 1), blocks);
  EXPECT_EQ(drain(net, 1, last + 1), blocks);
}

TEST(NetworkStore, TamperedAndSlotForgedCopiesShipAsSentAndShareTheHashsDedupe) {
  // Ring of 5: party 0 broadcasts the genuine block to ring neighbors 1 and
  // 4. Parties 2 and 3 were handed copies under the same hash, one with a
  // tampered payload, one with a forged slot. Each copy is delivered as sent,
  // and each covers its recipient for the hash: the relays of the genuine
  // block toward 2 and 3, and of the copies toward anyone, are deduplicated.
  NetConfig cfg;
  cfg.topology = TopologyKind::Ring;
  Network net(5, 0, cfg);
  BlockTree tree;
  const Block genuine = test_block(1, 1, 0);
  tree.add(genuine);
  Block tampered = genuine;
  tampered.payload ^= 0xbad;
  Block forged = genuine;
  forged.slot += 5;
  net.broadcast_chain(tree, genuine, 1);  // pools the genuine block; due 2
  net.inject(tampered, 2, 2);
  net.inject(forged, 3, 6);
  net.inject(tampered, 2, 7);  // the same copy again: the same alias
  std::vector<std::vector<Block>> got(5);
  for (std::size_t slot = 2; slot <= 10; ++slot)
    for (PartyId p = 0; p < 5; ++p)
      for (const Block& b : drain(net, p, slot)) got[p].push_back(b);
  EXPECT_TRUE(got[0].empty());
  EXPECT_EQ(got[1], std::vector<Block>{genuine});
  EXPECT_EQ(got[4], std::vector<Block>{genuine});
  EXPECT_EQ(got[2], (std::vector<Block>{tampered, tampered}));
  EXPECT_EQ(got[3], std::vector<Block>{forged});
}

TEST(NetworkStore, AnUnresolvableBlockThrowsNamingItsSlotAndIssuer) {
  // Neither pooled nor poolable, and no pooled block shares its hash.
  const auto expect_named = [](const std::function<void()>& send) {
    try {
      send();
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("party 3's slot-7 block"), std::string::npos) << what;
    }
  };
  const Block parent = test_block(1, 2, 3);
  const Block orphan = make_block(parent.hash, 7, 3, 2);  // parent never handed over
  Block broken = test_block(3, 7, 3);
  broken.payload ^= 1;  // header not intact
  const Block low = make_block(parent.hash, 2, 3, 4);     // slot not above the parent's
  for (const NetConfig& cfg : {NetConfig::degenerate(), [] {
                                 NetConfig ring;
                                 ring.topology = TopologyKind::Ring;
                                 return ring;
                               }()}) {
    Network net(4, 0, cfg);
    expect_named([&] { net.inject(orphan, 1, 7); });
    expect_named([&] { net.inject_all(broken, 7); });
    expect_named([&] { net.broadcast(orphan, 7); });
    expect_named([&] { net.resync_ship(broken, 0, 7); });
    net.inject_all(parent, 2);
    EXPECT_THROW(net.inject(low, 0, 2), std::invalid_argument);
    net.inject(orphan, 1, 7);  // its parent is pooled now
  }
}

TEST(NetworkStore, AnUnboundNetworkAcquiresNoPoolUntilItsFirstBlock) {
  const std::size_t before = BlockTree::arena_stats().acquired;
  {
    Network net(3, 1);
    std::vector<Block> buf;
    for (std::size_t slot = 1; slot <= 3; ++slot)
      for (PartyId p = 0; p < 3; ++p) net.collect_into(p, slot, &buf);
    net.crash_recipient(1);
    EXPECT_EQ(BlockTree::arena_stats().acquired, before);
    net.inject(test_block(1), 0, 3);
    EXPECT_EQ(BlockTree::arena_stats().acquired, before + 1);
    net.inject_all(test_block(2), 3);
    EXPECT_EQ(BlockTree::arena_stats().acquired, before + 1);
  }
  // A bound network uses the pool it is given.
  BlockTree pool;
  const std::size_t bound = BlockTree::arena_stats().acquired;
  Network net(3, 1);
  net.bind_views({}, pool);
  net.inject_all(test_block(1), 1);
  EXPECT_EQ(BlockTree::arena_stats().acquired, bound);
  EXPECT_EQ(pool.pool_blocks().size(), 2u);  // the network pooled it there
  EXPECT_FALSE(pool.contains(test_block(1).hash));  // and admitted it to no view
}

// ---------------------------------------------------------------------------
// Topology construction
// ---------------------------------------------------------------------------

TEST(Topology, FullMeshIsImplicitAndComplete) {
  const Topology topo = Topology::build(TopologyKind::FullMesh, 5, 0, 1);
  for (PartyId p = 0; p < 5; ++p) {
    EXPECT_EQ(topo.degree(p), 4u);
    EXPECT_FALSE(topo.edge(p, p));
    std::size_t seen = 0;
    topo.for_each_neighbor(p, [&](PartyId r) {
      EXPECT_NE(r, p);
      ++seen;
    });
    EXPECT_EQ(seen, 4u);
  }
}

TEST(Topology, RingIsBidirectional) {
  const Topology topo = Topology::build(TopologyKind::Ring, 6, 0, 1);
  for (PartyId p = 0; p < 6; ++p) {
    EXPECT_EQ(topo.degree(p), 2u);
    EXPECT_TRUE(topo.edge(p, (p + 1) % 6));
    EXPECT_TRUE(topo.edge(p, (p + 5) % 6));
    EXPECT_FALSE(topo.edge(p, (p + 2) % 6));
  }
}

TEST(Topology, RandomKKeepsTheRingBackbone) {
  // The i -> i+1 backbone guarantees strong connectivity no matter what the
  // seeded shortcuts draw; out-degree is exactly k, no self-loops, no dups.
  const Topology topo = Topology::build(TopologyKind::RandomK, 12, 4, 77);
  for (PartyId p = 0; p < 12; ++p) {
    EXPECT_EQ(topo.degree(p), 4u);
    EXPECT_TRUE(topo.edge(p, (p + 1) % 12));
    std::set<PartyId> seen;
    topo.for_each_neighbor(p, [&](PartyId r) {
      EXPECT_NE(r, p);
      EXPECT_TRUE(seen.insert(r).second);
    });
  }
}

TEST(Topology, RandomKIsPureInTheSeed) {
  const Topology a = Topology::build(TopologyKind::RandomK, 16, 3, 5);
  const Topology b = Topology::build(TopologyKind::RandomK, 16, 3, 5);
  const Topology c = Topology::build(TopologyKind::RandomK, 16, 3, 6);
  bool differs = false;
  for (PartyId p = 0; p < 16; ++p)
    for (PartyId r = 0; r < 16; ++r) {
      EXPECT_EQ(a.edge(p, r), b.edge(p, r));
      differs = differs || (a.edge(p, r) != c.edge(p, r));
    }
  EXPECT_TRUE(differs);  // a different seed draws different shortcuts
}

TEST(Topology, TwoClusterBridgeLinksTheHalvesOnlyThroughTheBridge) {
  const Topology topo = Topology::build(TopologyKind::TwoClusterBridge, 8, 0, 1);
  for (PartyId p = 0; p < 8; ++p)
    for (PartyId r = 0; r < 8; ++r) {
      if (p == r) continue;
      const bool same = (p < 4) == (r < 4);
      const bool bridge = (p == 0 && r == 4) || (p == 4 && r == 0);
      EXPECT_EQ(topo.edge(p, r), same || bridge) << p << "->" << r;
    }
}

TEST(Topology, RejectsUnrealizableShapes) {
  EXPECT_THROW(Topology::build(TopologyKind::RandomK, 4, 0, 1), std::invalid_argument);
  EXPECT_THROW(Topology::build(TopologyKind::RandomK, 4, 4, 1), std::invalid_argument);
  EXPECT_THROW(Topology::build(TopologyKind::FullMesh, 0, 0, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Latency laws
// ---------------------------------------------------------------------------

TEST(LatencyLaw, DegenerateIsConstant) {
  const LatencyLaw law{LatencyKind::Degenerate, 3, 0, 0.5};
  Rng rng(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(law.draw(rng), 3u);
  EXPECT_EQ(law.max_extra(), 3u);
}

TEST(LatencyLaw, UniformAndGeometricRespectTheCap) {
  Rng rng(7);
  const LatencyLaw uniform{LatencyKind::Uniform, 0, 4, 0.5};
  const LatencyLaw geometric{LatencyKind::Geometric, 0, 3, 0.6};
  bool uniform_hit_cap = false;
  for (int i = 0; i < 400; ++i) {
    const std::size_t u = uniform.draw(rng);
    EXPECT_LE(u, 4u);
    uniform_hit_cap = uniform_hit_cap || u == 4;
    EXPECT_LE(geometric.draw(rng), 3u);
  }
  EXPECT_TRUE(uniform_hit_cap);  // the bound is inclusive and reachable
  EXPECT_EQ(uniform.max_extra(), 4u);
  EXPECT_EQ(geometric.max_extra(), 3u);
}

TEST(LatencyLaw, RejectsDegenerateGeometricWeights) {
  for (const double p : {0.0, 1.0, 1.5}) {
    const LatencyLaw law{LatencyKind::Geometric, 0, 3, p};
    EXPECT_THROW(law.validate(), std::invalid_argument) << p;
  }
}

// ---------------------------------------------------------------------------
// NetConfig
// ---------------------------------------------------------------------------

TEST(NetConfig, DefaultIsDegenerate) {
  EXPECT_FALSE(NetConfig{}.heterogeneous());
  EXPECT_FALSE(NetConfig::degenerate().heterogeneous());
  NetConfig ring;
  ring.topology = TopologyKind::Ring;
  EXPECT_TRUE(ring.heterogeneous());
  NetConfig slow;
  slow.latency = {LatencyKind::Degenerate, 1, 0, 0.5};
  EXPECT_TRUE(slow.heterogeneous());
  NetConfig thin;
  thin.bandwidth = 2;
  EXPECT_TRUE(thin.heterogeneous());
}

TEST(NetConfig, ValidateNamesTheOffendingKnob) {
  NetConfig bad;
  bad.topology = TopologyKind::RandomK;
  bad.k = 9;
  try {
    bad.validate(4);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("k = 9"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Heterogeneous transport behavior
// ---------------------------------------------------------------------------

TEST(HeteroNetwork, FixedLatencyShiftsEveryDelivery) {
  NetConfig cfg;
  cfg.latency = {LatencyKind::Degenerate, 2, 0, 0.5};
  Network net(3, 0, cfg);
  BlockTree tree;
  const Block b = test_block(1, 1, 0);
  tree.add(b);
  net.broadcast_chain(tree, b, 1);
  EXPECT_TRUE(drain(net, 1, 3).empty());       // the lockstep due is slot 2...
  EXPECT_EQ(drain(net, 1, 4).size(), 1u);      // ...plus the fixed 2 slots
  EXPECT_EQ(drain(net, 2, 4).size(), 1u);
}

TEST(HeteroNetwork, RingGossipRelaysAcrossHopsWithoutDuplicates) {
  NetConfig cfg;
  cfg.topology = TopologyKind::Ring;
  Network net(5, 0, cfg);
  BlockTree tree;
  const Block b = test_block(1, 1, 0);
  tree.add(b);
  net.broadcast_chain(tree, b, 1);
  // Hop 1: the ring neighbors of party 0 hold it at slot 2; relaying there
  // puts it at distance-2 parties by slot 3. Collect in a slot loop the way
  // the simulation does (collection triggers the relay).
  std::vector<std::size_t> arrival(5, 0);
  for (std::size_t slot = 1; slot <= 6; ++slot)
    for (PartyId p = 0; p < 5; ++p)
      for (const Block& got : drain(net, p, slot)) {
        EXPECT_EQ(got.hash, b.hash);
        EXPECT_EQ(arrival[p], 0u) << "duplicate delivery to party " << p;
        arrival[p] = slot;
      }
  EXPECT_EQ(arrival[1], 2u);
  EXPECT_EQ(arrival[4], 2u);  // ring is bidirectional
  EXPECT_EQ(arrival[2], 3u);  // two hops
  EXPECT_EQ(arrival[3], 3u);
  EXPECT_EQ(arrival[0], 0u);  // the forger never receives its own block
}

TEST(HeteroNetwork, BandwidthCapSpillsEgressIntoLaterSlots) {
  NetConfig cfg;
  cfg.bandwidth = 1;  // full mesh, but one block may leave a party per slot
  Network net(3, 0, cfg);
  BlockTree tree;
  const Block b = test_block(1, 1, 0);
  tree.add(b);
  net.broadcast_chain(tree, b, 1);
  // Neighbor visit order is (1, 2): the first copy departs at slot 1 (due 2),
  // the second spills to slot 2 (due 3).
  EXPECT_EQ(drain(net, 1, 2).size(), 1u);
  EXPECT_TRUE(drain(net, 2, 2).empty());
  EXPECT_EQ(drain(net, 2, 3).size(), 1u);
}

TEST(HeteroNetwork, AdversarialInjectionBypassesTopologyAndLatency) {
  NetConfig cfg;
  cfg.topology = TopologyKind::Ring;
  cfg.latency = {LatencyKind::Degenerate, 3, 0, 0.5};
  Network net(6, 0, cfg);
  const Block b = test_block(1, 1, kAdversary);
  net.inject(b, 4, 1);  // direct channel: visible at the requested slot
  EXPECT_EQ(drain(net, 4, 1).size(), 1u);
  net.inject_all(b, 2);
  EXPECT_EQ(drain(net, 3, 2).size(), 1u);  // not a ring neighbor of anyone involved
}

TEST(HeteroNetwork, TamperedCopyIsDeliveredAsItselfButSharesItsHashDedupe) {
  // The transport names blocks by value: a copy with a forged payload under
  // a genuine block's hash gets an alias id, so it is delivered exactly as
  // sent, but relay dedupe stays keyed by hash.
  NetConfig cfg;
  cfg.topology = TopologyKind::Ring;
  Network net(5, 0, cfg);
  BlockTree tree;
  const Block genuine = test_block(1, 1, 0);
  tree.add(genuine);
  Block tampered = genuine;
  tampered.payload ^= 0xbad;
  net.broadcast_chain(tree, genuine, 1);  // to ring neighbors 1 and 4, due 2
  net.inject(tampered, 2, 2);             // party 2 is covered by the copy
  std::vector<std::vector<Block>> got(5);
  for (std::size_t slot = 2; slot <= 6; ++slot)
    for (PartyId p = 0; p < 5; ++p)
      for (const Block& b : drain(net, p, slot)) got[p].push_back(b);
  EXPECT_EQ(got[1], std::vector<Block>{genuine});
  EXPECT_EQ(got[4], std::vector<Block>{genuine});
  // Party 1's relay of the genuine block to party 2 is deduplicated by the
  // tampered copy; party 2 relays the copy to party 3, which deduplicates
  // party 4's relay of the genuine block.
  EXPECT_EQ(got[2], std::vector<Block>{tampered});
  EXPECT_EQ(got[3], std::vector<Block>{tampered});
  EXPECT_TRUE(got[0].empty());
}

TEST(HeteroNetwork, CrashInvalidatesOneCoverageEntryPerDistinctHash) {
  // watermarks_invalidated counts the distinct hashes scheduled for the
  // crashed recipient: repeats and tampered copies of a hash count once.
  faults::FaultInjector inj(faults::FaultPlan{}, 3, 10);
  NetConfig cfg;
  cfg.topology = TopologyKind::Ring;
  Network net(3, 0, cfg);
  net.attach_faults(&inj);
  BlockTree tree;
  const Block a = test_block(1, 1, 0);
  tree.add(a);
  const Block b = make_block(a.hash, 2, 0, 2);
  tree.add(b);
  net.broadcast_chain(tree, b, 2);  // ships a then b to parties 1 and 2
  net.inject(a, 1, 3);
  Block tampered = b;
  tampered.payload ^= 0xbad;
  net.inject(tampered, 1, 3);
  net.inject_all(b, 3);
  net.crash_recipient(1);
  EXPECT_EQ(inj.stats().watermarks_invalidated, 2u);
  EXPECT_TRUE(drain(net, 1, 10).empty());
  // Coverage was wiped with the queue: a re-sync ships again.
  net.resync_ship(a, 1, 4);
  EXPECT_EQ(drain(net, 1, 4), std::vector<Block>{a});
  net.crash_recipient(1);
  EXPECT_EQ(inj.stats().watermarks_invalidated, 3u);
}

TEST(HeteroNetwork, ObservedDeltaIsBoundedByTheLatencyCapOnAFullMesh) {
  // One direct hop per delivery: the recovered synchrony bound can never
  // exceed the law's cap.
  NetConfig cfg;
  cfg.latency = {LatencyKind::Uniform, 0, 3, 0.5};
  Rng rng(91);
  const LeaderSchedule schedule =
      LeaderSchedule::from_symbol_law(kTransportProbeLaw, 64, 6, rng);
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 4242}, 3, nullptr,
                 nullptr, cfg);
  sim.run();
  const NetReport report = sim.net_report();
  EXPECT_TRUE(report.heterogeneous);
  EXPECT_LE(report.observed_delta, 3u);
}

TEST(HeteroNetwork, DegenerateReportIsTrivial) {
  Rng rng(91);
  const LeaderSchedule schedule =
      LeaderSchedule::from_symbol_law(kTransportProbeLaw, 32, 4, rng);
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, 7}, 0, nullptr);
  sim.run();
  const NetReport report = sim.net_report();
  EXPECT_FALSE(report.heterogeneous);
  EXPECT_EQ(report.observed_delta, 0u);
  EXPECT_EQ(report.pending_inflations, 0u);
}

// ---------------------------------------------------------------------------
// No-op re-delivery elision
// ---------------------------------------------------------------------------

/// A network bound to `parties` honest nodes over one block pool, on a
/// schedule where every slot is adversarial, so adversarial blocks at any slot
/// are eligible.
struct BoundNetwork {
  BoundNetwork(std::size_t parties, NetConfig cfg, faults::FaultInjector* faults = nullptr)
      : schedule(std::vector<SlotLeaders>(16, SlotLeaders{{}, true}), parties),
        net(parties, 0, cfg) {
    nodes.reserve(parties);
    for (PartyId p = 0; p < parties; ++p)
      nodes.emplace_back(p, TieBreak::ConsistentHash, &schedule, pool.view());
    net.bind_views(nodes, pool);
    net.attach_faults(faults);
  }

  /// Every party's undelivered lane entries.
  [[nodiscard]] std::vector<std::size_t> pending() const {
    std::vector<std::size_t> out;
    for (PartyId p = 0; p < nodes.size(); ++p) out.push_back(net.pending(p));
    return out;
  }

  /// Collect every party at `slot` and hand the deliveries to its node, the
  /// way the simulation does; returns what each party was handed.
  std::vector<std::vector<Block>> deliver(std::size_t slot) {
    std::vector<std::vector<Block>> got(nodes.size());
    for (PartyId p = 0; p < nodes.size(); ++p) {
      got[p] = drain(net, p, slot);
      for (const Block& b : got[p]) nodes[p].receive(b);
    }
    return got;
  }

  LeaderSchedule schedule;
  BlockTree pool;
  std::vector<HonestNode> nodes;
  Network net;
};

NetConfig ring() {
  NetConfig cfg;
  cfg.topology = TopologyKind::Ring;
  return cfg;
}

TEST(RedeliveryElision, RepublishingABlockEveryNodeHoldsAddsNoLaneEntry) {
  for (const NetConfig& cfg : {NetConfig::degenerate(), ring()}) {
    BoundNetwork bound(4, cfg);
    const Block b = test_block(1, 1, kAdversary);
    bound.pool.add(b);
    bound.net.inject_all(b, 1);
    EXPECT_EQ(bound.pending(), std::vector<std::size_t>(4, 1));
    bound.deliver(1);
    const std::vector<std::size_t> drained = bound.pending();
    bound.net.inject_all(b, 2);
    bound.net.inject(b, 3, 2);
    EXPECT_EQ(bound.pending(), drained) << "heterogeneous: " << cfg.heterogeneous();
    for (const auto& got : bound.deliver(4)) EXPECT_TRUE(got.empty());
  }
}

TEST(RedeliveryElision, ABlockOneNodeLacksStillShipsToEveryParty) {
  for (const NetConfig& cfg : {NetConfig::degenerate(), ring()}) {
    BoundNetwork bound(4, cfg);
    const Block b = test_block(1, 1, kAdversary);
    bound.pool.add(b);
    bound.net.inject_all(b, 1);
    for (PartyId p : {0u, 1u, 3u}) EXPECT_EQ(drain(bound.net, p, 1).size(), 1u);
    for (PartyId p : {0u, 1u, 3u}) bound.nodes[p].receive(b);
    // Party 2 has not been handed its copy yet: a re-publish ships it a
    // second one. Lockstep ships to all while one view lacks the block; the
    // gossip holders' pops would relay nothing (every neighbor is covered
    // and up), so only party 2 gets a lane entry there.
    bound.net.inject_all(b, 2);
    const std::vector<std::size_t> republished =
        cfg.heterogeneous() ? std::vector<std::size_t>{0, 0, 2, 0}
                            : std::vector<std::size_t>{1, 1, 2, 1};
    EXPECT_EQ(bound.pending(), republished) << "heterogeneous: " << cfg.heterogeneous();
    // A single-recipient injection checks only that recipient's view.
    bound.net.inject(b, 0, 2);
    bound.net.inject(b, 2, 2);
    std::vector<std::size_t> injected = republished;
    ++injected[2];
    EXPECT_EQ(bound.pending(), injected) << "heterogeneous: " << cfg.heterogeneous();
    EXPECT_EQ(bound.deliver(2)[2], (std::vector<Block>{b, b, b}));
  }
}

TEST(RedeliveryElision, ACrashWipedNeighborBlocksTheSkipAndTheRelayRetryReachesIt) {
  faults::FaultPlan plan;
  plan.churn.push_back({2, 3, 4});  // party 2 is down at slot 3 only
  faults::FaultInjector inj(plan, 4, 16);
  BoundNetwork bound(4, ring(), &inj);
  const Block b = test_block(1, 1, kAdversary);
  bound.pool.add(b);
  bound.net.inject_all(b, 1);
  bound.deliver(1);
  bound.net.crash_recipient(2);  // the slot-3 crash: party 2's coverage is gone
  bound.deliver(4);
  // Every view holds b, but party 2's coverage lacks it: the injection toward
  // its ring neighbor 1 ships, and 1's pop relays b on to party 2.
  bound.net.inject(b, 1, 5);
  EXPECT_EQ(bound.net.pending(1), 1u);
  const auto at5 = bound.deliver(5);
  EXPECT_EQ(at5[1], std::vector<Block>{b});
  EXPECT_EQ(bound.net.pending(2), 1u);
  EXPECT_EQ(bound.deliver(6)[2], std::vector<Block>{b});
  // Coverage is whole again: the next re-publish is a no-op.
  bound.net.inject_all(b, 7);
  EXPECT_EQ(bound.pending(), std::vector<std::size_t>(4, 0));
}

TEST(RedeliveryElision, APartyDownBeforeTheDueBlocksTheSkip) {
  faults::FaultPlan plan;
  plan.churn.push_back({3, 6, 8});  // party 3 is down over [6, 8)
  faults::FaultInjector inj(plan, 4, 16);
  BoundNetwork bound(4, ring(), &inj);
  const Block b = test_block(1, 1, kAdversary);
  bound.pool.add(b);
  bound.net.inject_all(b, 1);
  bound.deliver(1);
  // [1, 5] holds no down slot: skipped. [1, 9] holds party 3's crash, which
  // could wipe its coverage before the pop: the pushes to its ring
  // in-neighbors 0 and 2 ship, party 1's (out-neighbors 0 and 2) does not.
  bound.net.inject(b, 2, 5);
  EXPECT_EQ(bound.net.pending(2), 0u);
  bound.net.inject(b, 1, 9);
  EXPECT_EQ(bound.net.pending(1), 0u);
  bound.net.inject(b, 2, 9);
  EXPECT_EQ(bound.net.pending(2), 1u);
  bound.net.inject_all(b, 9);
  EXPECT_EQ(bound.pending(), (std::vector<std::size_t>{1, 0, 2, 0}));
}

TEST(RedeliveryElision, AVisibleSlotBeforeTheLatestCollectStillCountsItsDrop) {
  faults::FaultPlan plan;
  plan.churn.push_back({3, 2, 3});  // party 3 is down at slot 2 only
  faults::FaultInjector inj(plan, 4, 16);
  BoundNetwork bound(4, ring(), &inj);
  const Block b = test_block(1, 1, kAdversary);
  bound.pool.add(b);
  bound.net.inject_all(b, 1);
  bound.deliver(1);
  bound.deliver(5);
  // Visible at slot 2, already past: the down test spans [2, 5], so party
  // 3's drop is counted as before, and its ring in-neighbors 0 and 2 keep
  // their pushes.
  bound.net.inject_all(b, 2);
  EXPECT_EQ(inj.stats().ships_dropped, 1u);
  EXPECT_EQ(bound.pending(), (std::vector<std::size_t>{1, 0, 1, 0}));
}

TEST(RedeliveryElision, AHolderWithADownOutNeighborKeepsItsPush) {
  faults::FaultPlan plan;
  plan.churn.push_back({2, 3, 5});  // party 2 is down over [3, 5)
  faults::FaultInjector inj(plan, 4, 16);
  BoundNetwork bound(4, ring(), &inj);
  const Block b = test_block(1, 1, kAdversary);
  bound.pool.add(b);
  bound.net.inject_all(b, 1);
  bound.deliver(1);
  bound.deliver(2);
  bound.net.crash_recipient(2);  // the slot-3 crash wipes party 2's coverage
  bound.net.inject_all(b, 3);
  EXPECT_EQ(inj.stats().ships_dropped, 1u);  // party 2 is down at slot 3
  // Every view holds b; party 0's out-neighbors stay up, but 1 and 3 relay
  // to party 2, so their pops are not no-ops.
  EXPECT_EQ(bound.pending(), (std::vector<std::size_t>{0, 1, 0, 1}));
  // Party 1's pop relays toward the still-uncovered, down party 2: a drop the
  // skipped push would have lost.
  EXPECT_EQ(drain(bound.net, 1, 3), std::vector<Block>{b});
  EXPECT_EQ(inj.stats().ships_dropped, 2u);
}

TEST(RedeliveryElision, AnInjectVictimWithAnUncoveredOutNeighborKeepsItsPush) {
  BoundNetwork bound(4, ring());
  const Block b = test_block(1, 1, kAdversary);
  bound.pool.add(b);
  bound.nodes[0].receive(b);  // party 0 holds b, but no coverage does
  bound.net.inject(b, 0, 1);
  EXPECT_EQ(bound.pending(), (std::vector<std::size_t>{1, 0, 0, 0}));
  // The pop is a duplicate for party 0, but it relays b to neighbors 1 and
  // 3, who relay it on to party 2.
  EXPECT_EQ(bound.deliver(1)[0], std::vector<Block>{b});
  EXPECT_EQ(bound.pending(), (std::vector<std::size_t>{0, 1, 0, 1}));
  bound.deliver(2);
  EXPECT_EQ(bound.deliver(3)[2], std::vector<Block>{b});
  // Every neighbor of party 0 is covered now: the same injection is a no-op.
  bound.net.inject(b, 0, 4);
  EXPECT_EQ(bound.pending(), std::vector<std::size_t>(4, 0));
}

/// A two-block chain, b1 <- b2, in the pool.
std::pair<Block, Block> pooled_chain(BoundNetwork& bound) {
  const Block b1 = test_block(1, 1, kAdversary);
  const Block b2 = make_block(b1.hash, 2, kAdversary, 2);
  bound.pool.add(b1);
  bound.pool.add(b2);
  return {b1, b2};
}

TEST(RedeliveryElision, PublishChainShipsWhatTheFullLoopShips) {
  for (const NetConfig& cfg : {NetConfig::degenerate(), ring()}) {
    BoundNetwork bound(4, cfg);
    const auto [b1, b2] = pooled_chain(bound);
    bound.net.publish_chain(bound.pool, b2.hash, 2, 1);
    EXPECT_EQ(bound.pending(), (std::vector<std::size_t>{0, 2, 0, 0}));
    bound.net.publish_chain(bound.pool, b2.hash, 2);
    EXPECT_EQ(bound.pending(), (std::vector<std::size_t>{2, 4, 2, 2}));
    for (const auto& got : bound.deliver(2))
      EXPECT_EQ(got.front(), b1) << "ancestors first; heterogeneous: " << cfg.heterogeneous();
    // Every view holds the chain and every coverage too: settled.
    bound.net.publish_chain(bound.pool, b2.hash, 3);
    bound.net.publish_chain(bound.pool, b2.hash, 3, 2);
    EXPECT_EQ(bound.pending(), std::vector<std::size_t>(4, 0));
  }
}

TEST(RedeliveryElision, ACrashInvalidatesTheChainSettledStop) {
  faults::FaultPlan plan;
  plan.churn.push_back({2, 3, 4});  // party 2 is down at slot 3 only
  faults::FaultInjector inj(plan, 4, 16);
  BoundNetwork bound(4, ring(), &inj);
  const auto [b1, b2] = pooled_chain(bound);
  bound.net.publish_chain(bound.pool, b2.hash, 2);
  bound.deliver(2);
  bound.net.publish_chain(bound.pool, b2.hash, 2);  // marks b1 and b2 settled
  EXPECT_EQ(bound.pending(), std::vector<std::size_t>(4, 0));
  bound.net.crash_recipient(2);  // the slot-3 crash: party 2's coverage is gone
  bound.deliver(4);
  // Nobody is down in [4, 5], but the marks predate the crash: the walk goes
  // down to genesis and the re-publish covers party 2 again.
  bound.net.publish_chain(bound.pool, b2.hash, 5);
  EXPECT_EQ(bound.pending(), std::vector<std::size_t>(4, 0));
  // So no neighbor of party 2 has to relay b1 to it.
  bound.net.inject(b1, 1, 6);
  EXPECT_EQ(bound.pending(), std::vector<std::size_t>(4, 0));
}

TEST(RedeliveryElision, ATamperedAncestorCopyLeavesTheStopExact) {
  // The network is handed a tampered copy of b1 before the pooled b1. The
  // copy travels under an alias and never settles; the pooled b1 may, once
  // every view holds it. Either way publish_chain ships what the full
  // per-ancestor inject_all loop ships.
  for (const NetConfig& cfg : {NetConfig::degenerate(), ring()}) {
    BoundNetwork walk(4, cfg);
    BoundNetwork loop(4, cfg);
    const auto [b1, b2] = pooled_chain(walk);
    pooled_chain(loop);
    Block tampered = b1;
    tampered.payload ^= 0xbad;
    for (BoundNetwork* bound : {&walk, &loop}) {
      bound->net.inject_all(tampered, 1);
      for (const auto& got : bound->deliver(1)) EXPECT_EQ(got, std::vector<Block>{tampered});
      for (HonestNode& node : bound->nodes) node.receive(b1);
    }
    for (std::size_t slot = 2; slot < 5; ++slot) {
      walk.net.publish_chain(walk.pool, b2.hash, slot);
      for (const Block& b : {b1, b2}) loop.net.inject_all(b, slot);
      EXPECT_EQ(walk.pending(), loop.pending())
          << "slot " << slot << ", heterogeneous: " << cfg.heterogeneous();
      EXPECT_EQ(walk.deliver(slot), loop.deliver(slot))
          << "slot " << slot << ", heterogeneous: " << cfg.heterogeneous();
    }
  }
}

TEST(RedeliveryElision, ATamperedCopyUnderAHeldHashShipsAsBefore) {
  for (const NetConfig& cfg : {NetConfig::degenerate(), ring()}) {
    BoundNetwork bound(4, cfg);
    const Block b = test_block(1, 1, kAdversary);
    bound.pool.add(b);
    bound.net.inject_all(b, 1);
    bound.deliver(1);
    Block tampered = b;
    tampered.payload ^= 0xbad;
    bound.net.inject_all(tampered, 2);
    bound.net.inject(tampered, 0, 2);
    EXPECT_EQ(bound.pending(), (std::vector<std::size_t>{2, 1, 1, 1}))
        << "heterogeneous: " << cfg.heterogeneous();
    const auto got = bound.deliver(2);
    EXPECT_EQ(got[0], (std::vector<Block>{tampered, tampered}));
    for (PartyId p = 1; p < 4; ++p) EXPECT_EQ(got[p], std::vector<Block>{tampered});
  }
}

TEST(RedeliveryElision, ATamperedCopyInternedFirstIsNeverSkipped) {
  // A copy that reaches the network before the pooled block's first send is
  // still an alias: holding the hash does not make it a no-op.
  for (const NetConfig& cfg : {NetConfig::degenerate(), ring()}) {
    BoundNetwork bound(4, cfg);
    const Block b = test_block(1, 1, kAdversary);
    bound.pool.add(b);
    Block tampered = b;
    tampered.payload ^= 0xbad;
    bound.net.inject_all(tampered, 1);
    bound.deliver(1);
    for (HonestNode& node : bound.nodes) node.receive(b);
    bound.net.inject(tampered, 0, 2);
    bound.net.inject_all(tampered, 2);
    EXPECT_EQ(bound.pending(), (std::vector<std::size_t>{2, 1, 1, 1}))
        << "heterogeneous: " << cfg.heterogeneous();
  }
}

TEST(RedeliveryElision, AnUnboundNetworkShipsEveryPush) {
  Network net(3, 0);
  const Block b = test_block(1, 1, kAdversary);
  net.inject_all(b, 1);
  for (PartyId p = 0; p < 3; ++p) drain(net, p, 1);
  net.inject_all(b, 2);
  for (PartyId p = 0; p < 3; ++p) EXPECT_EQ(net.pending(p), 1u);
}

// ---------------------------------------------------------------------------
// Lockstep watermarks
// ---------------------------------------------------------------------------

/// The payloads `recipient` collects at `slot`, in pop order.
std::vector<std::uint64_t> lane(Network& net, PartyId recipient, std::size_t slot) {
  std::vector<std::uint64_t> payloads;
  for (const Block& b : drain(net, recipient, slot)) payloads.push_back(b.payload);
  return payloads;
}

TEST(LockstepWatermarks, AScriptedSequencePinsTheLanesAndTheInvalidatedCount) {
  // Blocks are named by payload: a <- b <- x <- c <- d, x adversarial. An
  // empty fault plan never opens a window; it only counts the crashes.
  faults::FaultInjector injector(faults::FaultPlan{}, 3, 32);
  Network net(3, 1);
  net.attach_faults(&injector);
  BlockTree tree;
  const Block a = make_block(genesis_block().hash, 1, 0, 1);
  const Block b = make_block(a.hash, 2, 1, 2);
  const Block x = make_block(b.hash, 3, kAdversary, 9);
  const Block c = make_block(x.hash, 4, 2, 3);
  const Block d = make_block(c.hash, 8, 0, 4);
  for (const Block& block : {a, b, x, c, d}) ASSERT_TRUE(tree.add(block));
  using Lane = std::vector<std::uint64_t>;

  net.broadcast_chain(tree, a, 1);             // uniform: the all-recipient bound, a@2
  net.broadcast_chain(tree, b, 2, {0, 1, 0});  // per-recipient dues 3, 4, 3; bound b@4
  net.inject(x, 0, 3);  // b is covered for 0 by 3 only per recipient: x is recorded
  for (PartyId r = 0; r < 3; ++r) EXPECT_EQ(lane(net, r, 2), Lane{1}) << r;
  EXPECT_EQ(lane(net, 0, 3), (Lane{2, 9}));
  EXPECT_EQ(lane(net, 1, 3), Lane{});
  EXPECT_EQ(lane(net, 2, 3), Lane{2});
  EXPECT_EQ(lane(net, 1, 4), Lane{2});
  // Slot 5 = 3 + Delta + 1: party 0's entries for b and x expire.
  EXPECT_EQ(lane(net, 0, 5), Lane{});
  EXPECT_EQ(lane(net, 1, 5), Lane{});
  // x is covered for nobody now, so every recipient is re-shipped x first.
  net.broadcast_chain(tree, c, 5, {1, 0, 0});
  EXPECT_EQ(lane(net, 1, 6), (Lane{9, 3}));
  EXPECT_EQ(lane(net, 0, 7), (Lane{9, 3}));
  EXPECT_EQ(net.pending(2), 2u);

  // Party 2 still holds b@3, x@6 and c@6; the bound holds a, b, x and c.
  net.crash_recipient(2);
  EXPECT_EQ(injector.stats().watermarks_invalidated, 7u);
  EXPECT_EQ(net.pending(2), 0u);
  // The crash cleared the bound for everyone: d re-ships its whole chain.
  net.broadcast_chain(tree, d, 8);
  for (PartyId r = 0; r < 3; ++r) EXPECT_EQ(lane(net, r, 9), (Lane{1, 2, 9, 3, 4})) << r;
  // Party 0's x@7 and c@7 expired at that collect; the bound holds five.
  net.crash_recipient(0);
  EXPECT_EQ(injector.stats().watermarks_invalidated, 12u);
}

// ---------------------------------------------------------------------------
// The façade equivalence contract
// ---------------------------------------------------------------------------

TEST(FacadeEquivalence, DegenerateNetConfigReproducesTheLegacyDigestBitIdentically) {
  const TransportProbeOutcome legacy = balance_transport_probe(8, 192, 2024);
  const TransportProbeOutcome event_core =
      hetero_transport_probe(8, 192, 2024, 0, NetConfig::degenerate());
  EXPECT_EQ(event_core.digest, legacy.digest);
  EXPECT_EQ(event_core.blocks, legacy.blocks);
  EXPECT_EQ(event_core.divergence, legacy.divergence);
}

TEST(FacadeEquivalence, GoldenTransportPinsStillHold) {
  // The seed pins from the slot-bucket era, now produced by the event core.
  EXPECT_EQ(balance_transport_probe(kBalanceProbePinParties, kBalanceProbePinHorizon,
                                    kBalanceProbePinSeed)
                .digest,
            kBalanceProbePinDigest);
  EXPECT_EQ(randomized_transport_probe(kRandomizedProbePinParties, kRandomizedProbePinHorizon,
                                       kRandomizedProbePinSeed, kRandomizedProbePinDelta)
                .digest,
            kRandomizedProbePinDigest);
}

// The composed adversarial-gossip shape: the randomized adversary (Delta
// hold-backs, partial leaks, whole-chain re-publish) on random-k gossip with
// capped geometric latency and a sampled Mixed fault plan. No other pin
// composes all of these, so this one catches a transport change that moves
// relay retries, re-deliveries after faulted drops, or re-sync ships. Draws
// follow the transport probes (schedule, adversary seed, simulation seed); the
// plan draws from its own stream.
struct ComposedGossipOutcome {
  std::uint64_t digest = 0;
  std::size_t observed_delta = 0;
  faults::FaultStats stats;
};

/// One composed execution's shape; the default network is the random-k gossip
/// of the adversarial_gossip benchmark workload.
struct GossipShape {
  std::size_t parties = 0;
  std::size_t horizon = 0;
  std::uint64_t seed = 0;
  std::size_t delta = 2;
  NetConfig net = [] {
    NetConfig cfg;
    cfg.topology = TopologyKind::RandomK;
    cfg.k = 4;
    cfg.latency = {LatencyKind::Geometric, 0, 3, 0.5};
    return cfg;
  }();
  bool faults = true;  ///< attach the sampled Mixed plan
};

template <class Strategy = RandomizedAdversary>
ComposedGossipOutcome composed_gossip_run(const GossipShape& shape) {
  Rng rng(shape.seed);
  const LeaderSchedule schedule = LeaderSchedule::from_symbol_law(
      kTransportProbeLaw, shape.horizon, shape.parties, rng);
  Strategy adversary(rng());
  Rng plan_rng(shape.seed ^ 0xfa017b1a5eedULL);
  faults::FaultInjector injector(
      faults::sample_fault_plan(faults::FaultProfile::Mixed, shape.parties, shape.horizon,
                                shape.delta, plan_rng),
      shape.parties, shape.horizon);
  Simulation sim(schedule, SimulationConfig{TieBreak::AdversarialOrder, rng()}, shape.delta,
                 &adversary, shape.faults ? &injector : nullptr, shape.net);
  sim.run();
  ComposedGossipOutcome out;
  // A lockstep run has no gossip report: its observed Delta is the fault
  // layer's.
  out.observed_delta = shape.net.heterogeneous() ? sim.net_report().observed_delta
                                                 : sim.fault_report().observed_delta;
  out.stats = injector.stats();
  std::uint64_t d = kFnvOffsetBasis;
  for (const Block& b : sim.all_blocks()) d = fnv1a_accumulate(d, b.hash);
  for (const BlockHash h : sim.public_tree().arrival_order()) d = fnv1a_accumulate(d, h);
  for (const HonestNode& node : sim.nodes()) d = fnv1a_accumulate(d, node.best_head());
  d = fnv1a_accumulate(d, sim.observed_slot_divergence());
  d = fnv1a_accumulate(d, out.observed_delta);
  const faults::FaultStats& s = out.stats;
  for (const std::size_t counter :
       {s.ships_dropped, s.ships_duplicated, s.ships_delayed, s.crashes, s.restarts,
        s.partitions_healed, s.resync_blocks, s.watermarks_invalidated, s.leaderships_skipped})
    d = fnv1a_accumulate(d, counter);
  out.digest = d;
  return out;
}

TEST(FacadeEquivalence, ComposedAdversarialGossipPinHolds) {
  // Computed on the heap-of-Blocks transport, before the transport moved to
  // block ids; it must never be re-pinned for a refactor.
  const ComposedGossipOutcome out = composed_gossip_run({24, 300, 31});
  // The counters are folded into the digest too; pinned one by one so a
  // failure names what moved.
  EXPECT_EQ(out.observed_delta, 40u);
  EXPECT_EQ(out.stats.ships_dropped, 1367u);
  EXPECT_EQ(out.stats.ships_duplicated, 31u);
  EXPECT_EQ(out.stats.ships_delayed, 133u);
  EXPECT_EQ(out.stats.crashes, 10u);
  EXPECT_EQ(out.stats.restarts, 10u);
  EXPECT_EQ(out.stats.partitions_healed, 2u);
  EXPECT_EQ(out.stats.resync_blocks, 261u);
  EXPECT_EQ(out.stats.watermarks_invalidated, 1140u);
  EXPECT_EQ(out.stats.leaderships_skipped, 0u);
  EXPECT_EQ(out.digest, 0x3eeac0cbf90b8a91ULL);
}

// The wider exactness net: the same fold over the shapes the composed pin
// leaves out — other gossip topologies, a bandwidth cap (egress spills are a
// relay side effect), Delta = 1, the lockstep transport under Mixed faults,
// and the adversarial_gossip workload's own shape. Every value was captured
// on the transport that still delivered every re-published block; none may
// ever be re-pinned.
void expect_pinned(const GossipShape& shape, std::size_t observed_delta,
                   const faults::FaultStats& stats, std::uint64_t digest) {
  SCOPED_TRACE("shape " + std::to_string(shape.parties) + " x " +
               std::to_string(shape.horizon) + ", seed " + std::to_string(shape.seed));
  const ComposedGossipOutcome out = composed_gossip_run(shape);
  EXPECT_EQ(out.observed_delta, observed_delta);
  EXPECT_EQ(out.stats.ships_dropped, stats.ships_dropped);
  EXPECT_EQ(out.stats.ships_duplicated, stats.ships_duplicated);
  EXPECT_EQ(out.stats.ships_delayed, stats.ships_delayed);
  EXPECT_EQ(out.stats.crashes, stats.crashes);
  EXPECT_EQ(out.stats.restarts, stats.restarts);
  EXPECT_EQ(out.stats.partitions_healed, stats.partitions_healed);
  EXPECT_EQ(out.stats.resync_blocks, stats.resync_blocks);
  EXPECT_EQ(out.stats.watermarks_invalidated, stats.watermarks_invalidated);
  EXPECT_EQ(out.stats.leaderships_skipped, stats.leaderships_skipped);
  EXPECT_EQ(out.digest, digest) << std::hex << "0x" << out.digest;
}

GossipShape with_topology(GossipShape shape, TopologyKind topology) {
  shape.net.topology = topology;
  return shape;
}

TEST(FacadeEquivalence, RingGossipPinHolds) {
  expect_pinned(with_topology({24, 300, 32}, TopologyKind::Ring), 229,
                {2298, 30, 142, 9, 9, 1, 411, 1783, 1}, 0x8d4b12fda4055a73ULL);
}

TEST(FacadeEquivalence, BridgeGossipPinHolds) {
  expect_pinned(with_topology({24, 300, 33}, TopologyKind::TwoClusterBridge), 69,
                {5019, 91, 417, 9, 9, 1, 176, 1860, 0}, 0xa8ed05aa7ea88afbULL);
}

TEST(FacadeEquivalence, BandwidthCappedGossipPinHolds) {
  GossipShape shape{24, 300, 34};
  shape.net.bandwidth = 2;
  expect_pinned(shape, 125, {2650, 50, 585, 4, 4, 2, 403, 585, 1}, 0x6743d909a52fd289ULL);
}

TEST(FacadeEquivalence, DeltaOneGossipPinHolds) {
  GossipShape shape{24, 300, 35};
  shape.delta = 1;
  expect_pinned(shape, 11, {1098, 0, 26, 6, 6, 2, 234, 1191, 0}, 0x253ca4f15d9e1626ULL);
}

TEST(FacadeEquivalence, LockstepMixedFaultsPinHolds) {
  GossipShape shape{24, 300, 36};
  shape.net = NetConfig::degenerate();
  expect_pinned(shape, 179, {955, 104, 341, 6, 5, 1, 347, 888, 0}, 0x4121c307b34fe1c4ULL);
}

TEST(FacadeEquivalence, AdversarialGossipWorkloadShapePinsHold) {
  // 64 parties x 1000 slots: the benchmark workload's shape, where nearly
  // every delivery is a re-publish.
  expect_pinned({64, 1000, 1}, 938, {7528, 31, 4402, 8, 8, 1, 422, 4612, 0},
                0x89f59643d144378fULL);
  expect_pinned({64, 1000, 2}, 175, {1272, 176, 963, 2, 2, 1, 633, 1292, 0},
                0x7c3b9cd0979c5bbdULL);
}

// The differential net for publish_chain: RandomizedAdversary as it was
// before the walk could stop, re-publishing every ancestor of the chain
// through inject / inject_all. It draws exactly what RandomizedAdversary
// draws, in the same order.
class FullWalkRandomizedAdversary : public Adversary {
 public:
  explicit FullWalkRandomizedAdversary(std::uint64_t seed) : rng_(seed) {}

  void on_slot_begin(std::size_t slot, Simulation& sim) override {
    if (!sim.schedule().leaders(slot).adversarial) return;
    const std::size_t delta = sim.network().delta();
    std::vector<BlockHash> parents;
    for (BlockHash h : sim.global_tree().max_length_heads())
      if (sim.global_tree().block(h).slot < slot) parents.push_back(h);
    if (parents.empty() || rng_.bernoulli(0.25)) {
      const std::span<const Block> blocks = sim.all_blocks();
      for (int tries = 0; tries < 4; ++tries) {
        const Block& b = blocks[rng_.below(blocks.size())];
        if (b.slot < slot) {
          parents.push_back(b.hash);
          break;
        }
      }
    }
    if (parents.empty()) return;
    const BlockHash parent = parents[rng_.below(parents.size())];
    const Block block = sim.mint_adversarial(parent, slot, payload_++);
    switch (rng_.below(4)) {
      case 0: break;
      case 1: {
        const PartyId victim = static_cast<PartyId>(rng_.below(sim.nodes().size()));
        const std::size_t visible = slot + rng_.below(delta + 1);
        for (BlockHash h : sim.global_tree().chain(block.hash))
          if (h != genesis_block().hash)
            sim.network().inject(sim.global_tree().block(h), victim, visible);
        break;
      }
      default: {
        const std::size_t visible = slot + rng_.below(delta + 1);
        for (BlockHash h : sim.global_tree().chain(block.hash))
          if (h != genesis_block().hash)
            sim.network().inject_all(sim.global_tree().block(h), visible);
      }
    }
  }

  std::vector<std::size_t> delivery_delays(const Block&, std::size_t,
                                           Simulation& sim) override {
    std::vector<std::size_t> delays(sim.nodes().size(), 0);
    const std::size_t delta = sim.network().delta();
    if (delta == 0) return delays;
    for (std::size_t& d : delays) d = rng_.below(delta + 1);
    return delays;
  }

  BlockHash break_tie(PartyId, const std::vector<BlockHash>& candidates, Simulation&) override {
    return candidates[rng_.below(candidates.size())];
  }

 private:
  Rng rng_;
  std::uint64_t payload_ = 0xf022edULL;
};

TEST(PublishChainDifferential, MatchesTheFullWalkOnRandomShapes) {
  // Fresh seeds on every run (CI repeats this test); a failure names the
  // master seed, and composed_gossip_run of the traced shape reproduces it.
  const std::uint64_t master = (std::uint64_t{std::random_device{}()} << 32) ^
                               std::random_device{}();
  Rng draw(master);
  for (const bool gossip : {true, false}) {
    for (const bool faulted : {true, false}) {
      for (int run = 0; run < 3; ++run) {
        GossipShape shape{8 + 8 * draw.below(3), 200 + 100 * draw.below(5), draw()};
        const TopologyKind kinds[] = {TopologyKind::RandomK, TopologyKind::Ring,
                                      TopologyKind::TwoClusterBridge, TopologyKind::FullMesh};
        shape.net.topology = kinds[draw.below(4)];
        if (!gossip) shape.net = NetConfig::degenerate();
        shape.faults = faulted;
        SCOPED_TRACE("master seed " + std::to_string(master) + ": " +
                     (gossip ? net::topology_kind_name(shape.net.topology) : "lockstep") +
                     std::string(" ") + std::to_string(shape.parties) +
                     " x " + std::to_string(shape.horizon) + ", seed " +
                     std::to_string(shape.seed) + (faulted ? ", Mixed faults" : ", no faults"));
        const ComposedGossipOutcome walked = composed_gossip_run<FullWalkRandomizedAdversary>(shape);
        const ComposedGossipOutcome published = composed_gossip_run(shape);
        EXPECT_EQ(published.digest, walked.digest);
        EXPECT_EQ(published.observed_delta, walked.observed_delta);
        EXPECT_EQ(published.stats, walked.stats);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle grading of heterogeneous executions
// ---------------------------------------------------------------------------

oracle::RunConfig hetero_run_config(TopologyKind topology) {
  oracle::RunConfig rc;
  rc.law = theorem7_law(1.0, 0.25, 0.45);
  rc.horizon = 48;
  rc.delta = 1;
  rc.strategy = Strategy::Balance;
  rc.net.topology = topology;
  rc.net.k = 2;
  rc.net.latency = {LatencyKind::Uniform, 0, 2, 0.5};
  return rc;
}

TEST(HeteroOracle, EveryTopologyGradesWithoutUngradedViolations) {
  for (const TopologyKind topology :
       {TopologyKind::FullMesh, TopologyKind::RandomK, TopologyKind::Ring,
        TopologyKind::TwoClusterBridge}) {
    const oracle::RunConfig rc = hetero_run_config(topology);
    engine::SeedSequence streams(515);
    for (std::size_t r = 0; r < 6; ++r) {
      Rng rng = streams.stream(r);
      const oracle::RunVerdict v = oracle::check_execution(rc, rng);
      EXPECT_TRUE(v.heterogeneous);
      const char code = v.code();
      EXPECT_NE(code, '!') << net::topology_kind_name(topology) << " run " << r;
      EXPECT_NE(code, 'u') << net::topology_kind_name(topology) << " run " << r
                           << " (strongly connected gossip must stay bounded)";
      if (v.degraded) EXPECT_TRUE(v.recovery_checked);
    }
  }
}

TEST(HeteroOracle, VerdictsAreThreadCountBitIdentical) {
  // 12 heterogeneous cells fanned across {1, 2, 8} workers must produce the
  // same verdict codes: every draw is counter-based in the cell index.
  const TopologyKind kinds[] = {TopologyKind::RandomK, TopologyKind::Ring,
                                TopologyKind::TwoClusterBridge, TopologyKind::FullMesh};
  const auto run_band = [&](std::size_t threads) {
    std::string codes(12, '?');
    engine::SeedSequence streams(2210);
    engine::for_each_index(12, threads, [&](std::size_t i) {
      const oracle::RunConfig rc = hetero_run_config(kinds[i % 4]);
      Rng rng = streams.stream(i);
      codes[i] = oracle::check_execution(rc, rng).code();
    });
    return codes;
  };
  const std::string serial = run_band(1);
  EXPECT_EQ(run_band(2), serial);
  EXPECT_EQ(run_band(8), serial);
  EXPECT_EQ(serial.find('?'), std::string::npos);
  EXPECT_EQ(serial.find('!'), std::string::npos);
  EXPECT_EQ(serial.find('u'), std::string::npos);
}

}  // namespace
}  // namespace mh
