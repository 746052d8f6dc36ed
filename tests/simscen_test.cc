// Tests for the scenario engine: topology/cluster-profile semantics,
// the flow DES's hand-computed and pinned replays, the degenerate
// scenario's agreement with the analytics closed forms (homogeneous
// single rack, no contention), and straggler / oversubscription
// behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analytics/report.h"
#include "common/random.h"
#include "cmr/cmr.h"
#include "codedterasort/coded_terasort.h"
#include "driver/cluster.h"
#include "mitigate/policy.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "simnet/transmission_log.h"
#include "simscen/engine.h"
#include "simscen/netsim.h"
#include "simscen/scenario.h"
#include "terasort/terasort.h"

namespace cts::simscen {
namespace {

using simnet::Discipline;
using simnet::ReplayOrder;
using simnet::Transmission;
using simnet::TransmissionLog;

// Unit-rate single rack: durations equal byte counts.
Topology UnitRack(int num_nodes) {
  Topology t = Topology::SingleRack(num_nodes);
  t.access_bytes_per_sec = 1.0;
  t.multicast_log_coeff = 0.0;
  return t;
}

constexpr Discipline kAllDisciplines[] = {
    Discipline::kSerial, Discipline::kParallelHalfDuplex,
    Discipline::kParallelFullDuplex};
constexpr ReplayOrder kAllOrders[] = {ReplayOrder::kLogOrder,
                                      ReplayOrder::kPerSender};

// ---- Topology & ClusterProfile semantics ----

TEST(Topology, RackAssignmentAndCoreCrossing) {
  Topology t = Topology::Oversubscribed(/*num_nodes=*/6, /*nodes_per_rack=*/2,
                                        /*factor=*/3.0);
  EXPECT_EQ(t.rack_of(0), 0);
  EXPECT_EQ(t.rack_of(1), 0);
  EXPECT_EQ(t.rack_of(2), 1);
  EXPECT_EQ(t.rack_of(5), 2);
  EXPECT_TRUE(t.core_is_finite());
  EXPECT_DOUBLE_EQ(t.core_bytes_per_sec, 6.0 * t.access_bytes_per_sec / 3.0);
  EXPECT_FALSE(t.crosses_core(Transmission{0, {1}, 10}));
  EXPECT_TRUE(t.crosses_core(Transmission{0, {2}, 10}));
  EXPECT_TRUE(t.crosses_core(Transmission{0, {1, 4}, 10}));  // one remote dst
}

TEST(Topology, SingleRackNeverCrossesCore) {
  const Topology t = Topology::SingleRack(4);
  EXPECT_FALSE(t.core_is_finite());
  EXPECT_FALSE(t.crosses_core(Transmission{0, {1, 2, 3}, 10}));
}

TEST(ClusterProfile, SlowNodeStretchesOnlyThatNode) {
  ClusterProfile p = ClusterProfile::Homogeneous(4);
  p.straggler.kind = StragglerKind::kSlowNode;
  p.straggler.node = 2;
  p.straggler.slowdown = 3.0;
  EXPECT_DOUBLE_EQ(p.compute_seconds(0, 0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(p.compute_seconds(2, 0, 10.0), 30.0);
}

TEST(ClusterProfile, SpeedMultipliersDivideDurations) {
  ClusterProfile p;
  p.speed = {1.0, 0.5, 2.0};
  EXPECT_DOUBLE_EQ(p.compute_seconds(1, 0, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(p.compute_seconds(2, 0, 10.0), 5.0);
}

TEST(ClusterProfile, ShiftedExpIsDeterministicAndAtLeastShift) {
  ClusterProfile p = ClusterProfile::Homogeneous(4);
  p.straggler.kind = StragglerKind::kShiftedExp;
  p.straggler.shift = 1.0;
  p.straggler.mean = 0.5;
  p.straggler.seed = 7;
  double sum = 0;
  for (int n = 0; n < 4; ++n) {
    for (int s = 0; s < 3; ++s) {
      const double f = p.straggler_factor(n, s);
      EXPECT_GE(f, 1.0);
      EXPECT_DOUBLE_EQ(f, p.straggler_factor(n, s));  // reproducible
      sum += f;
    }
  }
  // Distinct (node, stage) pairs draw distinct factors.
  EXPECT_NE(p.straggler_factor(0, 0), p.straggler_factor(1, 0));
  EXPECT_NE(p.straggler_factor(0, 0), p.straggler_factor(0, 1));
  // Mean factor should be near shift + mean (loose, 12 draws).
  EXPECT_NEAR(sum / 12.0, 1.5, 0.75);
}

// ---- Network replay: hand-computed schedules ----

// The busiest access link's total occupancy (analytics' parallel
// closed form): a lower bound for any parallel schedule.
double BusiestLinkSeconds(const TransmissionLog& log, const Topology& topo,
                          bool full_duplex) {
  std::vector<double> tx(static_cast<std::size_t>(topo.num_nodes), 0.0);
  std::vector<double> rx = tx;
  for (const Transmission& t : log) {
    const double sec = static_cast<double>(t.bytes) / topo.access_bytes_per_sec;
    tx[static_cast<std::size_t>(t.src)] += sec * topo.multicast_penalty(t);
    for (const NodeId d : t.dsts) rx[static_cast<std::size_t>(d)] += sec;
  }
  double worst = 0;
  for (std::size_t i = 0; i < tx.size(); ++i) {
    worst = std::max(worst, full_duplex ? std::max(tx[i], rx[i])
                                        : tx[i] + rx[i]);
  }
  return worst;
}

// A log-order parallel replay lies between the busiest-link bound and
// the serial sum, under both duplex modes.
void ExpectBetweenLinkBoundAndSerial(const TransmissionLog& log,
                                     const Topology& topo) {
  const double serial = NetMakespan(log, topo, Discipline::kSerial);
  for (const bool fd : {true, false}) {
    const double makespan = NetMakespan(
        log, topo,
        fd ? Discipline::kParallelFullDuplex : Discipline::kParallelHalfDuplex);
    EXPECT_GE(makespan * (1 + 1e-12), BusiestLinkSeconds(log, topo, fd));
    EXPECT_LE(makespan, serial * (1 + 1e-12));
  }
}

TEST(NetMakespan, HandComputedSchedules) {
  constexpr Discipline kHalf = Discipline::kParallelHalfDuplex;
  constexpr Discipline kFull = Discipline::kParallelFullDuplex;
  const TransmissionLog disjoint{{0, {1}, 10}, {2, {3}, 30}};
  // 0->1 and 1->0 use opposite directions of both nodes' links.
  const TransmissionLog opposing{{0, {1}, 10}, {1, {0}, 10}};
  // Log order on a unit-rate rack: durations equal byte counts.
  const struct {
    const char* name;
    TransmissionLog log;
    Discipline discipline;
    double makespan;
  } cases[] = {
      {"the serial medium sums",
       {{0, {1}, 10}, {1, {0}, 20}, {0, {2}, 5}},
       Discipline::kSerial, 35},
      {"disjoint links overlap (full)", disjoint, kFull, 30},
      {"disjoint links overlap (half)", disjoint, kHalf, 30},
      {"a shared sender serializes", {{0, {1}, 10}, {0, {2}, 10}},
       kFull, 20},
      {"a shared receiver serializes", {{0, {2}, 10}, {1, {2}, 10}},
       kFull, 20},
      {"full duplex overlaps opposing directions", opposing, kFull, 10},
      {"half duplex serializes opposing directions", opposing, kHalf, 20},
      // The multicast holds receiver 2's downlink, so 3->2 waits.
      {"a multicast holds every receiver",
       {{0, {1, 2}, 10}, {3, {2}, 10}}, kFull, 20},
  };
  for (const auto& c : cases) {
    EXPECT_DOUBLE_EQ(NetMakespan(c.log, UnitRack(4), c.discipline),
                     c.makespan)
        << c.name;
  }
}

TEST(NetMakespan, EmptyLogIsZero) {
  for (const int n : {1, 3}) {
    for (const Discipline d : kAllDisciplines) {
      for (const ReplayOrder o : kAllOrders) {
        EXPECT_EQ(NetMakespan({}, UnitRack(n), d, o), 0.0) << n << " nodes";
      }
    }
  }
}

TEST(NetMakespan, SingleSenderIsTheSumUnderEveryDiscipline) {
  // All traffic leaves node 0: its uplink serializes everything, so
  // the shared medium and per-node links coincide under both orders.
  const TransmissionLog log{
      {0, {1}, 10}, {0, {2}, 20}, {0, {3}, 5}, {0, {1}, 15}};
  for (const Discipline d : kAllDisciplines) {
    for (const ReplayOrder o : kAllOrders) {
      EXPECT_DOUBLE_EQ(NetMakespan(log, UnitRack(4), d, o), 50.0);
    }
  }
}

TEST(NetMakespan, MulticastPenaltyIsOnePlusCoeffLog2Fanout) {
  // 100 B at 100 B/s: a unicast takes 1 s whatever the coefficient; a
  // fan-out-4 multicast streams for 1 + coeff * log2(4) s.
  Topology topo = Topology::SingleRack(5);
  topo.access_bytes_per_sec = 100.0;
  for (const double coeff : {0.5, 10.0}) {
    topo.multicast_log_coeff = coeff;
    for (const Discipline d : kAllDisciplines) {
      for (const ReplayOrder o : kAllOrders) {
        EXPECT_DOUBLE_EQ(NetMakespan({{0, {1}, 100}}, topo, d, o), 1.0);
        EXPECT_DOUBLE_EQ(NetMakespan({{0, {1, 2, 3, 4}, 100}}, topo, d, o),
                         1.0 + coeff * 2.0);
      }
    }
  }
}

TEST(NetMakespan, RejectsOutOfRangeNodes) {
  for (const Discipline d :
       {Discipline::kParallelHalfDuplex, Discipline::kParallelFullDuplex}) {
    EXPECT_THROW(NetMakespan({{0, {5}, 10}}, UnitRack(3), d), CheckError);
  }
}

TEST(NetMakespan, LaterEntryMustWaitForBlockedPredecessorsLink) {
  // Per-link FIFO in log order, not eager admission: B (0->2) is
  // blocked on 0's uplink until A finishes, and E (3->2), although
  // its links are idle at t=0, must not overtake B on 2's downlink.
  const TransmissionLog log{{0, {1}, 10}, {0, {2}, 10}, {3, {2}, 10}};
  const Topology topo = UnitRack(4);
  // A [0,10], B [10,20], E [20,30].
  EXPECT_DOUBLE_EQ(NetMakespan(log, topo, Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   30.0);
  // Per-sender order lets E's sender initiate independently: E [0,10],
  // B [10,20].
  EXPECT_DOUBLE_EQ(NetMakespan(log, topo, Discipline::kParallelFullDuplex,
                               ReplayOrder::kPerSender),
                   20.0);
}

TEST(NetMakespan, MulticastReleasesReceiversBeforeSenderTail) {
  // Fanout-2 multicast with coeff 1 streams 2x its payload on the
  // sender's uplink; a follow-up unicast into one of its receivers may
  // start at the receiver-release time (t=10), not the sender-tail
  // time (t=20).
  Topology topo = UnitRack(3);
  topo.multicast_log_coeff = 1.0;  // penalty = 1 + log2(2) = 2
  const TransmissionLog log{{0, {1, 2}, 10}, {1, {2}, 10}};
  // mcast tx [0,20]; unicast [10,20].
  EXPECT_DOUBLE_EQ(NetMakespan(log, topo, Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   20.0);
}

// ---- Network replay: pinned values ----
//
// Makespans on the paper-rate single rack, captured from the shipped
// implementation: a mismatch means the flow DES changed.

TEST(NetMakespan, SyntheticReplaysArePinned) {
  const struct {
    TransmissionLog log;
    double makespan[3][2];  // [kAllDisciplines][kAllOrders]
  } pins[] = {
      {{{0, {1}, 10}, {0, {2}, 20}, {1, {2}, 5}, {2, {0}, 7},
        {3, {1}, 9}, {1, {3}, 11}},
       {{5.2210526315789475e-06, 5.2210526315789475e-06},
        {4.631578947368421e-06, 3.8736842105263157e-06},
        {3.8736842105263157e-06, 2.5263157894736844e-06}}},
      {{{0, {1, 2, 3}, 12}, {1, {0, 2}, 8}, {3, {0, 1}, 10},
        {2, {3}, 6}},
       {{4.0291584002331994e-06, 4.0291584002331994e-06},
        {4.0291584002331994e-06, 3.5238952423384622e-06},
        {2.7957894736842102e-06, 2.7957894736842102e-06}}},
  };
  for (std::size_t i = 0; i < std::size(pins); ++i) {
    for (std::size_t d = 0; d < 3; ++d) {
      for (std::size_t o = 0; o < 2; ++o) {
        EXPECT_EQ(NetMakespan(pins[i].log, Topology::SingleRack(4),
                              kAllDisciplines[d], kAllOrders[o]),
                  pins[i].makespan[d][o])
            << "log " << i << " discipline " << d << " order " << o;
      }
    }
  }
}

// Real shuffle logs of both syncs. A sender's log order is its program
// order, so a per-sender replay depends on the spec alone and is
// pinned. The serial sum adds in arrival order, which moves its last
// ulp, so it is pinned to 1e-12 and checked against the analytics
// closed form. A log-order replay depends on the arrival race
// (simnet::TransmissionLog), so it is only bounded.
TEST(NetMakespan, RealLogReplaysArePinned) {
  const CostModel model;
  const struct {
    int nodes;
    int redundancy;
    std::uint64_t records;
    KeyDistribution distribution;
    double serial;
    double per_sender_half;
    double per_sender_full;
  } shapes[] = {
      {6, 1, 6000, KeyDistribution::kUniform, 0.041443368421052638,
       0.026581221052631578, 0.01261237894736842},
      {6, 2, 6000, KeyDistribution::kUniform, 0.023867823157894732,
       0.021974447157894737, 0.01024132042105263},
      // Its full-duplex replay sits on an ulp-level near-tie: event
      // times accumulated with other rounding break it the other way
      // (0.016453538672442421).
      {12, 3, 12000, KeyDistribution::kBalanced, 0.050945619750790198,
       0.044407963521456539, 0.016451756460675839},
  };
  for (const auto& s : shapes) {
    for (const ShuffleSync sync :
         {ShuffleSync::kBarrier, ShuffleSync::kOverlapped}) {
      SCOPED_TRACE(testing::Message() << "K=" << s.nodes << " r="
                                      << s.redundancy << " sync="
                                      << static_cast<int>(sync));
      SortConfig config;
      config.num_nodes = s.nodes;
      config.redundancy = s.redundancy;
      config.num_records = s.records;
      config.distribution = s.distribution;
      config.shuffle_sync = sync;
      const AlgorithmResult result =
          s.redundancy == 1 ? RunTeraSort(config) : RunCodedTeraSort(config);
      const TransmissionLog& log = result.shuffle_log;
      const Topology rack = Topology::SingleRack(s.nodes);
      const auto& bytes = result.traffic.at(stage::kShuffle);
      const double closed =
          model.unicast_seconds(static_cast<double>(bytes.unicast_bytes)) +
          model.multicast_seconds(static_cast<double>(bytes.mcast_bytes),
                                  s.redundancy);
      const double serial = NetMakespan(log, rack, Discipline::kSerial);
      EXPECT_NEAR(serial, closed, closed * 1e-9);
      EXPECT_NEAR(serial, s.serial, s.serial * 1e-12);
      EXPECT_DOUBLE_EQ(NetMakespan(log, rack, Discipline::kParallelHalfDuplex,
                                   ReplayOrder::kPerSender),
                       s.per_sender_half);
      EXPECT_DOUBLE_EQ(NetMakespan(log, rack, Discipline::kParallelFullDuplex,
                                   ReplayOrder::kPerSender),
                       s.per_sender_full);
      ExpectBetweenLinkBoundAndSerial(log, rack);
    }
  }
}

TEST(NetMakespan, TeraSortFullDuplexBeatsTheSharedMedium) {
  // TeraSort's sender-serial program parallelizes poorly as logged,
  // but still beats the serial medium.
  SortConfig config;
  config.num_nodes = 8;
  config.num_records = 8000;
  config.distribution = KeyDistribution::kBalanced;
  const TransmissionLog log = RunTeraSort(config).shuffle_log;
  const Topology rack = Topology::SingleRack(8);
  ExpectBetweenLinkBoundAndSerial(log, rack);
  EXPECT_LT(NetMakespan(log, rack, Discipline::kParallelFullDuplex),
            NetMakespan(log, rack, Discipline::kSerial) * 0.8);
}

// ---- Straggler-sampler golden regression values ----
//
// The scenario sweeps publish numbers derived from these samplers; a
// silent change to the ClusterProfile RNG (seeding, mixing, the
// shifted-exponential transform) would shift every published cell.
// These constants were produced by the shipped implementation — a
// mismatch means the sampler changed, not that the test is stale.

TEST(StragglerSamplers, ShiftedExpMatchesGoldenValues) {
  ClusterProfile p = ClusterProfile::Homogeneous(4);
  p.straggler.kind = StragglerKind::kShiftedExp;
  p.straggler.shift = 1.0;
  p.straggler.mean = 0.5;
  p.straggler.seed = 2017;
  const struct {
    NodeId node;
    int stage;
    double factor;
  } golden[] = {
      {0, 0, 2.4843404255324195}, {0, 1, 1.2776713779528857},
      {1, 0, 1.3586403296308975}, {1, 1, 1.365690649062504},
      {2, 0, 1.7091230016346275}, {2, 1, 1.6057415058511517},
  };
  for (const auto& g : golden) {
    EXPECT_NEAR(p.straggler_factor(g.node, g.stage), g.factor,
                g.factor * 1e-12)
        << "node " << g.node << " stage " << g.stage;
  }
  // Parameters and seed feed the draw.
  p.straggler.seed = 7;
  p.straggler.shift = 2.0;
  p.straggler.mean = 1.5;
  EXPECT_NEAR(p.straggler_factor(1, 3), 3.3508073399655709,
              3.3508073399655709 * 1e-12);
}

TEST(StragglerSamplers, SlowNodeAndFailStopAreExact) {
  ClusterProfile p = ClusterProfile::Homogeneous(3);
  p.straggler.kind = StragglerKind::kSlowNode;
  p.straggler.node = 1;
  p.straggler.slowdown = 7.5;
  EXPECT_DOUBLE_EQ(p.straggler_factor(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p.straggler_factor(1, 0), 7.5);
  EXPECT_DOUBLE_EQ(p.straggler_factor(1, 5), 7.5);  // stage-independent
  // Fail-stop is a time window applied by the engine, never a rate.
  p.straggler.kind = StragglerKind::kFailStop;
  p.straggler.fail_at = 1.0;
  p.straggler.recovery = 100.0;
  EXPECT_DOUBLE_EQ(p.straggler_factor(1, 0), 1.0);
}

// ---- NetMakespan properties over randomized topologies ----
//
// Two invariants over ~200 random (log, topology) pairs and every
// discipline/order:
//   * byte conservation — every payload byte in the log is delivered,
//     and no flow outlives the reported makespan;
//   * monotonicity in link rates — doubling every rate exactly halves
//     the makespan (time is inverse-linear when the whole fabric
//     scales), and widening one resource never hurts.

simnet::TransmissionLog RandomLog(Xoshiro256& rng, int n) {
  TransmissionLog log;
  const int m = 1 + static_cast<int>(rng.below(24));
  for (int i = 0; i < m; ++i) {
    Transmission t;
    t.src = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    const int fanout =
        1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n - 1)));
    for (int d = 0; d < n && static_cast<int>(t.dsts.size()) < fanout; ++d) {
      if (d != t.src && rng.below(2) == 0) {
        t.dsts.push_back(d);
      }
    }
    if (t.dsts.empty()) {
      t.dsts.push_back(t.src == 0 ? 1 : 0);
    }
    t.bytes = 1 + rng.below(1000);
    log.push_back(std::move(t));
  }
  return log;
}

Topology RandomTopology(Xoshiro256& rng, int n) {
  Topology t;
  t.num_nodes = n;
  t.nodes_per_rack = 1 + static_cast<int>(rng.below(
                             static_cast<std::uint64_t>(n)));
  t.access_bytes_per_sec = 0.5 + 4.0 * rng.uniform();
  t.core_bytes_per_sec = rng.below(2) == 0
                             ? std::numeric_limits<double>::infinity()
                             : 0.3 + 4.0 * rng.uniform();
  t.multicast_log_coeff = rng.below(2) == 0 ? 0.0 : rng.uniform();
  return t;
}

TEST(NetMakespanProperty, ConservesBytesAndIsMonotoneInLinkRates) {
  Xoshiro256 rng(20260729);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 2 + static_cast<int>(rng.below(7));
    const TransmissionLog log = RandomLog(rng, n);
    const Topology topo = RandomTopology(rng, n);
    double total_bytes = 0;
    for (const auto& t : log) {
      total_bytes += static_cast<double>(t.bytes);
    }

    for (const Discipline d : kAllDisciplines) {
      for (const ReplayOrder o : kAllOrders) {
        NetReplayStats stats;
        const double makespan = NetMakespan(log, topo, d, o, {}, &stats);
        ASSERT_GT(makespan, 0.0);

        // Byte conservation: everything in the log was delivered and
        // every flow finished within the makespan.
        EXPECT_DOUBLE_EQ(stats.delivered_payload_bytes, total_bytes);
        ASSERT_EQ(stats.flow_end.size(), log.size());
        for (const double e : stats.flow_end) {
          EXPECT_GT(e, 0.0);
          EXPECT_LE(e, makespan * (1 + 1e-12));
        }

        // Scaling the whole fabric by 2 exactly halves the makespan
        // (admission decisions are scale-free; rates divide by powers
        // of two exactly).
        Topology twice = topo;
        twice.access_bytes_per_sec *= 2.0;
        twice.core_bytes_per_sec *= 2.0;
        EXPECT_NEAR(NetMakespan(log, twice, d, o), makespan / 2.0,
                    makespan * 1e-12);

        // Widening a single resource never hurts.
        Topology wider_core = topo;
        wider_core.core_bytes_per_sec *= 4.0;
        EXPECT_LE(NetMakespan(log, wider_core, d, o),
                  makespan * (1 + 1e-9));
        Topology wider_access = topo;
        wider_access.access_bytes_per_sec *= 2.0;
        EXPECT_LE(NetMakespan(log, wider_access, d, o),
                  makespan * (1 + 1e-9));
      }
    }
  }
}

// ---- Per-rack uplink/downlink pipes (the generalized multi-pipe
// ---- water-filling path) ----

Topology RandomRackPipeTopology(Xoshiro256& rng, int n) {
  Topology t = RandomTopology(rng, n);
  // Asymmetric pipes: up and down drawn independently, each
  // occasionally left infinite (mixed finite/infinite bookkeeping),
  // but at least one finite so the water-filling path is exercised.
  if (rng.below(4) != 0) {
    t.rack_uplink_bytes_per_sec = 0.4 + 4.0 * rng.uniform();
  }
  if (rng.below(4) != 0) {
    t.rack_downlink_bytes_per_sec = 0.4 + 4.0 * rng.uniform();
  }
  if (!t.rack_pipes_finite()) {
    t.rack_downlink_bytes_per_sec = 0.4 + 4.0 * rng.uniform();
  }
  if (rng.below(2) == 0) t.rack_aware_multicast = true;
  return t;
}

TEST(RackPipeProperty, ConservesBytesAndIsMonotoneInPipeRates) {
  Xoshiro256 rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 2 + static_cast<int>(rng.below(7));
    const TransmissionLog log = RandomLog(rng, n);
    const Topology topo = RandomRackPipeTopology(rng, n);
    double total_bytes = 0;
    for (const auto& t : log) {
      total_bytes += static_cast<double>(t.bytes);
    }

    for (const Discipline d : kAllDisciplines) {
      for (const ReplayOrder o : kAllOrders) {
        NetReplayStats stats;
        const double makespan = NetMakespan(log, topo, d, o, {}, &stats);
        ASSERT_GT(makespan, 0.0);

        // Byte conservation survives the pipe constraints.
        EXPECT_DOUBLE_EQ(stats.delivered_payload_bytes, total_bytes);
        ASSERT_EQ(stats.flow_end.size(), log.size());
        for (const double e : stats.flow_end) {
          EXPECT_GT(e, 0.0);
          EXPECT_LE(e, makespan * (1 + 1e-12));
        }

        // Scaling the whole fabric (access, core and both rack pipes)
        // by 2 exactly halves the makespan.
        Topology twice = topo;
        twice.access_bytes_per_sec *= 2.0;
        twice.core_bytes_per_sec *= 2.0;
        twice.rack_uplink_bytes_per_sec *= 2.0;
        twice.rack_downlink_bytes_per_sec *= 2.0;
        EXPECT_NEAR(NetMakespan(log, twice, d, o), makespan / 2.0,
                    makespan * 1e-12);

        // Widening one pipe never hurts — and removing both entirely
        // (back to the shared-core-only fabric) never hurts either.
        Topology wider_up = topo;
        wider_up.rack_uplink_bytes_per_sec *= 4.0;
        EXPECT_LE(NetMakespan(log, wider_up, d, o), makespan * (1 + 1e-9));
        Topology wider_down = topo;
        wider_down.rack_downlink_bytes_per_sec *= 4.0;
        EXPECT_LE(NetMakespan(log, wider_down, d, o),
                  makespan * (1 + 1e-9));
        Topology no_pipes = topo;
        no_pipes.rack_uplink_bytes_per_sec =
            std::numeric_limits<double>::infinity();
        no_pipes.rack_downlink_bytes_per_sec =
            std::numeric_limits<double>::infinity();
        EXPECT_LE(NetMakespan(log, no_pipes, d, o), makespan * (1 + 1e-9));
      }
    }
  }
}

TEST(RackPipeProperty, InfinitePipesAreBitForBitTheSharedCorePath) {
  // Explicitly-infinite rack pipes must not change a single bit of the
  // shared-core replay (rack_pipes_finite() gates the generalized
  // path off), and effectively-unconstrained *finite* pipes — which do
  // run the water-filling arithmetic — must land within 1e-9.
  Xoshiro256 rng(20260809);
  for (int trial = 0; trial < 100; ++trial) {
    const int n = 2 + static_cast<int>(rng.below(7));
    const TransmissionLog log = RandomLog(rng, n);
    const Topology topo = RandomTopology(rng, n);

    Topology infinite = topo;
    infinite.rack_uplink_bytes_per_sec =
        std::numeric_limits<double>::infinity();
    infinite.rack_downlink_bytes_per_sec =
        std::numeric_limits<double>::infinity();
    Topology huge = topo;
    huge.rack_uplink_bytes_per_sec = 1e12;
    huge.rack_downlink_bytes_per_sec = 1e12;

    for (const Discipline d : kAllDisciplines) {
      for (const ReplayOrder o : kAllOrders) {
        NetReplayStats base_stats;
        const double base = NetMakespan(log, topo, d, o, {}, &base_stats);

        NetReplayStats inf_stats;
        const double with_inf =
            NetMakespan(log, infinite, d, o, {}, &inf_stats);
        EXPECT_EQ(with_inf, base);
        ASSERT_EQ(inf_stats.flow_end.size(), base_stats.flow_end.size());
        for (std::size_t i = 0; i < base_stats.flow_end.size(); ++i) {
          EXPECT_EQ(inf_stats.flow_end[i], base_stats.flow_end[i]);
        }

        const double with_huge = NetMakespan(log, huge, d, o);
        EXPECT_NEAR(with_huge, base, base * 1e-9);
      }
    }
  }
}

// Unit-access two-rack fabric ({0,1} | {2,3}), infinite core, so only
// the configured rack pipe constrains. Durations equal byte counts
// divided by the binding rate.
Topology TwoRackPipes(double up, double down) {
  Topology t;
  t.num_nodes = 4;
  t.nodes_per_rack = 2;
  t.access_bytes_per_sec = 1.0;
  t.multicast_log_coeff = 0.0;
  t.rack_uplink_bytes_per_sec = up;
  t.rack_downlink_bytes_per_sec = down;
  return t;
}

constexpr double kInfRate = std::numeric_limits<double>::infinity();

TEST(RackPipes, UplinkIsSharedByFlowsLeavingTheRack) {
  const Topology topo = TwoRackPipes(/*up=*/0.5, /*down=*/kInfRate);
  // One 10 B crossing flow: capped by rack 0's 0.5 B/s uplink.
  EXPECT_DOUBLE_EQ(NetMakespan({{0, {2}, 10}}, topo,
                               Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   20.0);
  // Two concurrent flows out of rack 0 share its uplink: 0.25 each.
  EXPECT_DOUBLE_EQ(NetMakespan({{0, {2}, 10}, {1, {3}, 10}}, topo,
                               Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   40.0);
  // Opposite directions use different uplinks: no sharing.
  EXPECT_DOUBLE_EQ(NetMakespan({{0, {2}, 10}, {3, {1}, 10}}, topo,
                               Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   20.0);
}

TEST(RackPipes, DownlinkIsSharedByFlowsEnteringTheRack) {
  const Topology topo = TwoRackPipes(/*up=*/kInfRate, /*down=*/0.5);
  // Both flows enter rack 1: its downlink is the shared bottleneck.
  EXPECT_DOUBLE_EQ(NetMakespan({{0, {2}, 10}, {1, {3}, 10}}, topo,
                               Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   40.0);
  // Opposite directions enter different racks: no sharing.
  EXPECT_DOUBLE_EQ(NetMakespan({{0, {2}, 10}, {3, {1}, 10}}, topo,
                               Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   20.0);
}

TEST(RackPipes, RackAwareMulticastPutsOneCopyOnTheDownlink) {
  // A fanout-2 multicast into rack 1: the rack-oblivious sender pushes
  // two copies through the 0.5 B/s downlink (effective 0.25 B/s); with
  // rack-aware multicast the rack switch replicates, one copy, 0.5.
  const TransmissionLog log{{0, {2, 3}, 10}};
  Topology topo = TwoRackPipes(/*up=*/kInfRate, /*down=*/0.5);
  for (const Discipline d : kAllDisciplines) {
    EXPECT_DOUBLE_EQ(
        NetMakespan(log, topo, d, ReplayOrder::kLogOrder), 40.0);
  }
  topo.rack_aware_multicast = true;
  for (const Discipline d : kAllDisciplines) {
    EXPECT_DOUBLE_EQ(
        NetMakespan(log, topo, d, ReplayOrder::kLogOrder), 20.0);
  }
}

TEST(RackPipes, CrossRackBytesCountsCopiesEnteringOtherRacks) {
  Topology topo = TwoRackPipes(kInfRate, kInfRate);
  const TransmissionLog log{
      {0, {1}, 10},        // rack-local: free
      {0, {2}, 100},       // one copy across
      {0, {2, 3}, 1000},   // two copies across (per receiver)
      {2, {0, 3}, 10000},  // one across (dst 3 is rack-local)
  };
  EXPECT_DOUBLE_EQ(CrossRackBytes(log, topo), 100 + 2000 + 10000);
  // Rack-aware multicast ships one copy per destination rack.
  topo.rack_aware_multicast = true;
  EXPECT_DOUBLE_EQ(CrossRackBytes(log, topo), 100 + 1000 + 10000);
  // A single rack never crosses.
  EXPECT_DOUBLE_EQ(CrossRackBytes(log, Topology::SingleRack(4)), 0.0);
}

// ---- Network-stage outages (fail-stop during the shuffle) ----

TEST(NetMakespanOutage, InFlightTransferLosesProgressAndRestartsAfter) {
  // 10 B at rate 1 from node 0 to node 1; node 1 dies at t=5 with the
  // transfer halfway. The 5 delivered-so-far bytes are lost and the
  // whole payload retransmits once the node is back at t=20.
  const TransmissionLog log{{0, {1}, 10}};
  LinkOutage outage{/*node=*/1, /*start=*/5.0, /*end=*/20.0};
  for (const Discipline d :
       {Discipline::kParallelFullDuplex, Discipline::kParallelHalfDuplex}) {
    for (const ReplayOrder o : kAllOrders) {
      NetReplayStats stats;
      const double makespan =
          NetMakespan(log, UnitRack(3), d, o, outage, &stats);
      EXPECT_DOUBLE_EQ(makespan, 30.0) << static_cast<int>(d);
      ASSERT_EQ(stats.flow_end.size(), 1u);
      EXPECT_GE(stats.flow_end[0], outage.end);  // finishes after window
      EXPECT_DOUBLE_EQ(stats.delivered_payload_bytes, 10.0);
    }
  }
}

TEST(NetMakespanOutage, FollowersOvertakeTheRequeuedTransfer) {
  // A (0->1) is in flight when node 1 dies at t=5; re-queuing releases
  // node 0's uplink, so B (0->2) — otherwise FIFO-blocked behind A —
  // runs during the outage. A retransmits at t=50.
  const TransmissionLog log{{0, {1}, 10}, {0, {2}, 10}};
  LinkOutage outage{/*node=*/1, /*start=*/5.0, /*end=*/50.0};
  for (const ReplayOrder o : kAllOrders) {
    NetReplayStats stats;
    const double makespan = NetMakespan(
        log, UnitRack(3), Discipline::kParallelFullDuplex, o, outage, &stats);
    EXPECT_DOUBLE_EQ(makespan, 60.0);
    EXPECT_DOUBLE_EQ(stats.flow_end[0], 60.0);  // A: restarted at 50
    EXPECT_DOUBLE_EQ(stats.flow_end[1], 15.0);  // B: overtook during outage
    EXPECT_GE(stats.flow_end[0], outage.end);
    EXPECT_DOUBLE_EQ(stats.delivered_payload_bytes, 20.0);
  }
}

TEST(NetMakespanOutage, TransferToDeadNodeWaitsOutTheWindow) {
  // The outage covers the stage start: nothing touching node 1 can be
  // admitted until it lifts.
  const TransmissionLog log{{0, {1}, 10}};
  LinkOutage outage{/*node=*/1, /*start=*/0.0, /*end=*/12.0};
  for (const Discipline d :
       {Discipline::kParallelFullDuplex, Discipline::kParallelHalfDuplex}) {
    const double makespan = NetMakespan(log, UnitRack(2), d,
                                        ReplayOrder::kLogOrder, outage);
    EXPECT_DOUBLE_EQ(makespan, 22.0);
  }
}

TEST(NetMakespanOutage, MulticastWithOneDeadReceiverRetransmits) {
  // A fanout-2 multicast is in flight when one receiver dies: the
  // whole payload re-queues and both receivers get it after the
  // window (the replay treats a transmission as atomic).
  const TransmissionLog log{{0, {1, 2}, 10}};
  LinkOutage outage{/*node=*/2, /*start=*/4.0, /*end=*/25.0};
  NetReplayStats stats;
  const double makespan =
      NetMakespan(log, UnitRack(3), Discipline::kParallelFullDuplex,
                  ReplayOrder::kLogOrder, outage, &stats);
  EXPECT_DOUBLE_EQ(makespan, 35.0);
  EXPECT_GE(stats.flow_end[0], outage.end);
  EXPECT_DOUBLE_EQ(stats.delivered_payload_bytes, 10.0);
}

TEST(NetMakespanOutage, SerialMediumRestartsTheInterruptedTransfer) {
  // Serial discipline, unit rate: the first transfer (0->1) overlaps
  // the outage of node 0 and restarts at its end; the second holds
  // the medium behind it (the paper's one-at-a-time program order).
  const TransmissionLog log{{0, {1}, 10}, {2, {1}, 5}};
  LinkOutage outage{/*node=*/0, /*start=*/5.0, /*end=*/12.0};
  NetReplayStats stats;
  const double makespan =
      NetMakespan(log, UnitRack(3), Discipline::kSerial,
                  ReplayOrder::kLogOrder, outage, &stats);
  EXPECT_DOUBLE_EQ(stats.flow_end[0], 22.0);  // 12 + 10
  EXPECT_DOUBLE_EQ(stats.flow_end[1], 27.0);
  EXPECT_DOUBLE_EQ(makespan, 27.0);
}

TEST(NetMakespanOutage, WindowOutsideTheStageIsANoop) {
  const TransmissionLog log{{0, {1}, 10}, {1, {0}, 10}};
  for (const Discipline d : kAllDisciplines) {
    const double base =
        NetMakespan(log, UnitRack(2), d, ReplayOrder::kLogOrder);
    // Already over when the stage starts (active() is false)...
    EXPECT_DOUBLE_EQ(
        NetMakespan(log, UnitRack(2), d, ReplayOrder::kLogOrder,
                    LinkOutage{0, -10.0, 0.0}),
        base);
    // ...or strikes long after the last byte.
    EXPECT_DOUBLE_EQ(
        NetMakespan(log, UnitRack(2), d, ReplayOrder::kLogOrder,
                    LinkOutage{0, 1000.0, 2000.0}),
        base);
    // A node not in the log is irrelevant however the window falls.
    EXPECT_DOUBLE_EQ(
        NetMakespan(log, UnitRack(3), d, ReplayOrder::kLogOrder,
                    LinkOutage{2, 0.0, 1000.0}),
        base);
  }
}

TEST(ReplayScenario, FailStopDuringShuffleFreezesLinksAndRequeues) {
  // Synthetic run: 2 s of Map, then a 10 B shuffle transfer 0->1 at
  // unit rate. Node 1 dies at absolute t=4 (2 s into the shuffle, the
  // transfer in flight) and recovers at t=14: the transfer restarts
  // and the shuffle stage stretches from 10 s to 22 s.
  ScenarioRun run;
  run.algorithm = "synthetic";
  run.num_nodes = 2;
  run.stages.push_back({stage::kMap, StageKind::kCompute, {2.0, 2.0}});
  run.stages.push_back({stage::kShuffle, StageKind::kNetwork, {}});
  run.shuffle_log = {{0, {1}, 10}};

  Scenario s;
  s.cluster = ClusterProfile::Homogeneous(2);
  s.topology = UnitRack(2);
  s.discipline = Discipline::kParallelFullDuplex;

  const ScenarioOutcome base = ReplayScenario(run, s);
  EXPECT_DOUBLE_EQ(base.spans[1].end, 12.0);

  s.cluster.straggler.kind = StragglerKind::kFailStop;
  s.cluster.straggler.node = 1;
  s.cluster.straggler.fail_at = 4.0;
  s.cluster.straggler.recovery = 10.0;
  const ScenarioOutcome out = ReplayScenario(run, s);
  // Stage-local: outage [2, 12); transfer restarts at 12, done at 22.
  EXPECT_DOUBLE_EQ(out.spans[1].end, 24.0);
  EXPECT_DOUBLE_EQ(out.makespan, 24.0);
}

// ---- Oversubscribed core ----

TEST(NetMakespan, CrossRackFlowsShareTheCore) {
  // Two racks of two; both 10-byte flows cross and the 1 B/s core
  // halves their rates: makespan 20 instead of the uncontended 10.
  Topology topo = Topology::Oversubscribed(4, 2, 4.0);
  topo.access_bytes_per_sec = 1.0;
  topo.core_bytes_per_sec = 1.0;
  topo.multicast_log_coeff = 0.0;
  const TransmissionLog log{{0, {2}, 10}, {1, {3}, 10}};
  EXPECT_DOUBLE_EQ(NetMakespan(log, topo, Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   20.0);
  // An in-rack flow is unaffected by the congested core.
  const TransmissionLog local{{0, {1}, 10}};
  EXPECT_DOUBLE_EQ(NetMakespan(local, topo, Discipline::kParallelFullDuplex,
                               ReplayOrder::kLogOrder),
                   10.0);
}

TEST(NetMakespan, OversubscriptionIsMonotone) {
  SortConfig config;
  config.num_nodes = 6;
  config.num_records = 6000;
  const AlgorithmResult result = RunTeraSort(config);
  double prev = NetMakespan(result.shuffle_log,
                            Topology::SingleRack(config.num_nodes),
                            Discipline::kParallelFullDuplex,
                            ReplayOrder::kLogOrder);
  for (const double factor : {1.0, 4.0, 16.0}) {
    const Topology topo =
        Topology::Oversubscribed(config.num_nodes, 2, factor);
    const double t = NetMakespan(result.shuffle_log, topo,
                                 Discipline::kParallelFullDuplex,
                                 ReplayOrder::kLogOrder);
    EXPECT_GE(t + 1e-12, prev);
    prev = t;
  }
}

TEST(NetMakespan, SerialRateLimitedByCongestedCore) {
  Topology topo = Topology::Oversubscribed(4, 2, 1.0);
  topo.access_bytes_per_sec = 2.0;
  topo.core_bytes_per_sec = 1.0;
  topo.multicast_log_coeff = 0.0;
  // In-rack at 2 B/s (5 s), cross-rack at 1 B/s (10 s): serial sum.
  const TransmissionLog log{{0, {1}, 10}, {0, {2}, 10}};
  EXPECT_DOUBLE_EQ(
      NetMakespan(log, topo, Discipline::kSerial, ReplayOrder::kLogOrder),
      15.0);
}

// ---- Full-run scenario replay ----

AlgorithmResult SmallTeraSort() {
  SortConfig config;
  config.num_nodes = 6;
  config.num_records = 6000;
  config.distribution = KeyDistribution::kBalanced;
  return RunTeraSort(config);
}

AlgorithmResult SmallCoded() {
  SortConfig config;
  config.num_nodes = 6;
  config.redundancy = 2;
  config.num_records = 6000;
  config.distribution = KeyDistribution::kBalanced;
  return RunCodedTeraSort(config);
}

Scenario DegenerateScenario(int num_nodes, Discipline d, ReplayOrder o) {
  Scenario s;
  s.cluster = ClusterProfile::Homogeneous(num_nodes);
  s.topology = Topology::SingleRack(num_nodes);
  s.discipline = d;
  s.order = o;
  return s;
}

TEST(ReplayScenario, DegenerateMatchesAnalyticsBreakdown) {
  const CostModel model;
  const RunScale scale = PaperScale(6000, 600000);
  for (const AlgorithmResult& result : {SmallTeraSort(), SmallCoded()}) {
    const StageBreakdown closed =
        SimulateRun(result, model, scale, Discipline::kSerial);
    const ScenarioOutcome out = ReplayScenario(
        BuildScenarioRun(result, model, scale),
        DegenerateScenario(result.config.num_nodes, Discipline::kSerial,
                           ReplayOrder::kLogOrder));
    // Compute stages must agree with the closed-form max-over-nodes.
    for (const char* name : {stage::kMap, stage::kPack, stage::kEncode,
                             stage::kUnpack, stage::kDecode, stage::kReduce,
                             stage::kCodeGen}) {
      const double expect = closed.stage(name);
      const double got = out.breakdown().stage(name);
      EXPECT_NEAR(got, expect, expect * 1e-9 + 1e-12) << name;
    }
    // The serial shuffle must agree with the closed form.
    const double shuffle_expect = closed.shuffle();
    EXPECT_NEAR(out.breakdown().stage(stage::kShuffle), shuffle_expect,
                shuffle_expect * 1e-9);
    // Makespan is the sum of barrier-synchronized spans.
    double sum = 0;
    for (const auto& span : out.spans) sum += span.seconds();
    EXPECT_NEAR(out.makespan, sum, sum * 1e-9);
  }
}

TEST(ReplayScenario, DegenerateShuffleIsScaledNetMakespan) {
  // The degenerate scenario's Shuffle is the log's NetMakespan mapped
  // to paper bytes, under every discipline and order.
  const CostModel model;
  const RunScale scale = PaperScale(6000, 600000);
  const AlgorithmResult result = SmallCoded();
  const double correction =
      ComputeShuffleScaling(result, model, scale).correction;
  const Topology rack = Topology::SingleRack(result.config.num_nodes);
  const ScenarioRun run = BuildScenarioRun(result, model, scale);
  for (const Discipline d : kAllDisciplines) {
    for (const ReplayOrder o : kAllOrders) {
      const ScenarioOutcome out = ReplayScenario(
          run, DegenerateScenario(result.config.num_nodes, d, o));
      const double expect =
          NetMakespan(result.shuffle_log, rack, d, o) * correction;
      EXPECT_NEAR(out.breakdown().stage(stage::kShuffle), expect,
                  expect * 1e-12)
          << "discipline=" << static_cast<int>(d)
          << " order=" << static_cast<int>(o);
    }
  }
}

TEST(ReplayScenario, SlowNodeStretchesMapAndTotal) {
  const CostModel model;
  const RunScale scale = PaperScale(6000, 600000);
  const AlgorithmResult result = SmallCoded();
  const Scenario base = DegenerateScenario(6, Discipline::kSerial,
                                           ReplayOrder::kLogOrder);
  Scenario straggled = base;
  straggled.cluster.straggler.kind = StragglerKind::kSlowNode;
  straggled.cluster.straggler.node = 0;
  straggled.cluster.straggler.slowdown = 4.0;

  const ScenarioRun run = BuildScenarioRun(result, model, scale);
  const ScenarioOutcome b = ReplayScenario(run, base);
  const ScenarioOutcome s = ReplayScenario(run, straggled);
  EXPECT_GT(s.makespan, b.makespan);
  // The balanced workload spreads Map evenly, so the slow node
  // dominates and the Map span stretches by ~the full slowdown.
  EXPECT_NEAR(s.breakdown().stage(stage::kMap),
              4.0 * b.breakdown().stage(stage::kMap),
              b.breakdown().stage(stage::kMap) * 0.1);
  // The network stage is unaffected.
  EXPECT_DOUBLE_EQ(s.breakdown().stage(stage::kShuffle),
                   b.breakdown().stage(stage::kShuffle));
}

TEST(ReplayScenario, FailStopOutageDelaysExactlyRecovery) {
  // Synthetic two-stage run: node 1 computes 10 s per stage; an outage
  // window inside stage A pushes its completion (and everything after
  // the barrier) out by the recovery time.
  ScenarioRun run;
  run.algorithm = "synthetic";
  run.num_nodes = 2;
  run.stages.push_back({"A", StageKind::kCompute, {4.0, 10.0}});
  run.stages.push_back({"B", StageKind::kCompute, {10.0, 2.0}});

  Scenario s;
  s.cluster = ClusterProfile::Homogeneous(2);
  s.topology = Topology::SingleRack(2);
  s.cluster.straggler.kind = StragglerKind::kFailStop;
  s.cluster.straggler.node = 1;
  s.cluster.straggler.fail_at = 5.0;
  s.cluster.straggler.recovery = 7.0;

  const ScenarioOutcome out = ReplayScenario(run, s);
  // Stage A: node 1 works [0,5], offline [5,12], finishes at 17.
  EXPECT_DOUBLE_EQ(out.spans[0].end, 17.0);
  // Stage B starts after the barrier and after the outage: plain 10 s.
  EXPECT_DOUBLE_EQ(out.spans[1].end, 27.0);
  EXPECT_DOUBLE_EQ(out.makespan, 27.0);

  // A node that begins a stage mid-outage waits for recovery first.
  s.cluster.straggler.fail_at = 0.0;
  s.cluster.straggler.recovery = 3.0;
  const ScenarioOutcome out2 = ReplayScenario(run, s);
  EXPECT_DOUBLE_EQ(out2.spans[0].end, 13.0);  // starts at 3, +10
}

TEST(ReplayScenario, CmrEventsReplayThroughTheSameEngine) {
  SortConfig config;
  config.num_nodes = 4;
  config.redundancy = 2;
  config.seed = 7;
  const auto app = cmr::MakeGrepApp("map", 40);
  const AlgorithmResult result =
      cmr::RunCmr(*app, config, cmr::ShuffleMode::kCoded).run;
  ASSERT_FALSE(result.stage_order.empty());
  ASSERT_FALSE(result.compute_events.empty());

  const ScenarioRun run = BuildScenarioRunFromEvents(
      "CMR-Grep", config.num_nodes, result.stage_order,
      result.compute_events, result.shuffle_log);
  ASSERT_EQ(run.stages.size(), result.stage_order.size());

  Scenario base = DegenerateScenario(4, Discipline::kParallelFullDuplex,
                                     ReplayOrder::kLogOrder);
  const ScenarioOutcome b = ReplayScenario(run, base);
  EXPECT_GT(b.makespan, 0.0);

  Scenario slow = base;
  slow.cluster.straggler.kind = StragglerKind::kSlowNode;
  slow.cluster.straggler.node = 1;
  slow.cluster.straggler.slowdown = 10.0;
  EXPECT_GT(ReplayScenario(run, slow).makespan, b.makespan);
}

TEST(ReplayScenario, OverlappedCmrStragglerStillStretchesPipelinedStage) {
  // The overlapped uncoded CMR engine merges Map into the Shuffle
  // stage (pipelined). The stage is network-priced, but its measured
  // per-node compute must still respond to a straggler: the stage
  // ends when both the transfers and the slowest node are done.
  SortConfig config;
  config.num_nodes = 4;
  config.redundancy = 2;
  config.seed = 7;
  config.shuffle_sync = ShuffleSync::kOverlapped;
  const auto app = cmr::MakeGrepApp("map", 40);
  const AlgorithmResult result =
      cmr::RunCmr(*app, config, cmr::ShuffleMode::kUncoded).run;

  const ScenarioRun run = BuildScenarioRunFromEvents(
      "CMR-Grep-overlapped", config.num_nodes, result.stage_order,
      result.compute_events, result.shuffle_log);
  const auto shuffle_stage =
      std::find_if(run.stages.begin(), run.stages.end(),
                   [](const ScenarioRun::Stage& s) {
                     return s.name == stage::kShuffle;
                   });
  ASSERT_NE(shuffle_stage, run.stages.end());
  ASSERT_EQ(shuffle_stage->kind, StageKind::kNetwork);
  ASSERT_FALSE(shuffle_stage->node_seconds.empty());  // pipelined compute

  Scenario base = DegenerateScenario(4, Discipline::kParallelFullDuplex,
                                     ReplayOrder::kLogOrder);
  const double baseline = ReplayScenario(run, base).makespan;
  Scenario slow = base;
  slow.cluster.straggler.kind = StragglerKind::kSlowNode;
  slow.cluster.straggler.node = 0;
  // Enormous slowdown: the compute leg must dominate the stage even
  // though the stage is network-priced.
  slow.cluster.straggler.slowdown = 1e6;
  EXPECT_GT(ReplayScenario(run, slow).makespan, baseline * 10);
}

TEST(ReplayScenario, OversubscribedCoreFlipsTheWinner) {
  // The headline scenario: on a non-blocking full-duplex fabric the
  // parallel shuffle drains fast and TeraSort's r=1 Map wins; on a
  // heavily oversubscribed core, CodedTeraSort's smaller cross-rack
  // footprint wins.
  const CostModel model;
  const RunScale scale = PaperScale(6000, 2400000);
  const ScenarioRun ts = BuildScenarioRun(SmallTeraSort(), model, scale);
  const ScenarioRun cts = BuildScenarioRun(SmallCoded(), model, scale);

  Scenario fast = DegenerateScenario(6, Discipline::kParallelFullDuplex,
                                     ReplayOrder::kPerSender);
  const double ts_fast = ReplayScenario(ts, fast).makespan;
  const double cts_fast = ReplayScenario(cts, fast).makespan;

  Scenario congested = fast;
  congested.topology = Topology::Oversubscribed(6, 2, 64.0);
  const double ts_slow = ReplayScenario(ts, congested).makespan;
  const double cts_slow = ReplayScenario(cts, congested).makespan;

  // Congestion must hurt TeraSort (bigger cross-rack footprint) more.
  EXPECT_GT(ts_slow / ts_fast, cts_slow / cts_fast);
}

// ---- Network memo ----

// Every field of an outcome as bits, so -0.0 and 0.0 (or two NaNs)
// cannot pass for one another.
std::vector<std::uint64_t> OutcomeBits(const ScenarioOutcome& o) {
  std::vector<std::uint64_t> bits;
  const auto add = [&bits](double v) {
    bits.push_back(std::bit_cast<std::uint64_t>(v));
  };
  bits.push_back(o.spans.size());
  for (const StageSpan& s : o.spans) {
    add(s.start);
    add(s.end);
    bits.push_back(s.node_end.size());
    for (const double t : s.node_end) add(t);
    add(s.unmitigated_end);
    add(s.wasted_seconds);
    bits.push_back(static_cast<std::uint64_t>(s.speculative_copies));
    bits.push_back(static_cast<std::uint64_t>(s.abandoned_nodes));
    add(s.trigger_at);
  }
  add(o.makespan);
  add(o.wasted_seconds);
  bits.push_back(o.shuffle_flows.size());
  for (const ScenarioOutcome::FlowSpan& f : o.shuffle_flows) {
    add(f.start);
    add(f.end);
  }
  return bits;
}

TEST(NetworkMemo, ReplaysAreBitIdenticalWithAndWithoutTheMemo) {
  const CostModel model;
  const RunScale scale = PaperScale(6000, 600000);
  const std::vector<ScenarioRun> runs = {
      BuildScenarioRun(SmallCoded(), model, scale),
      BuildScenarioRun(SmallTeraSort(), model, scale)};
  Topology aware = Topology::RackOversubscribed(6, 3, 1.0, 2.0, 2.0);
  aware.rack_aware_multicast = true;
  const std::vector<Topology> topologies = {
      Topology::SingleRack(6), Topology::Oversubscribed(6, 2, 4.0), aware};
  const std::vector<mitigate::MitigationPolicy> policies = {
      mitigate::MitigationPolicy::None(),
      mitigate::MitigationPolicy::Speculative(),
      mitigate::MitigationPolicy::CodedMap()};
  obs::Counter& hits =
      obs::MetricRegistry::Global().counter("simscen/network_memo_hits");

  for (const ScenarioRun& run : runs) {
    NetworkMemo memo;
    const std::uint64_t hits_before = hits.value();
    std::uint64_t outage_free = 0;
    for (const Topology& topology : topologies) {
      for (const Discipline d : kAllDisciplines) {
        for (const ReplayOrder o : kAllOrders) {
          Scenario base = DegenerateScenario(6, d, o);
          base.topology = topology;
          // The fail-stop windows sit around this network's Shuffle.
          const ScenarioOutcome plain = ReplayScenario(run, base);
          const auto shuffle = std::find_if(
              plain.spans.begin(), plain.spans.end(),
              [](const StageSpan& s) { return s.name == stage::kShuffle; });
          ASSERT_NE(shuffle, plain.spans.end());
          const double s0 = shuffle->start;
          const double len = shuffle->seconds();
          ASSERT_GT(s0, 0);
          ASSERT_GT(len, 0);

          const auto fail_stop = [](double at, double recovery) {
            StragglerModel m;
            m.kind = StragglerKind::kFailStop;
            m.node = 1;
            m.fail_at = at;
            m.recovery = recovery;
            return m;
          };
          StragglerModel slow;
          slow.kind = StragglerKind::kSlowNode;
          slow.node = 1;
          slow.slowdown = 3.0;
          StragglerModel shifted_exp;
          shifted_exp.kind = StragglerKind::kShiftedExp;
          shifted_exp.seed = 7;
          // {model, outage-free}: a fail-stop over the Map has ended
          // when the Shuffle starts; one inside the Shuffle or after it
          // leaves the stage an active outage.
          const std::pair<StragglerModel, bool> stragglers[] = {
              {StragglerModel{}, true},
              {slow, true},
              {shifted_exp, true},
              {fail_stop(0.25 * s0, 0.25 * s0), true},
              {fail_stop(s0 + 0.25 * len, 0.25 * len), false},
              {fail_stop(s0 + 2 * len, len), false}};

          for (const auto& [straggler, no_outage] : stragglers) {
            for (const mitigate::MitigationPolicy& policy : policies) {
              Scenario s = base;
              s.cluster.straggler = straggler;
              s.mitigation = policy;
              const ScenarioOutcome fresh = ReplayScenario(run, s);
              const ScenarioOutcome memoized =
                  ReplayScenario(run, s, nullptr, &memo);
              EXPECT_EQ(OutcomeBits(memoized), OutcomeBits(fresh))
                  << run.algorithm << " d=" << static_cast<int>(d)
                  << " o=" << static_cast<int>(o)
                  << " straggler=" << static_cast<int>(straggler.kind)
                  << " fail_at=" << straggler.fail_at
                  << " policy=" << mitigate::PolicyName(policy.kind);
              outage_free += no_outage ? 1 : 0;
            }
          }
        }
      }
    }
    // One entry per outage-free network input; every other
    // outage-free replay was served from it.
    const std::size_t inputs = topologies.size() * 3 * 2;
    EXPECT_EQ(memo.entries.size(), inputs);
    EXPECT_EQ(outage_free, inputs * 4 * policies.size());
    EXPECT_EQ(hits.value() - hits_before, outage_free - inputs);
  }
}

TEST(NetworkMemo, ATimelineRunsTheDesAndLeavesTheMemoAlone) {
  const ScenarioRun run =
      BuildScenarioRun(SmallCoded(), CostModel{}, PaperScale(6000, 600000));
  Scenario s = DegenerateScenario(6, Discipline::kParallelFullDuplex,
                                  ReplayOrder::kPerSender);
  NetworkMemo memo;
  (void)ReplayScenario(run, s, nullptr, &memo);
  ASSERT_EQ(memo.entries.size(), 1u);

  auto& registry = obs::MetricRegistry::Global();
  obs::Counter& hits = registry.counter("simscen/network_memo_hits");
  obs::Counter& started = registry.counter("simscen/flows_started");
  obs::Timeline alone;
  const ScenarioOutcome a = ReplayScenario(run, s, &alone);
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t started_before = started.value();
  obs::Timeline with_memo;
  const ScenarioOutcome b = ReplayScenario(run, s, &with_memo, &memo);
  EXPECT_FALSE(alone.empty());
  EXPECT_TRUE(with_memo == alone);
  EXPECT_EQ(OutcomeBits(b), OutcomeBits(a));
  EXPECT_EQ(hits.value(), hits_before);
  // The probed replay ran the DES (it admits every flow) and stored
  // nothing.
  EXPECT_EQ(started.value() - started_before, run.shuffle_log.size());
  EXPECT_EQ(memo.entries.size(), 1u);

  // Without the timeline the same cell is a hit, and the DES is idle.
  const ScenarioOutcome c = ReplayScenario(run, s, nullptr, &memo);
  EXPECT_EQ(OutcomeBits(c), OutcomeBits(a));
  EXPECT_EQ(hits.value(), hits_before + 1);
  EXPECT_EQ(started.value() - started_before, run.shuffle_log.size());
}

// One memo shared by four threads that replay the same cells at the
// same moment: each (topology, discipline, order) still runs the DES
// once, so the DES counters and the memo hits read what one thread
// replaying the same cells reads, and every outcome is the bare
// replay's.
TEST(NetworkMemo, ConcurrentReplaysFillEachInputOnce) {
  const ScenarioRun run =
      BuildScenarioRun(SmallCoded(), CostModel{}, PaperScale(6000, 600000));
  // Two networks × two disciplines, each under a slow node, a
  // shifted-exponential straggler and a fail-stop inside the Shuffle
  // (whose cells bypass the memo), with and without speculation.
  std::vector<Scenario> cells;
  for (const Topology& topology :
       {Topology::SingleRack(6), Topology::Oversubscribed(6, 2, 4.0)}) {
    for (const Discipline d :
         {Discipline::kSerial, Discipline::kParallelFullDuplex}) {
      Scenario base = DegenerateScenario(6, d, ReplayOrder::kPerSender);
      base.topology = topology;
      const ScenarioOutcome plain = ReplayScenario(run, base);
      const auto shuffle = std::find_if(
          plain.spans.begin(), plain.spans.end(),
          [](const StageSpan& s) { return s.name == stage::kShuffle; });
      ASSERT_NE(shuffle, plain.spans.end());
      StragglerModel slow;
      slow.kind = StragglerKind::kSlowNode;
      slow.node = 1;
      slow.slowdown = 3.0;
      StragglerModel shifted_exp;
      shifted_exp.kind = StragglerKind::kShiftedExp;
      shifted_exp.seed = 7;
      StragglerModel fail_stop;
      fail_stop.kind = StragglerKind::kFailStop;
      fail_stop.node = 1;
      fail_stop.fail_at = shuffle->start + 0.25 * shuffle->seconds();
      fail_stop.recovery = 0.25 * shuffle->seconds();
      for (const StragglerModel& straggler : {slow, shifted_exp, fail_stop}) {
        for (const mitigate::MitigationPolicy& policy :
             {mitigate::MitigationPolicy::None(),
              mitigate::MitigationPolicy::Speculative()}) {
          Scenario s = base;
          s.cluster.straggler = straggler;
          s.mitigation = policy;
          cells.push_back(s);
        }
      }
    }
  }
  std::vector<std::vector<std::uint64_t>> bare;
  for (const Scenario& s : cells) {
    bare.push_back(OutcomeBits(ReplayScenario(run, s)));
  }

  auto& registry = obs::MetricRegistry::Global();
  const auto counters = [&registry] {
    std::map<std::string, std::uint64_t> values;
    for (const char* name :
         {"simscen/flows_started", "simscen/flows_requeued",
          "simscen/maxmin_recomputations", "simscen/network_memo_hits"}) {
      values[name] = registry.counter(name).value();
    }
    return values;
  };
  const auto delta = [](std::map<std::string, std::uint64_t> after,
                        const std::map<std::string, std::uint64_t>& before) {
    for (auto& [name, value] : after) value -= before.at(name);
    return after;
  };
  constexpr int kThreads = 4;

  // The reference: one thread replays every thread's cells.
  NetworkMemo serial_memo;
  const auto serial_before = counters();
  for (int t = 0; t < kThreads; ++t) {
    for (const Scenario& s : cells) {
      (void)ReplayScenario(run, s, nullptr, &serial_memo);
    }
  }
  const auto serial = delta(counters(), serial_before);
  ASSERT_GT(serial.at("simscen/network_memo_hits"), 0u);
  ASSERT_GT(serial.at("simscen/flows_requeued"), 0u);

  NetworkMemo memo;
  std::vector<std::vector<std::vector<std::uint64_t>>> outcomes(kThreads);
  const auto before = counters();
  {
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (const Scenario& s : cells) {
          outcomes[static_cast<std::size_t>(t)].push_back(
              OutcomeBits(ReplayScenario(run, s, nullptr, &memo)));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(delta(counters(), before), serial);
  EXPECT_EQ(memo.entries.size(), 4u);
  EXPECT_EQ(memo.entries.size(), serial_memo.entries.size());
  for (const auto& got : outcomes) EXPECT_EQ(got, bare);
}

// ---- Ordering-hook seam ----

// Forces one fixed permutation of the first multi-candidate decision
// batch; every later decision stays canonical.
class FirstDecisionPermutationHook : public OrderingHook {
 public:
  explicit FirstDecisionPermutationHook(std::vector<std::size_t> perm)
      : perm_(std::move(perm)) {}

  std::vector<std::size_t> Choose(const OrderingDecision& d) override {
    ++decisions_;
    if (decisions_ > 1) return d.candidates;
    widths_.push_back(d.candidates.size());
    std::vector<std::size_t> out;
    for (const std::size_t p : perm_) out.push_back(d.candidates.at(p));
    return out;
  }

  int decisions() const { return decisions_; }
  const std::vector<std::size_t>& widths() const { return widths_; }

 private:
  const std::vector<std::size_t> perm_;
  int decisions_ = 0;
  std::vector<std::size_t> widths_;
};

TEST(NetMakespan, TieOrderPermutationInvariance) {
  // Three disjoint equal-size unicasts on a unit-rate rack: all three
  // complete at the same instant, so the DES faces one genuine
  // three-way completion tie. Whatever order the batch is processed
  // in, the replay must be bit-for-bit identical — makespan, per-flow
  // completion times, and delivered bytes.
  const Topology topo = UnitRack(6);
  TransmissionLog log;
  log.push_back({0, {1}, 500});
  log.push_back({2, {3}, 500});
  log.push_back({4, {5}, 500});

  NetReplayStats canonical;
  const double base = NetMakespan(log, topo, Discipline::kParallelFullDuplex,
                                  ReplayOrder::kLogOrder, {}, &canonical);
  EXPECT_DOUBLE_EQ(base, 500.0);

  std::vector<std::size_t> perm = {0, 1, 2};
  int permutations = 0;
  do {
    FirstDecisionPermutationHook hook(perm);
    NetReplayStats stats;
    const double m =
        NetMakespan(log, topo, Discipline::kParallelFullDuplex,
                    ReplayOrder::kLogOrder, {}, &stats, &hook);
    ASSERT_GE(hook.decisions(), 1) << "no simultaneous-event batch seen";
    ASSERT_EQ(hook.widths().front(), 3u) << "expected a three-way tie";
    // Bitwise, not approximate: tie order must not leak into results.
    EXPECT_EQ(m, base);
    EXPECT_EQ(stats.flow_end, canonical.flow_end);
    EXPECT_EQ(stats.flow_start, canonical.flow_start);
    EXPECT_EQ(stats.delivered_payload_bytes,
              canonical.delivered_payload_bytes);
    ++permutations;
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_EQ(permutations, 6);
}

TEST(NetMakespan, HookReceivesOutageRequeueDecisions) {
  // Full duplex: node 1 both receives (0 -> 1) and transmits (1 -> 2)
  // when the outage freezes it, so the requeue batch holds two flows.
  const Topology topo = UnitRack(4);
  TransmissionLog log;
  log.push_back({0, {1}, 1000});
  log.push_back({1, {2}, 1000});

  LinkOutage outage;
  outage.node = 1;
  outage.start = 200;
  outage.end = 300;

  class CountingHook : public OrderingHook {
   public:
    std::vector<std::size_t> Choose(const OrderingDecision& d) override {
      if (d.kind == OrderingDecision::Kind::kOutageRequeue) {
        requeue_widths.push_back(d.candidates.size());
      }
      return d.candidates;
    }
    std::vector<std::size_t> requeue_widths;
  } hook;

  NetReplayStats stats;
  NetMakespan(log, topo, Discipline::kParallelFullDuplex,
              ReplayOrder::kLogOrder, outage, &stats, &hook);
  ASSERT_EQ(hook.requeue_widths.size(), 1u);
  EXPECT_EQ(hook.requeue_widths.front(), 2u);
  EXPECT_EQ(stats.delivered_payload_bytes, 2000.0);
}

}  // namespace
}  // namespace cts::simscen
