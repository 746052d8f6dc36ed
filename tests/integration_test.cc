// Cross-module integration tests: the paper's worked examples end to
// end, extension paths (batched CodeGen, parallel shuffle pricing,
// per-node traffic), and whole-pipeline invariants that no single
// module test covers.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "analytics/loads.h"
#include "analytics/report.h"
#include "codedterasort/coded_terasort.h"
#include "keyvalue/recordio.h"
#include "keyvalue/teragen.h"
#include "simmpi/comm.h"
#include "terasort/terasort.h"

namespace cts {
namespace {

std::vector<Record> Concatenate(const AlgorithmResult& result) {
  std::vector<Record> all;
  for (const auto& p : result.partitions) {
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

// ---- Extension: batched CodeGen ----

TEST(BatchedCodeGen, OutputMatchesCommSplitMode) {
  SortConfig config;
  config.num_nodes = 6;
  config.redundancy = 3;
  config.num_records = 3000;
  config.codegen_mode = CodeGenMode::kCommSplit;
  const AlgorithmResult split = RunCodedTeraSort(config);
  config.codegen_mode = CodeGenMode::kBatched;
  const AlgorithmResult batched = RunCodedTeraSort(config);
  EXPECT_EQ(split.partitions, batched.partitions);
  // Identical shuffle traffic: the modes differ only in group setup.
  EXPECT_EQ(split.traffic.at(stage::kShuffle).mcast_bytes,
            batched.traffic.at(stage::kShuffle).mcast_bytes);
  // Both account one comm creation per multicast group.
  EXPECT_EQ(split.traffic.at(stage::kCodeGen).comm_creations,
            batched.traffic.at(stage::kCodeGen).comm_creations);
}

TEST(BatchedCodeGen, SweepMatchesStdSort) {
  for (const auto& [K, r] :
       std::vector<std::pair<int, int>>{{4, 2}, {5, 3}, {6, 2}, {5, 4}}) {
    SortConfig config;
    config.num_nodes = K;
    config.redundancy = r;
    config.num_records = 1500;
    config.codegen_mode = CodeGenMode::kBatched;
    const AlgorithmResult result = RunCodedTeraSort(config);
    auto expected = TeraGen(config.seed, config.distribution)
                        .generate(0, config.num_records);
    std::sort(expected.begin(), expected.end(), RecordLess);
    EXPECT_EQ(Concatenate(result), expected) << "K=" << K << " r=" << r;
  }
}

TEST(BatchedCodeGen, PricedCheaperThanCommSplit) {
  SortConfig config;
  config.num_nodes = 8;
  config.redundancy = 3;
  config.num_records = 4000;
  config.codegen_mode = CodeGenMode::kCommSplit;
  const auto split =
      SimulateRun(RunCodedTeraSort(config), CostModel{}, RunScale{1.0});
  config.codegen_mode = CodeGenMode::kBatched;
  const auto batched =
      SimulateRun(RunCodedTeraSort(config), CostModel{}, RunScale{1.0});
  EXPECT_LT(batched.stage(stage::kCodeGen),
            split.stage(stage::kCodeGen) / 10.0);
  // Everything else prices identically (same measured run shape).
  EXPECT_NEAR(batched.shuffle(), split.shuffle(), split.shuffle() * 0.01);
}

// ---- simmpi::Comm::create_groups ----

TEST(CreateGroups, MatchesSplitSemantics) {
  simmpi::World world(5);
  RunRecorder recorder(5);
  const std::vector<NodeMask> groups = AllSubsets(5, 3);
  RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder&) {
    auto mine = comm.create_groups(groups);
    EXPECT_EQ(mine.size(), Binomial(4, 2));
    for (auto& [mask, gc] : mine) {
      EXPECT_TRUE(Contains(mask, comm.my_global()));
      EXPECT_EQ(gc.size(), 3);
      // Ranks ascend with node id, and intra-group bcast works.
      EXPECT_EQ(gc.global(gc.rank()), comm.my_global());
      Buffer payload;
      if (gc.rank() == 0) payload.write_u32(mask);
      gc.bcast(0, payload);
      payload.rewind();
      EXPECT_EQ(payload.read_u32(), mask);
    }
  });
  EXPECT_EQ(world.pending_messages(), 0u);
}

TEST(CreateGroups, RejectsNonMemberMasks) {
  simmpi::World world(3);
  RunRecorder recorder(3);
  EXPECT_THROW(
      RunOnCluster(world, recorder,
                   [&](simmpi::Comm& comm, RunRecorder&) {
                     // Node 7 does not exist in a 3-node world; every
                     // node fails the same check after the id bcast.
                     (void)comm.create_groups({NodesToMask({0, 7})});
                   }),
      CheckError);
}

// ---- Per-node traffic and parallel-schedule pricing ----

TEST(NodeTraffic, TeraSortShuffleIsSymmetricUnderBalancedKeys) {
  SortConfig config;
  config.num_nodes = 4;
  config.num_records = 8000;
  config.distribution = KeyDistribution::kBalanced;
  const AlgorithmResult result = RunTeraSort(config);
  ASSERT_EQ(result.shuffle_node_traffic.size(), 4u);
  std::uint64_t tx_total = 0, rx_total = 0;
  for (const auto& nt : result.shuffle_node_traffic) {
    tx_total += nt.tx_bytes;
    rx_total += nt.rx_bytes;
    // Balanced keys: every node sends and receives ~(K-1)/K of its
    // file share.
    EXPECT_NEAR(static_cast<double>(nt.tx_bytes),
                static_cast<double>(nt.rx_bytes),
                static_cast<double>(nt.tx_bytes) * 0.02);
  }
  EXPECT_EQ(tx_total, result.traffic.at(stage::kShuffle).unicast_bytes);
  EXPECT_EQ(rx_total, tx_total);  // every unicast is received once
}

TEST(NodeTraffic, CodedMulticastRxIsRTimesTx) {
  SortConfig config;
  config.num_nodes = 6;
  config.redundancy = 2;
  config.num_records = 6000;
  config.distribution = KeyDistribution::kBalanced;
  const AlgorithmResult result = RunCodedTeraSort(config);
  std::uint64_t tx = 0, rx = 0;
  for (const auto& nt : result.shuffle_node_traffic) {
    tx += nt.tx_bytes;
    rx += nt.rx_bytes;
  }
  // Each multicast transmission is delivered to r receivers.
  EXPECT_EQ(rx, tx * 2);
  EXPECT_EQ(tx, result.traffic.at(stage::kShuffle).mcast_bytes);
}

TEST(ParallelSchedule, FullDuplexIsFastestSerialSlowest) {
  SortConfig config;
  config.num_nodes = 8;
  config.num_records = 8000;
  const AlgorithmResult result = RunTeraSort(config);
  const CostModel model;
  const RunScale scale{1.0};
  const double serial =
      SimulateRun(result, model, scale, simnet::Discipline::kSerial).shuffle();
  const double half =
      SimulateRun(result, model, scale, simnet::Discipline::kParallelHalfDuplex)
          .shuffle();
  const double full =
      SimulateRun(result, model, scale, simnet::Discipline::kParallelFullDuplex)
          .shuffle();
  EXPECT_LT(full, half);
  EXPECT_LT(half, serial);
  // Parallel full duplex approaches serial / K for symmetric traffic.
  EXPECT_NEAR(full, serial / 8, serial / 8 * 0.25);
}

TEST(ParallelSchedule, CodingGainShrinksWhenLinksRunInParallel) {
  // The asynchronous-execution insight: receivers still take delivery
  // of their full demand, so parallel schedules cap the coded gain.
  SortConfig config;
  config.num_nodes = 8;
  config.num_records = 16000;
  config.distribution = KeyDistribution::kBalanced;
  const AlgorithmResult plain = RunTeraSort(config);
  config.redundancy = 3;
  const AlgorithmResult coded = RunCodedTeraSort(config);
  const CostModel model;
  const RunScale scale{1.0};
  const double serial_gain =
      SimulateRun(plain, model, scale).shuffle() /
      SimulateRun(coded, model, scale).shuffle();
  const double parallel_gain =
      SimulateRun(plain, model, scale, simnet::Discipline::kParallelFullDuplex)
          .shuffle() /
      SimulateRun(coded, model, scale, simnet::Discipline::kParallelFullDuplex)
          .shuffle();
  EXPECT_GT(serial_gain, 2.0);       // near r on the shared medium
  EXPECT_LT(parallel_gain, 1.5);     // rx-bound once links parallelize
}

// ---- Paper worked examples, end to end ----

TEST(PaperExamples, Fig1LoadsOnTheEngine) {
  // Fig. 1: K = 3 nodes, 6 files, 3 functions. Uncoded r=1 moves 12
  // values, uncoded r=2 moves 6, coded r=2 moves "3" packets (each
  // half-value segments XORed — 3 value-equivalents of transmission
  // load: (1/2)(1-2/3)*18 = 3).
  SortConfig config;
  config.num_nodes = 3;
  config.num_records = 18000;
  config.distribution = KeyDistribution::kBalanced;

  const AlgorithmResult uncoded = RunTeraSort(config);
  const double uncoded_frac =
      static_cast<double>(
          uncoded.traffic.at(stage::kShuffle).transmitted_bytes()) /
      static_cast<double>(config.total_bytes());
  EXPECT_NEAR(uncoded_frac, 12.0 / 18.0, 0.01);

  config.redundancy = 2;
  const AlgorithmResult coded = RunCodedTeraSort(config);
  const double coded_frac =
      static_cast<double>(
          coded.traffic.at(stage::kShuffle).transmitted_bytes()) /
      static_cast<double>(config.total_bytes());
  EXPECT_NEAR(coded_frac, 3.0 / 18.0, 0.01);
}

TEST(PaperExamples, Fig4PlacementDrivesTheRealRun) {
  // K=4, r=2: 6 files, each node maps 3, every record of the paper's
  // Fig. 4 layout ends up in exactly one sorted partition.
  SortConfig config;
  config.num_nodes = 4;
  config.redundancy = 2;
  config.num_records = 600;
  const AlgorithmResult result = RunCodedTeraSort(config);
  const NodeWork total = result.total_work();
  EXPECT_EQ(total.map_files, 4u * 3u);
  EXPECT_EQ(total.map_bytes, config.total_bytes() * 2);
  EXPECT_EQ(result.total_output_records(), config.num_records);
}

TEST(PaperExamples, SerialMulticastPacketOrderIsFig9b) {
  // Groups are visited in colex order and members broadcast in
  // ascending order within each group; with K=3, r=1 the groups are
  // {0,1}, {0,2}, {1,2} and message counts per node follow.
  SortConfig config;
  config.num_nodes = 3;
  config.redundancy = 1;
  config.num_records = 300;
  const AlgorithmResult result = RunCodedTeraSort(config);
  const auto shuffle = result.traffic.at(stage::kShuffle);
  EXPECT_EQ(shuffle.mcast_msgs, 6u);  // 3 groups x 2 members
  std::uint64_t tx = 0;
  for (const auto& nt : result.shuffle_node_traffic) tx += nt.tx_bytes;
  EXPECT_EQ(tx, shuffle.mcast_bytes);
}

// ---- Whole-pipeline invariants ----

TEST(Pipeline, EveryRecordLandsInExactlyOnePartition) {
  SortConfig config;
  config.num_nodes = 5;
  config.redundancy = 3;
  config.num_records = 5000;
  const AlgorithmResult result = RunCodedTeraSort(config);
  auto all = Concatenate(result);
  const auto input = TeraGen(config.seed, config.distribution)
                         .generate(0, config.num_records);
  EXPECT_TRUE(IsSortedPermutationOf(input, all));
}

TEST(Pipeline, SeedChangesDataButNotInvariants) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 31337ULL}) {
    SortConfig config;
    config.num_nodes = 4;
    config.redundancy = 2;
    config.num_records = 1200;
    config.seed = seed;
    const AlgorithmResult coded = RunCodedTeraSort(config);
    const AlgorithmResult plain = RunTeraSort(config);
    EXPECT_EQ(coded.partitions, plain.partitions) << "seed=" << seed;
  }
}

TEST(Pipeline, SimulatedTablesPreserveOrdering) {
  // The priced coded run must beat the priced baseline at the paper's
  // operating points — the qualitative claim of the whole paper.
  SortConfig config;
  config.num_nodes = 8;
  config.num_records = 16000;
  config.distribution = KeyDistribution::kBalanced;
  const auto baseline =
      SimulateRun(RunTeraSort(config), CostModel{},
                  PaperScale(config.num_records, 120'000'000));
  config.redundancy = 3;
  const auto coded =
      SimulateRun(RunCodedTeraSort(config), CostModel{},
                  PaperScale(config.num_records, 120'000'000));
  EXPECT_LT(coded.total(), baseline.total());
  EXPECT_GT(baseline.total() / coded.total(), 1.5);
}

}  // namespace
}  // namespace cts
