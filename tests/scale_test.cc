// Scale-out regression suite: the live harness well past the old
// K = 32 mask cap.
//
//  * Plain TeraSort executes end-to-end at K = 100 (mask-free split)
//    and leaks no mailbox state.
//  * The transport keeps exact counters and a valid transmission log
//    under many nodes x many keys of contention (runs under the TSan
//    CI job).
//  * ShuffleSync::kOverlapped moves byte-identical per-stage traffic
//    to the barrier schedule: each sender charges its sends to its own
//    stage label (simmpi/traffic.h), pinned as a regression test.
//  * Live CodedTeraSort at K = 24 shares every multicast payload among
//    its root and recipients and still sorts and validates.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "codedterasort/coded_terasort.h"
#include "gtest/gtest.h"
#include "keyvalue/recordio.h"
#include "keyvalue/teragen.h"
#include "keyvalue/teravalidate.h"
#include "simmpi/comm.h"
#include "simmpi/world.h"
#include "terasort/terasort.h"

namespace cts {
namespace {

void ExpectGloballySorted(const AlgorithmResult& result) {
  const Record* prev = nullptr;
  for (const auto& partition : result.partitions) {
    EXPECT_TRUE(IsSorted(partition));
    if (!partition.empty()) {
      if (prev != nullptr) {
        EXPECT_FALSE(RecordLess(partition.front(), *prev));
      }
      prev = &partition.back();
    }
  }
}

TEST(ScaleOut, TeraSortCompletesLiveAtK100) {
  SortConfig config;
  config.num_nodes = 100;
  config.num_records = 20000;
  config.shuffle_sync = ShuffleSync::kOverlapped;
  // RunTeraSort itself asserts World::pending_messages() == 0 after the
  // run — the K = 100 mailbox leak check.
  const AlgorithmResult result = RunTeraSort(config);
  EXPECT_EQ(result.total_output_records(), config.num_records);
  ExpectGloballySorted(result);
  const simmpi::ChannelCounters shuffle = result.traffic.at(stage::kShuffle);
  EXPECT_EQ(shuffle.unicast_msgs, std::uint64_t{100 * 99});
  ASSERT_EQ(result.shuffle_node_traffic.size(), std::size_t{100});
}

TEST(ScaleOut, TeraSortBarrierScheduleAlsoRunsAtK100) {
  SortConfig config;
  config.num_nodes = 100;
  config.num_records = 10000;
  config.shuffle_sync = ShuffleSync::kBarrier;
  const AlgorithmResult result = RunTeraSort(config);
  EXPECT_EQ(result.total_output_records(), config.num_records);
  ExpectGloballySorted(result);
}

// Live CodedTeraSort at K = 24, r = 3: each node is in C(23, 3) = 1,771
// groups, so every shuffle payload is shared by its root and three
// recipients across threads, under both schedules. RunCodedTeraSort
// itself checks record conservation and that no message is pending.
TEST(ScaleOut, CodedTeraSortSharesPayloadsAtK24) {
  for (const ShuffleSync sync :
       {ShuffleSync::kBarrier, ShuffleSync::kOverlapped}) {
    SortConfig config;
    config.num_nodes = 24;
    config.redundancy = 3;
    config.num_records = 50000;
    config.codegen_mode = CodeGenMode::kBatched;
    config.shuffle_sync = sync;
    const AlgorithmResult result = RunCodedTeraSort(config);
    const ValidationReport report = ValidatePartitions(
        result.partitions,
        ChecksumOfInput(TeraGen(config.seed, config.distribution),
                        config.num_records));
    EXPECT_TRUE(report.valid) << report.error;
    EXPECT_EQ(result.traffic.at(stage::kShuffle).mcast_msgs,
              Binomial(24, 4) * 4);
  }
}

// Many nodes x many keys hammering one TrafficStats and one Mailbox:
// exact aggregate counters, exact per-node totals, and a merged
// transmission log that keeps each sender's program order.
TEST(ScaleOut, ShardedTransportKeepsExactCountsUnderContention) {
  constexpr int K = 48;
  constexpr int kRounds = 6;
  constexpr std::uint64_t kPayloadBytes = 12;
  simmpi::World world(K);

  std::vector<std::thread> threads;
  threads.reserve(K);
  for (NodeId n = 0; n < K; ++n) {
    threads.emplace_back([&world, n] {
      simmpi::Comm c = simmpi::Comm::World(world, n);
      for (int round = 0; round < kRounds; ++round) {
        std::vector<simmpi::Request> recvs;
        recvs.reserve(K - 1);
        for (int src = 0; src < K; ++src) {
          if (src == n) continue;
          recvs.push_back(c.irecv(src, round));
        }
        for (int dst = 0; dst < K; ++dst) {
          if (dst == n) continue;
          Buffer b;
          b.write_i32(n);
          b.write_i32(dst);
          b.write_i32(round);
          (void)c.isend(dst, round, b);
        }
        std::size_t i = 0;
        for (int src = 0; src < K; ++src) {
          if (src == n) continue;
          Buffer b = simmpi::Comm::wait(recvs[i++]);
          EXPECT_EQ(b.read_i32(), src);
          EXPECT_EQ(b.read_i32(), n);
          EXPECT_EQ(b.read_i32(), round);
        }
        c.barrier();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(world.pending_messages(), std::size_t{0});

  const std::uint64_t expected_msgs =
      std::uint64_t{K} * (K - 1) * kRounds;
  const simmpi::ChannelCounters total = world.stats().total();
  EXPECT_EQ(total.unicast_msgs, expected_msgs);
  EXPECT_EQ(total.unicast_bytes, expected_msgs * kPayloadBytes);

  const auto per_node = world.stats().per_node("");
  ASSERT_EQ(per_node.size(), std::size_t{K});
  for (const auto& nt : per_node) {
    EXPECT_EQ(nt.tx_bytes, std::uint64_t{K - 1} * kRounds * kPayloadBytes);
    EXPECT_EQ(nt.rx_bytes, std::uint64_t{K - 1} * kRounds * kPayloadBytes);
  }

  const simnet::TransmissionLog log = world.stats().transmission_log("");
  ASSERT_EQ(log.size(), expected_msgs);
  // Sender n sends to every other node in ascending order, each round.
  std::vector<int> sent(K, 0);
  for (const simnet::Transmission& t : log) {
    const auto src = static_cast<std::size_t>(t.src);
    const int i = sent[src]++ % (K - 1);
    ASSERT_EQ(t.dsts.size(), 1u);
    EXPECT_EQ(t.dsts[0], i < t.src ? i : i + 1) << "sender " << t.src;
  }
}

// Per-sender stage labels (see simmpi/traffic.h): nonblocking sends
// account at initiation inside the sender's stage body, under the label
// the sender set for that stage, so the overlapped schedules must
// charge exactly the bytes the barrier schedules do, to exactly the
// same stages.
void ExpectSameStageTraffic(const AlgorithmResult& barrier,
                            const AlgorithmResult& overlapped) {
  ASSERT_EQ(barrier.stage_order, overlapped.stage_order);
  for (const auto& [name, a] : barrier.traffic) {
    SCOPED_TRACE(name);
    const auto it = overlapped.traffic.find(name);
    ASSERT_NE(it, overlapped.traffic.end());
    const simmpi::ChannelCounters& b = it->second;
    EXPECT_EQ(a.unicast_msgs, b.unicast_msgs);
    EXPECT_EQ(a.unicast_bytes, b.unicast_bytes);
    EXPECT_EQ(a.mcast_msgs, b.mcast_msgs);
    EXPECT_EQ(a.mcast_bytes, b.mcast_bytes);
    EXPECT_EQ(a.mcast_recipient_bytes, b.mcast_recipient_bytes);
    EXPECT_EQ(a.comm_creations, b.comm_creations);
  }
  EXPECT_EQ(barrier.traffic.size(), overlapped.traffic.size());
  ASSERT_EQ(barrier.shuffle_node_traffic.size(),
            overlapped.shuffle_node_traffic.size());
  for (std::size_t k = 0; k < barrier.shuffle_node_traffic.size(); ++k) {
    EXPECT_EQ(barrier.shuffle_node_traffic[k].tx_bytes,
              overlapped.shuffle_node_traffic[k].tx_bytes);
    EXPECT_EQ(barrier.shuffle_node_traffic[k].rx_bytes,
              overlapped.shuffle_node_traffic[k].rx_bytes);
  }
}

TEST(ScaleOut, OverlappedShuffleTrafficMatchesBarrierPerStage) {
  {
    SortConfig config;
    config.num_nodes = 10;
    config.num_records = 5000;
    config.shuffle_sync = ShuffleSync::kBarrier;
    const AlgorithmResult barrier = RunTeraSort(config);
    config.shuffle_sync = ShuffleSync::kOverlapped;
    const AlgorithmResult overlapped = RunTeraSort(config);
    ExpectSameStageTraffic(barrier, overlapped);
  }
  {
    SortConfig config;
    config.num_nodes = 8;
    config.redundancy = 3;
    config.num_records = 5000;
    config.codegen_mode = CodeGenMode::kBatched;
    config.shuffle_sync = ShuffleSync::kBarrier;
    const AlgorithmResult barrier = RunCodedTeraSort(config);
    config.shuffle_sync = ShuffleSync::kOverlapped;
    const AlgorithmResult overlapped = RunCodedTeraSort(config);
    ExpectSameStageTraffic(barrier, overlapped);
  }
}

}  // namespace
}  // namespace cts
