// End-to-end tests of the baseline TeraSort implementation.
#include <gtest/gtest.h>

#include <algorithm>

#include "analytics/loads.h"
#include "keyvalue/recordio.h"
#include "keyvalue/teragen.h"
#include "keyvalue/teravalidate.h"
#include "terasort/terasort.h"
#include "tests/run_digest.h"

namespace cts {
namespace {

// Flattens per-node partitions in node order.
std::vector<Record> Concatenate(const AlgorithmResult& result) {
  std::vector<Record> all;
  for (const auto& p : result.partitions) {
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

std::vector<Record> ExpectedSorted(const SortConfig& config) {
  auto recs =
      TeraGen(config.seed, config.distribution).generate(0, config.num_records);
  std::sort(recs.begin(), recs.end(), RecordLess);
  return recs;
}

TEST(TeraSort, SortsEveryDistribution) {
  for (const KeyDistribution dist :
       {KeyDistribution::kUniform, KeyDistribution::kSorted,
        KeyDistribution::kReverseSorted, KeyDistribution::kSkewed,
        KeyDistribution::kFewDistinct, KeyDistribution::kBalanced}) {
    SCOPED_TRACE(static_cast<int>(dist));
    SortConfig config;
    config.num_nodes = 4;
    config.num_records = 4000;
    config.distribution = dist;
    const AlgorithmResult result = RunTeraSort(config);
    EXPECT_EQ(result.algorithm, "TeraSort");
    EXPECT_EQ(Concatenate(result), ExpectedSorted(config));
  }
}

TEST(TeraSort, EachPartitionIsSortedAndOrderedAcrossNodes) {
  SortConfig config;
  config.num_nodes = 5;
  config.num_records = 5000;
  const AlgorithmResult result = RunTeraSort(config);
  for (const auto& p : result.partitions) {
    EXPECT_TRUE(IsSorted(p));
  }
  // Last key of partition k precedes first key of partition k+1.
  for (std::size_t k = 0; k + 1 < result.partitions.size(); ++k) {
    const auto& cur = result.partitions[k];
    const auto& next = result.partitions[k + 1];
    if (cur.empty() || next.empty()) continue;
    EXPECT_LE(CompareKeys(cur.back().key, next.front().key), 0);
  }
}

TEST(TeraSort, SingleNodeDegeneratesToLocalSort) {
  SortConfig config;
  config.num_nodes = 1;
  config.num_records = 1000;
  const AlgorithmResult result = RunTeraSort(config);
  EXPECT_EQ(Concatenate(result), ExpectedSorted(config));
  // No shuffle traffic at all.
  const auto it = result.traffic.find(stage::kShuffle);
  ASSERT_NE(it, result.traffic.end());
  EXPECT_EQ(it->second.unicast_bytes, 0u);
}

TEST(TeraSort, ShuffleTrafficMatchesLoadFormula) {
  // With uniform keys, the shuffled payload fraction approaches
  // 1 - 1/K (paper eq. (2) with r = 1). Message count is exactly
  // K*(K-1): each node unicasts one value to every other node.
  SortConfig config;
  config.num_nodes = 8;
  config.num_records = 16000;
  const AlgorithmResult result = RunTeraSort(config);
  const auto shuffle = result.traffic.at(stage::kShuffle);
  EXPECT_EQ(shuffle.unicast_msgs, 8u * 7u);
  EXPECT_EQ(shuffle.mcast_msgs, 0u);
  const double payload_fraction =
      static_cast<double>(shuffle.unicast_bytes) /
      static_cast<double>(config.total_bytes());
  EXPECT_NEAR(payload_fraction, TeraSortLoad(8), 0.02);
}

TEST(TeraSort, WorkCountersAreConsistent) {
  SortConfig config;
  config.num_nodes = 4;
  config.num_records = 4000;
  const AlgorithmResult result = RunTeraSort(config);
  ASSERT_EQ(result.work.size(), 4u);
  const NodeWork total = result.total_work();
  // Every record is hashed exactly once and sorted exactly once.
  EXPECT_EQ(total.map_bytes, config.total_bytes());
  EXPECT_EQ(total.reduce_bytes, config.total_bytes());
  EXPECT_EQ(total.map_files, 4u);
  // Pack bytes equal shuffled payload bytes; unpack equals pack.
  EXPECT_EQ(total.pack_bytes, result.traffic.at(stage::kShuffle).unicast_bytes);
  EXPECT_EQ(total.unpack_bytes, total.pack_bytes);
  // TeraSort never touches the codec.
  EXPECT_EQ(total.codec.packets_encoded, 0u);
  EXPECT_EQ(total.codec.packets_decoded, 0u);
}

TEST(TeraSort, WallTimesRecordedForEveryStage) {
  SortConfig config;
  config.num_nodes = 3;
  config.num_records = 900;
  const AlgorithmResult result = RunTeraSort(config);
  for (const char* s : {stage::kMap, stage::kPack, stage::kShuffle,
                        stage::kUnpack, stage::kReduce}) {
    ASSERT_TRUE(result.wall_seconds.count(s)) << s;
    EXPECT_GE(result.wall_seconds.at(s), 0.0);
  }
  EXPECT_FALSE(result.wall_seconds.count(stage::kCodeGen));
}

TEST(TeraSort, DeterministicAcrossRuns) {
  SortConfig config;
  config.num_nodes = 4;
  config.num_records = 2000;
  const AlgorithmResult a = RunTeraSort(config);
  const AlgorithmResult b = RunTeraSort(config);
  EXPECT_EQ(Concatenate(a), Concatenate(b));
  EXPECT_EQ(a.traffic.at(stage::kShuffle).unicast_bytes,
            b.traffic.at(stage::kShuffle).unicast_bytes);
}

TEST(TeraSort, HandlesRecordCountNotDivisibleByNodes) {
  SortConfig config;
  config.num_nodes = 7;
  config.num_records = 1009;  // prime
  const AlgorithmResult result = RunTeraSort(config);
  EXPECT_EQ(Concatenate(result), ExpectedSorted(config));
}

TEST(TeraSort, HandlesTinyInputs) {
  SortConfig config;
  config.num_nodes = 4;
  config.num_records = 3;  // fewer records than nodes
  const AlgorithmResult result = RunTeraSort(config);
  EXPECT_EQ(result.total_output_records(), 3u);
  EXPECT_EQ(Concatenate(result), ExpectedSorted(config));
}

TEST(TeraSort, HandlesEmptyInput) {
  SortConfig config;
  config.num_nodes = 3;
  config.num_records = 0;
  const AlgorithmResult result = RunTeraSort(config);
  EXPECT_EQ(result.total_output_records(), 0u);
}

class TeraSortDistributions
    : public ::testing::TestWithParam<KeyDistribution> {};

TEST_P(TeraSortDistributions, SortsCorrectlyUnderSkewWithSampledPartitioner) {
  SortConfig config;
  config.num_nodes = 4;
  config.num_records = 4000;
  config.distribution = GetParam();
  config.partitioner = PartitionerKind::kSampled;
  const AlgorithmResult result = RunTeraSort(config);
  EXPECT_EQ(Concatenate(result), ExpectedSorted(config));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TeraSortDistributions,
    ::testing::Values(KeyDistribution::kUniform, KeyDistribution::kSorted,
                      KeyDistribution::kReverseSorted,
                      KeyDistribution::kSkewed,
                      KeyDistribution::kFewDistinct),
    [](const auto& info) {
      switch (info.param) {
        case KeyDistribution::kUniform: return "Uniform";
        case KeyDistribution::kSorted: return "Sorted";
        case KeyDistribution::kReverseSorted: return "ReverseSorted";
        case KeyDistribution::kSkewed: return "Skewed";
        case KeyDistribution::kFewDistinct: return "FewDistinct";
        case KeyDistribution::kBalanced: return "Balanced";
      }
      return "Unknown";
    });

// Pins every counter and every output byte of the live engine across
// K, both shuffle schedules, both partitioners, every key
// distribution and two input sizes (plus the empty input). The
// digests were taken from the engine that generated each node's file
// into a vector, hashed it into per-partition buckets and packed each
// bucket into a fresh buffer; a rewrite of Map, Pack, Shuffle or
// Unpack must reproduce them bit for bit. Both schedules share one
// digest: they move the same bytes between the same nodes.
TEST(TeraSort, GoldenDigestAcrossTheGrid) {
  struct Golden {
    int K;
    std::uint64_t digest;
  };
  const Golden grid[] = {
      {1, 0xf9d79a2cd962169aULL},
      {2, 0x0a2402d8e5c81768ULL},
      {3, 0x57fd9f3e0ebac57dULL},
      {4, 0xe12aa811753812e7ULL},
      {7, 0x2de07945c2f2818cULL},
  };
  for (const Golden& g : grid) {
    for (const ShuffleSync sync :
         {ShuffleSync::kBarrier, ShuffleSync::kOverlapped}) {
      std::uint64_t h = 0xcbf29ce484222325ULL;
      const auto fold = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x100000001b3ULL;
      };
      SortConfig config;
      config.num_nodes = g.K;
      config.shuffle_sync = sync;
      config.num_records = 0;
      fold(RunDigest(RunTeraSort(config)));
      for (const PartitionerKind partitioner :
           {PartitionerKind::kRange, PartitionerKind::kSampled}) {
        for (const KeyDistribution dist :
             {KeyDistribution::kUniform, KeyDistribution::kSorted,
              KeyDistribution::kReverseSorted, KeyDistribution::kSkewed,
              KeyDistribution::kFewDistinct, KeyDistribution::kBalanced}) {
          for (const std::uint64_t records : {5, 3000}) {
            config.partitioner = partitioner;
            config.distribution = dist;
            config.num_records = records;
            fold(RunDigest(RunTeraSort(config)));
          }
        }
      }
      EXPECT_EQ(h, g.digest)
          << "K = " << g.K << " sync " << static_cast<int>(sync) << " got 0x"
          << std::hex << h;
    }
  }
}

TEST(TeraSort, SampledPartitionerBalancesSkew) {
  SortConfig skewed;
  skewed.num_nodes = 8;
  skewed.num_records = 16000;
  skewed.distribution = KeyDistribution::kSkewed;

  SortConfig sampled = skewed;
  sampled.partitioner = PartitionerKind::kSampled;
  sampled.sample_size = 4000;

  const AlgorithmResult range_run = RunTeraSort(skewed);
  const AlgorithmResult sampled_run = RunTeraSort(sampled);

  auto imbalance = [](const AlgorithmResult& r) {
    std::size_t mx = 0;
    for (const auto& p : r.partitions) mx = std::max(mx, p.size());
    return static_cast<double>(mx) /
           (static_cast<double>(r.total_output_records()) /
            static_cast<double>(r.partitions.size()));
  };
  EXPECT_GT(imbalance(range_run), 2.0);   // range partitioner collapses
  EXPECT_LT(imbalance(sampled_run), 1.5); // sampler restores balance
}

}  // namespace
}  // namespace cts
