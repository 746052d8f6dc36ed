// End-to-end tests of CodedTeraSort: correctness across a (K, r)
// sweep, equality with TeraSort, traffic identities of paper eq. (2),
// and stage/counter bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>

#include "analytics/loads.h"
#include "codedterasort/coded_terasort.h"
#include "keyvalue/recordio.h"
#include "keyvalue/teragen.h"
#include "terasort/terasort.h"
#include "tests/run_digest.h"

namespace cts {
namespace {

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

// ---- Correctness sweep over (K, r) ----

class CodedSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CodedSweep, OutputEqualsStdSortOfInput) {
  const auto [K, r] = GetParam();
  SortConfig config;
  config.num_nodes = K;
  config.redundancy = r;
  config.num_records = 3000;
  const AlgorithmResult result = RunCodedTeraSort(config);
  EXPECT_EQ(result.algorithm, "CodedTeraSort");
  EXPECT_EQ(Concatenate(result), ExpectedSorted(config));
}

TEST_P(CodedSweep, OutputEqualsTeraSortOutput) {
  const auto [K, r] = GetParam();
  SortConfig config;
  config.num_nodes = K;
  config.redundancy = r;
  config.num_records = 2000;
  const AlgorithmResult coded = RunCodedTeraSort(config);
  const AlgorithmResult plain = RunTeraSort(config);
  ASSERT_EQ(coded.partitions.size(), plain.partitions.size());
  for (std::size_t k = 0; k < coded.partitions.size(); ++k) {
    EXPECT_EQ(coded.partitions[k], plain.partitions[k]) << "partition " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodedSweep,
    ::testing::Values(std::pair{2, 1}, std::pair{3, 2}, std::pair{4, 2},
                      std::pair{4, 3}, std::pair{5, 2}, std::pair{5, 3},
                      std::pair{5, 4}, std::pair{6, 2}, std::pair{6, 3},
                      std::pair{6, 5}, std::pair{7, 3}, std::pair{8, 2},
                      std::pair{4, 4}, std::pair{5, 1}),
    [](const auto& info) {
      return "K" + std::to_string(info.param.first) + "r" +
             std::to_string(info.param.second);
    });

// ---- Traffic identities ----

TEST(CodedTeraSort, MulticastCountsMatchCombinatorics) {
  SortConfig config;
  config.num_nodes = 6;
  config.redundancy = 2;
  config.num_records = 6000;
  const AlgorithmResult result = RunCodedTeraSort(config);
  const auto shuffle = result.traffic.at(stage::kShuffle);
  // Every member of every (r+1)-group multicasts exactly one packet.
  EXPECT_EQ(shuffle.mcast_msgs, Binomial(6, 3) * 3);
  EXPECT_EQ(shuffle.unicast_msgs, 0u);
  // CodeGen creates exactly C(K, r+1) communicators.
  EXPECT_EQ(result.traffic.at(stage::kCodeGen).comm_creations,
            Binomial(6, 3));
}

TEST(CodedTeraSort, ShuffleBytesMatchCodedLoadFormula) {
  // Transmitted payload ≈ (1/r)(1 - r/K) of the dataset (eq. (2)).
  // The balanced key stream makes every intermediate value the same
  // size (no multinomial sampling noise), so only packet headers and
  // ±1-record rounding separate measured from theory.
  SortConfig config;
  config.num_nodes = 8;
  config.redundancy = 3;
  config.num_records = 24000;
  config.distribution = KeyDistribution::kBalanced;
  const AlgorithmResult result = RunCodedTeraSort(config);
  const auto shuffle = result.traffic.at(stage::kShuffle);
  const double measured =
      static_cast<double>(shuffle.transmitted_bytes()) /
      static_cast<double>(config.total_bytes());
  EXPECT_NEAR(measured, CodedLoad(8, 3), 0.015);
}

TEST(CodedTeraSort, RecipientBytesEqualUncodedDemand) {
  // Each multicast serves r receivers, so delivered (recipient) bytes
  // equal the full uncoded demand 1 - r/K while transmitted bytes are
  // r times smaller — the heart of the coding gain.
  SortConfig config;
  config.num_nodes = 6;
  config.redundancy = 2;
  config.num_records = 12000;
  const AlgorithmResult result = RunCodedTeraSort(config);
  const auto shuffle = result.traffic.at(stage::kShuffle);
  const double delivered =
      static_cast<double>(shuffle.mcast_recipient_bytes) /
      static_cast<double>(config.total_bytes());
  EXPECT_NEAR(delivered, UncodedLoad(6, 2), 0.03);
  EXPECT_NEAR(static_cast<double>(shuffle.mcast_recipient_bytes) /
                  static_cast<double>(shuffle.mcast_bytes),
              2.0, 1e-9);
}

TEST(CodedTeraSort, CodingGainVersusTeraSortTraffic) {
  // Transmitted bytes of CodedTeraSort vs TeraSort on the same
  // workload: ratio should approach L_coded / L_terasort.
  SortConfig config;
  config.num_nodes = 6;
  config.redundancy = 3;
  config.num_records = 18000;
  const AlgorithmResult coded = RunCodedTeraSort(config);
  const AlgorithmResult plain = RunTeraSort(config);
  const double coded_bytes = static_cast<double>(
      coded.traffic.at(stage::kShuffle).transmitted_bytes());
  const double plain_bytes = static_cast<double>(
      plain.traffic.at(stage::kShuffle).transmitted_bytes());
  const double expected_ratio = CodedLoad(6, 3) / TeraSortLoad(6);
  EXPECT_NEAR(coded_bytes / plain_bytes, expected_ratio,
              expected_ratio * 0.1);
}

// ---- Work counters ----

TEST(CodedTeraSort, MapWorkIsRTimesInput) {
  SortConfig config;
  config.num_nodes = 5;
  config.redundancy = 3;
  config.num_records = 5000;
  const AlgorithmResult result = RunCodedTeraSort(config);
  const NodeWork total = result.total_work();
  // Every record hashed r times across the cluster.
  EXPECT_EQ(total.map_bytes, config.total_bytes() * 3);
  // Every node processes C(K-1, r-1) files.
  EXPECT_EQ(total.map_files, 5 * Binomial(4, 2));
  // Reduce still sorts the dataset exactly once in aggregate.
  EXPECT_EQ(total.reduce_bytes, config.total_bytes());
}

TEST(CodedTeraSort, CodecCountersMatchCombinatorics) {
  SortConfig config;
  config.num_nodes = 6;
  config.redundancy = 2;
  config.num_records = 6000;
  const AlgorithmResult result = RunCodedTeraSort(config);
  const NodeWork total = result.total_work();
  // One packet encoded per (group, member); r packets decoded per
  // (group, member).
  const std::uint64_t groups = Binomial(6, 3);
  EXPECT_EQ(total.codec.packets_encoded, groups * 3);
  EXPECT_EQ(total.codec.packets_decoded, groups * 3 * 2);
  // Decoded useful bytes = all values delivered = (1 - r/K) of the
  // serialized data (plus per-IV record-count headers).
  const double fraction =
      static_cast<double>(total.codec.decoded_bytes) /
      static_cast<double>(config.total_bytes());
  EXPECT_NEAR(fraction, UncodedLoad(6, 2), 0.05);
}

TEST(CodedTeraSort, StagesRecorded) {
  SortConfig config;
  config.num_nodes = 4;
  config.redundancy = 2;
  config.num_records = 1200;
  const AlgorithmResult result = RunCodedTeraSort(config);
  for (const char* s : {stage::kCodeGen, stage::kMap, stage::kEncode,
                        stage::kShuffle, stage::kDecode, stage::kReduce}) {
    ASSERT_TRUE(result.wall_seconds.count(s)) << s;
  }
  EXPECT_FALSE(result.wall_seconds.count(stage::kPack));
}

// Pins every counter and every output byte of the live coded engine
// across (K, r), both CodeGen/shuffle pairings, both partitioners,
// every key distribution and two input sizes (plus the empty input
// once per (K, r)). The digests were taken from the engine that mapped
// each file into per-partition record vectors, packed the kept ones
// during Encode, copied every multicast payload once per recipient and
// decoded through DecodePacket and MergeSegments; a rewrite of Map,
// Encode, Shuffle or Decode must reproduce them bit for bit. The
// kOverlapped + kBatched column was re-pinned when the batched
// CodeGen's 4-byte id base stopped being accounted as a CodeGen
// multicast: its digests are that engine's with the CodeGen stage's
// mcast_msgs, mcast_bytes and mcast_recipient_bytes folded as zero.
TEST(CodedTeraSort, GoldenDigestAcrossTheGrid) {
  struct Golden {
    int K;
    int r;
    std::uint64_t barrier_digest;     // kBarrier + kCommSplit
    std::uint64_t overlapped_digest;  // kOverlapped + kBatched
  };
  const Golden grid[] = {
      {2, 1, 0x3c5f6df91931396cULL, 0xa1aa4eab696bff0eULL},
      {3, 1, 0x0229fa048a64eaccULL, 0xc414e24fd04a3451ULL},
      {3, 2, 0xbb2b6bd23637f2a6ULL, 0x81f5fb11644bb832ULL},
      {4, 1, 0x73b86987b6dcbcdaULL, 0x46f6c5ce72547e83ULL},
      {4, 2, 0xe6fa2949b42de8e9ULL, 0x119ef91d6899de0cULL},
      {4, 3, 0x9960b6541a610874ULL, 0xada1b96ac534b5abULL},
      {4, 4, 0xec011ce5e93d3670ULL, 0xbe97ad0704d5a5bbULL},
      {5, 2, 0xe88c5cf6af360e8dULL, 0xf70a72b969c8ee49ULL},
      {6, 3, 0xd762b4641833bf07ULL, 0x6c6120342e6dee09ULL},
      {7, 3, 0x81917796af9f5fccULL, 0x7c2fff0bc48175c3ULL},
  };
  for (const Golden& g : grid) {
    for (const bool overlapped : {false, true}) {
      std::uint64_t h = 0xcbf29ce484222325ULL;
      const auto fold = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x100000001b3ULL;
      };
      SortConfig config;
      config.num_nodes = g.K;
      config.redundancy = g.r;
      if (overlapped) {
        config.shuffle_sync = ShuffleSync::kOverlapped;
        config.codegen_mode = CodeGenMode::kBatched;
      } else {
        config.num_records = 0;
        fold(RunDigest(RunCodedTeraSort(config)));
      }
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
            fold(RunDigest(RunCodedTeraSort(config)));
          }
        }
      }
      EXPECT_EQ(h, overlapped ? g.overlapped_digest : g.barrier_digest)
          << "K = " << g.K << ", r = " << g.r
          << (overlapped ? " overlapped" : " barrier") << " got 0x"
          << std::hex << h;
    }
  }
}

// ---- Degenerate and edge configurations ----

TEST(CodedTeraSort, RedundancyEqualsKNeedsNoShuffle) {
  SortConfig config;
  config.num_nodes = 4;
  config.redundancy = 4;
  config.num_records = 2000;
  const AlgorithmResult result = RunCodedTeraSort(config);
  EXPECT_EQ(Concatenate(result), ExpectedSorted(config));
  const auto shuffle = result.traffic.at(stage::kShuffle);
  EXPECT_EQ(shuffle.transmitted_bytes(), 0u);
  EXPECT_EQ(result.traffic.at(stage::kCodeGen).comm_creations, 0u);
}

TEST(CodedTeraSort, RedundancyOneStillSortsViaPairGroups) {
  SortConfig config;
  config.num_nodes = 5;
  config.redundancy = 1;
  config.num_records = 2500;
  const AlgorithmResult result = RunCodedTeraSort(config);
  EXPECT_EQ(Concatenate(result), ExpectedSorted(config));
  // Pair groups: C(K, 2) communicators, each member sends one packet.
  EXPECT_EQ(result.traffic.at(stage::kShuffle).mcast_msgs,
            Binomial(5, 2) * 2);
}

TEST(CodedTeraSort, TinyInputManyFiles) {
  // Fewer records than files: most files are empty — the codec must
  // handle zero-length IVs and still deliver everything.
  SortConfig config;
  config.num_nodes = 6;
  config.redundancy = 3;  // 20 files
  config.num_records = 9;
  const AlgorithmResult result = RunCodedTeraSort(config);
  EXPECT_EQ(Concatenate(result), ExpectedSorted(config));
}

TEST(CodedTeraSort, EmptyInput) {
  SortConfig config;
  config.num_nodes = 4;
  config.redundancy = 2;
  config.num_records = 0;
  const AlgorithmResult result = RunCodedTeraSort(config);
  EXPECT_EQ(result.total_output_records(), 0u);
}

TEST(CodedTeraSort, DeterministicAcrossRuns) {
  SortConfig config;
  config.num_nodes = 5;
  config.redundancy = 2;
  config.num_records = 2000;
  const AlgorithmResult a = RunCodedTeraSort(config);
  const AlgorithmResult b = RunCodedTeraSort(config);
  EXPECT_EQ(Concatenate(a), Concatenate(b));
  EXPECT_EQ(a.traffic.at(stage::kShuffle).mcast_bytes,
            b.traffic.at(stage::kShuffle).mcast_bytes);
}

TEST(CodedTeraSort, SkewedDataWithSampledPartitioner) {
  SortConfig config;
  config.num_nodes = 5;
  config.redundancy = 2;
  config.num_records = 5000;
  config.distribution = KeyDistribution::kSkewed;
  config.partitioner = PartitionerKind::kSampled;
  const AlgorithmResult result = RunCodedTeraSort(config);
  EXPECT_EQ(Concatenate(result), ExpectedSorted(config));
}

// Keys with only 256 distinct 8-byte prefixes, and descending keys,
// through the coded shuffle and the Reduce sort at the paper's K = 4.
TEST(CodedTeraSort, SortsFewDistinctAndReverseSortedKeys) {
  for (const KeyDistribution dist :
       {KeyDistribution::kFewDistinct, KeyDistribution::kReverseSorted}) {
    for (const int r : {2, 3}) {
      SCOPED_TRACE(testing::Message() << "distribution "
                                      << static_cast<int>(dist) << ", r "
                                      << r);
      SortConfig config;
      config.num_nodes = 4;
      config.redundancy = r;
      config.num_records = 3000;
      config.distribution = dist;
      EXPECT_EQ(Concatenate(RunCodedTeraSort(config)),
                ExpectedSorted(config));
    }
  }
}

TEST(CodedTeraSort, RejectsInvalidRedundancy) {
  SortConfig config;
  config.num_nodes = 4;
  config.num_records = 100;
  config.redundancy = 0;
  EXPECT_THROW(RunCodedTeraSort(config), CheckError);
  config.redundancy = 5;
  EXPECT_THROW(RunCodedTeraSort(config), CheckError);
}

}  // namespace
}  // namespace cts
