// Tests for the synthesized pricing backend (src/simulate +
// job::Backend::kSimulated).
//
// The load-bearing property is EXACTNESS: for every configuration both
// backends can evaluate, kSimulated must price byte-identically to
// kPriced — same counters in, same doubles out, same JSON bytes out.
// The identity is asserted at three levels per cell: raw synthesized
// counters vs the live run's, the priced StageBreakdown doubles, and
// the serialized bench-JSON files compared byte-for-byte.

#include "simulate/simulate.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "gtest/gtest.h"
#include "job/job.h"

namespace cts {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Serializes a JobResult's flat metrics exactly the way the bench
// harnesses and ctsort do.
std::string MetricsJson(const job::JobResult& result,
                        const std::string& file_tag) {
  const std::string path =
      ::testing::TempDir() + "simulate_identity_" + file_tag + ".json";
  bench::JsonReport report("simulate_identity", path);
  report.add_all(result.metrics("cell"));
  EXPECT_TRUE(report.write());
  return Slurp(path);
}

void ExpectSameCounters(const AlgorithmResult& live,
                        const AlgorithmResult& synth) {
  EXPECT_EQ(live.algorithm, synth.algorithm);
  EXPECT_EQ(live.config.redundancy, synth.config.redundancy);
  ASSERT_EQ(live.work.size(), synth.work.size());
  for (std::size_t k = 0; k < live.work.size(); ++k) {
    SCOPED_TRACE("node " + std::to_string(k));
    const NodeWork& a = live.work[k];
    const NodeWork& b = synth.work[k];
    EXPECT_EQ(a.map_bytes, b.map_bytes);
    EXPECT_EQ(a.map_files, b.map_files);
    EXPECT_EQ(a.pack_bytes, b.pack_bytes);
    EXPECT_EQ(a.unpack_bytes, b.unpack_bytes);
    EXPECT_EQ(a.reduce_bytes, b.reduce_bytes);
    EXPECT_EQ(a.codec.packets_encoded, b.codec.packets_encoded);
    EXPECT_EQ(a.codec.encode_xor_bytes, b.codec.encode_xor_bytes);
    EXPECT_EQ(a.codec.encode_payload_bytes, b.codec.encode_payload_bytes);
    EXPECT_EQ(a.codec.packets_decoded, b.codec.packets_decoded);
    EXPECT_EQ(a.codec.decode_xor_bytes, b.codec.decode_xor_bytes);
    EXPECT_EQ(a.codec.decoded_bytes, b.codec.decoded_bytes);
  }
  const auto shuffle = [](const AlgorithmResult& r) {
    const auto it = r.traffic.find(stage::kShuffle);
    return it == r.traffic.end() ? simmpi::ChannelCounters{} : it->second;
  };
  const simmpi::ChannelCounters a = shuffle(live);
  const simmpi::ChannelCounters b = shuffle(synth);
  EXPECT_EQ(a.unicast_msgs, b.unicast_msgs);
  EXPECT_EQ(a.unicast_bytes, b.unicast_bytes);
  EXPECT_EQ(a.mcast_msgs, b.mcast_msgs);
  EXPECT_EQ(a.mcast_bytes, b.mcast_bytes);
  EXPECT_EQ(a.mcast_recipient_bytes, b.mcast_recipient_bytes);
  // CodeGen records only the communicators created, under both
  // CodeGenModes: splits and the kBatched id base are control plane.
  const auto codegen = [](const AlgorithmResult& r) {
    const auto it = r.traffic.find(stage::kCodeGen);
    return it == r.traffic.end() ? simmpi::ChannelCounters{} : it->second;
  };
  const simmpi::ChannelCounters lc = codegen(live);
  const simmpi::ChannelCounters sc = codegen(synth);
  EXPECT_EQ(lc.unicast_msgs, sc.unicast_msgs);
  EXPECT_EQ(lc.unicast_bytes, sc.unicast_bytes);
  EXPECT_EQ(lc.mcast_msgs, sc.mcast_msgs);
  EXPECT_EQ(lc.mcast_bytes, sc.mcast_bytes);
  EXPECT_EQ(lc.mcast_recipient_bytes, sc.mcast_recipient_bytes);
  EXPECT_EQ(lc.comm_creations, sc.comm_creations);
  ASSERT_EQ(live.shuffle_node_traffic.size(),
            synth.shuffle_node_traffic.size());
  for (std::size_t k = 0; k < live.shuffle_node_traffic.size(); ++k) {
    EXPECT_EQ(live.shuffle_node_traffic[k].tx_bytes,
              synth.shuffle_node_traffic[k].tx_bytes)
        << "node " << k;
    EXPECT_EQ(live.shuffle_node_traffic[k].rx_bytes,
              synth.shuffle_node_traffic[k].rx_bytes)
        << "node " << k;
  }
}

struct Cell {
  std::string name;
  std::string algorithm;
  SortConfig config;
  simnet::Discipline schedule = simnet::Discipline::kSerial;
};

std::vector<Cell> IdentityCells() {
  std::vector<Cell> cells;
  const auto add = [&](std::string name, std::string algorithm, auto mutate,
                       simnet::Discipline schedule =
                           simnet::Discipline::kSerial) {
    Cell cell;
    cell.name = std::move(name);
    cell.algorithm = std::move(algorithm);
    cell.config.num_records = 6000;
    mutate(cell.config);
    cell.schedule = schedule;
    cells.push_back(std::move(cell));
  };
  add("terasort_k4", "terasort", [](SortConfig& c) { c.num_nodes = 4; });
  add("terasort_k7_sampled_overlapped", "terasort", [](SortConfig& c) {
    c.num_nodes = 7;
    c.partitioner = PartitionerKind::kSampled;
    c.shuffle_sync = ShuffleSync::kOverlapped;
  });
  add(
      "terasort_k16_parallel", "terasort",
      [](SortConfig& c) { c.num_nodes = 16; },
      simnet::Discipline::kParallelFullDuplex);
  add("coded_k4_r2", "coded", [](SortConfig& c) {
    c.num_nodes = 4;
    c.redundancy = 2;
  });
  add("coded_k5_r3_batched_balanced", "coded", [](SortConfig& c) {
    c.num_nodes = 5;
    c.redundancy = 3;
    c.codegen_mode = CodeGenMode::kBatched;
    c.distribution = KeyDistribution::kBalanced;
  });
  add("coded_k6_r5_overlapped", "coded", [](SortConfig& c) {
    c.num_nodes = 6;
    c.redundancy = 5;
    c.shuffle_sync = ShuffleSync::kOverlapped;
  });
  // r == K: degenerate fully-replicated placement, shuffle-free.
  add("coded_k5_r5", "coded", [](SortConfig& c) {
    c.num_nodes = 5;
    c.redundancy = 5;
  });
  add(
      "coded_k16_r3_parallel", "coded",
      [](SortConfig& c) {
        c.num_nodes = 16;
        c.redundancy = 3;
        c.codegen_mode = CodeGenMode::kBatched;
      },
      simnet::Discipline::kParallelHalfDuplex);
  return cells;
}

TEST(SimulatedBackend, ByteIdenticalToPricedAcrossCells) {
  for (const Cell& cell : IdentityCells()) {
    SCOPED_TRACE(cell.name);
    job::JobSpec spec;
    spec.algorithm = cell.algorithm;
    spec.config = cell.config;
    spec.schedule = cell.schedule;

    spec.backend = job::Backend::kPriced;
    const job::JobResult priced = job::RunJob(spec);
    spec.backend = job::Backend::kSimulated;
    const job::JobResult simulated = job::RunJob(spec);

    ASSERT_TRUE(simulated.error.empty()) << simulated.error;
    ASSERT_TRUE(priced.priced);
    ASSERT_TRUE(simulated.priced);
    ExpectSameCounters(*priced.execution, *simulated.execution);
    EXPECT_EQ(priced.metrics("cell"), simulated.metrics("cell"));
    EXPECT_EQ(MetricsJson(priced, cell.name + "_priced"),
              MetricsJson(simulated, cell.name + "_simulated"));
  }
}

// The mask-width boundary: K = 63 and 64 are the widest placements the
// live engine can enumerate, so the synthesized path must agree there
// too (regression for the old 32-bit NodeMask cap).
TEST(SimulatedBackend, MatchesLiveAtMaskWidthBoundary) {
  for (const int K : {63, 64}) {
    SCOPED_TRACE(K);
    job::JobSpec spec;
    spec.algorithm = "coded";
    spec.config.num_nodes = K;
    spec.config.redundancy = 1;
    spec.config.num_records = 3000;
    spec.config.codegen_mode = CodeGenMode::kBatched;

    spec.backend = job::Backend::kPriced;
    const job::JobResult priced = job::RunJob(spec);
    spec.backend = job::Backend::kSimulated;
    const job::JobResult simulated = job::RunJob(spec);

    ASSERT_TRUE(simulated.error.empty()) << simulated.error;
    ExpectSameCounters(*priced.execution, *simulated.execution);
    EXPECT_EQ(priced.metrics("cell"), simulated.metrics("cell"));
  }
}

// K ~ 1000: far past NodeMask width and thread-harness reach. Checks
// conservation laws instead of a live twin.
TEST(SimulatedBackend, PricesCodedRunAtK1000) {
  job::JobSpec spec;
  spec.algorithm = "coded";
  spec.backend = job::Backend::kSimulated;
  spec.config.num_nodes = 1000;
  spec.config.redundancy = 3;
  spec.config.num_records = 20000;
  const job::JobResult result = job::RunJob(spec);
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_TRUE(result.priced);
  EXPECT_GT(result.makespan, 0.0);

  const AlgorithmResult& run = *result.execution;
  const int K = spec.config.num_nodes;
  const int r = spec.config.redundancy;
  // Every record is mapped r times and reduced once.
  std::uint64_t map_bytes = 0;
  std::uint64_t reduce_bytes = 0;
  for (const NodeWork& w : run.work) {
    map_bytes += w.map_bytes;
    reduce_bytes += w.reduce_bytes;
  }
  EXPECT_EQ(map_bytes, spec.config.num_records * kRecordBytes *
                           static_cast<std::uint64_t>(r));
  EXPECT_EQ(reduce_bytes, spec.config.num_records * kRecordBytes);
  // C(1000, 4) groups, r+1 multicasts each; one communicator per group.
  const std::uint64_t groups = Binomial(K, r + 1);
  const simmpi::ChannelCounters shuffle = run.traffic.at(stage::kShuffle);
  EXPECT_EQ(shuffle.mcast_msgs,
            groups * static_cast<std::uint64_t>(r + 1));
  EXPECT_EQ(shuffle.mcast_recipient_bytes,
            shuffle.mcast_bytes * static_cast<std::uint64_t>(r));
  EXPECT_EQ(run.traffic.at(stage::kCodeGen).comm_creations, groups);
  // Per-node uplink bytes sum to the multicast wire bytes.
  std::uint64_t tx = 0;
  ASSERT_EQ(run.shuffle_node_traffic.size(), static_cast<std::size_t>(K));
  for (const simmpi::NodeTraffic& t : run.shuffle_node_traffic) {
    tx += t.tx_bytes;
  }
  EXPECT_EQ(tx, shuffle.mcast_bytes);
}

// FNV-1a over every counter the pricing can read: NodeWork and its
// CodecStats, every traffic channel (by stage name) and the per-node
// shuffle traffic.
std::uint64_t CounterDigest(const AlgorithmResult& run) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  const auto add = [&byte](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  add(run.work.size());
  for (const NodeWork& w : run.work) {
    for (const std::uint64_t v :
         {w.map_bytes, w.map_files, w.pack_bytes, w.unpack_bytes,
          w.reduce_bytes, w.codec.packets_encoded, w.codec.encode_xor_bytes,
          w.codec.encode_payload_bytes, w.codec.packets_decoded,
          w.codec.decode_xor_bytes, w.codec.decoded_bytes}) {
      add(v);
    }
  }
  add(run.traffic.size());
  for (const auto& [stage_name, c] : run.traffic) {
    for (const char ch : stage_name) byte(static_cast<std::uint8_t>(ch));
    for (const std::uint64_t v :
         {c.unicast_msgs, c.unicast_bytes, c.mcast_msgs, c.mcast_bytes,
          c.mcast_recipient_bytes, c.comm_creations}) {
      add(v);
    }
  }
  add(run.shuffle_node_traffic.size());
  for (const simmpi::NodeTraffic& t : run.shuffle_node_traffic) {
    add(t.tx_bytes);
    add(t.rx_bytes);
  }
  return h;
}

// K far past the live harness has no live twin, so these digests pin
// every synthesized counter exactly: any change to the synthesizer's
// arithmetic or data structures must reproduce them bit for bit.
TEST(SimulatedBackend, GoldenCountersAtScale) {
  struct Golden {
    const char* algorithm;
    int K;
    int r;
    KeyDistribution dist;
    PartitionerKind partitioner;
    std::uint64_t digest;
  };
  using KD = KeyDistribution;
  using PK = PartitionerKind;
  const Golden grid[] = {
      {"coded", 1000, 3, KD::kUniform, PK::kRange,
       0xf61bc1fcce467e81ULL},
      {"coded", 1000, 3, KD::kUniform, PK::kSampled,
       0x992bc5f9f16805ffULL},
      {"coded", 1000, 3, KD::kSkewed, PK::kRange,
       0xca3cd52d0f8f3b3fULL},
      {"coded", 1000, 3, KD::kSkewed, PK::kSampled,
       0x992bc5f9f16805ffULL},
      {"coded", 1000, 3, KD::kBalanced, PK::kRange,
       0x2317d2b5d0809f36ULL},
      {"coded", 1000, 3, KD::kBalanced, PK::kSampled,
       0x5435f113d8c287f2ULL},
      {"coded", 1000, 3, KD::kFewDistinct, PK::kRange,
       0x2a325cbe6e1a60a2ULL},
      {"coded", 1000, 3, KD::kFewDistinct, PK::kSampled,
       0x1996e2bc78e8b5a9ULL},
      {"coded", 200, 2, KD::kUniform, PK::kRange,
       0x8e3f9d1115134387ULL},
      {"coded", 200, 2, KD::kUniform, PK::kSampled,
       0x62160e5f1736abf8ULL},
      {"coded", 200, 2, KD::kSkewed, PK::kRange,
       0x9c4ced45d0d6e8f4ULL},
      {"coded", 200, 2, KD::kSkewed, PK::kSampled,
       0x62160e5f1736abf8ULL},
      {"coded", 200, 2, KD::kBalanced, PK::kRange,
       0x926767569e0af6eeULL},
      {"coded", 200, 2, KD::kBalanced, PK::kSampled,
       0x09017e5b538f67a4ULL},
      {"coded", 200, 2, KD::kFewDistinct, PK::kRange,
       0xa85f2ac508662d54ULL},
      {"coded", 200, 2, KD::kFewDistinct, PK::kSampled,
       0x18248fd7cdefd7c6ULL},
      {"terasort", 100, 1, KD::kUniform, PK::kRange,
       0x3c2741dd277ce20cULL},
      {"terasort", 100, 1, KD::kUniform, PK::kSampled,
       0x267cbd6ea8ce4b4cULL},
      {"terasort", 100, 1, KD::kSkewed, PK::kRange,
       0x3dc761b92e56a781ULL},
      {"terasort", 100, 1, KD::kSkewed, PK::kSampled,
       0x267cbd6ea8ce4b4cULL},
      {"terasort", 100, 1, KD::kBalanced, PK::kRange,
       0xd2cdde8ae92789cbULL},
      {"terasort", 100, 1, KD::kBalanced, PK::kSampled,
       0x71cb059788730980ULL},
      {"terasort", 100, 1, KD::kFewDistinct, PK::kRange,
       0x159e1b8ee49c284dULL},
      {"terasort", 100, 1, KD::kFewDistinct, PK::kSampled,
       0x303f7cff22138663ULL},
  };
  for (const Golden& g : grid) {
    SortConfig config;
    config.num_nodes = g.K;
    config.redundancy = g.r;
    config.num_records = 20000;
    config.distribution = g.dist;
    config.partitioner = g.partitioner;
    const simulate::SynthesisResult synth =
        simulate::SynthesizeRun(g.algorithm, config);
    ASSERT_TRUE(synth.ok()) << synth.error;
    const std::uint64_t digest = CounterDigest(*synth.run);
    EXPECT_EQ(digest, g.digest)
        << g.algorithm << " K=" << g.K << " r=" << g.r
        << " dist=" << static_cast<int>(g.dist)
        << " partitioner=" << static_cast<int>(g.partitioner);
  }
}

// Structured errors, never aborts (the BinomialOr contract end-to-end).
TEST(SimulatedBackend, OverflowAndUnsupportedSpecsReturnErrors) {
  job::JobSpec spec;
  spec.backend = job::Backend::kSimulated;

  // C(1000, 8) > 2^64: placement arithmetic cannot be represented.
  spec.algorithm = "coded";
  spec.config.num_nodes = 1000;
  spec.config.redundancy = 8;
  const job::JobResult overflow = job::RunJob(spec);
  EXPECT_NE(overflow.error.find("overflows 64 bits"), std::string::npos)
      << overflow.error;
  EXPECT_FALSE(overflow.priced);
  EXPECT_EQ(overflow.makespan, 0.0);
  EXPECT_EQ(overflow.execution, nullptr);

  // C(5000, 4999) fits, but its binomial table would not.
  spec.config.num_nodes = 5000;
  spec.config.redundancy = 4999;
  const job::JobResult table = job::RunJob(spec);
  EXPECT_NE(table.error.find("binomial table"), std::string::npos)
      << table.error;
  EXPECT_EQ(table.execution, nullptr);

  // CMR has no synthesized pricing.
  spec.algorithm = "cmr";
  spec.config = SortConfig{};
  EXPECT_FALSE(job::RunJob(spec).error.empty());

  // Redundancy outside 1 <= r <= K.
  spec.algorithm = "coded";
  spec.config = SortConfig{};
  spec.config.redundancy = spec.config.num_nodes + 1;
  EXPECT_FALSE(job::RunJob(spec).error.empty());
}

}  // namespace
}  // namespace cts
