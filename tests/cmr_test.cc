// Tests for the generic Coded MapReduce engine and its bundled apps
// (Grep, WordCount): coded and uncoded shuffles must produce identical
// outputs, and measured communication loads must match eq. (2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "analytics/loads.h"
#include "cmr/cmr.h"
#include "coding/placement.h"

namespace cts::cmr {
namespace {

SortConfig Config(int K, int r) {
  SortConfig c;
  c.num_nodes = K;
  c.redundancy = r;
  c.seed = 99;
  return c;
}

// Reference: run the app sequentially (single pass over all files).
std::vector<std::string> SequentialReference(const CmrApp& app, int K, int r,
                                             std::uint64_t seed) {
  const Placement placement = Placement::Create(K, r);
  std::vector<std::vector<Buffer>> ivs(static_cast<std::size_t>(K));
  for (auto& v : ivs) v.resize(static_cast<std::size_t>(placement.num_files()));
  for (FileId f = 0; f < placement.num_files(); ++f) {
    auto mapped = app.map(app.make_file(f, seed), K);
    for (int q = 0; q < K; ++q) {
      ivs[static_cast<std::size_t>(q)][static_cast<std::size_t>(f)] =
          std::move(mapped[static_cast<std::size_t>(q)]);
    }
  }
  std::vector<std::string> outputs;
  outputs.reserve(static_cast<std::size_t>(K));
  for (int q = 0; q < K; ++q) {
    outputs.push_back(app.reduce(q, ivs[static_cast<std::size_t>(q)]));
  }
  return outputs;
}

class CmrModes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CmrModes, GrepMatchesSequentialReferenceBothModes) {
  const auto [K, r] = GetParam();
  const auto app = MakeGrepApp("needle", /*records_per_file=*/60);
  const auto expected = SequentialReference(*app, K, r, 99);
  for (const ShuffleMode mode :
       {ShuffleMode::kUncoded, ShuffleMode::kCoded}) {
    const CmrResult result = RunCmr(*app, Config(K, r), mode);
    EXPECT_EQ(result.outputs, expected)
        << "mode=" << (mode == ShuffleMode::kCoded ? "coded" : "uncoded");
  }
}

TEST_P(CmrModes, WordCountMatchesSequentialReferenceBothModes) {
  const auto [K, r] = GetParam();
  const auto app = MakeWordCountApp(/*records_per_file=*/60);
  const auto expected = SequentialReference(*app, K, r, 99);
  for (const ShuffleMode mode :
       {ShuffleMode::kUncoded, ShuffleMode::kCoded}) {
    const CmrResult result = RunCmr(*app, Config(K, r), mode);
    EXPECT_EQ(result.outputs, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CmrModes,
    ::testing::Values(std::pair{3, 1}, std::pair{3, 2}, std::pair{4, 2},
                      std::pair{5, 2}, std::pair{5, 3}, std::pair{6, 4}),
    [](const auto& info) {
      // Appended piecewise: g++ 12's -Wrestrict misfires on the
      // "K" + std::to_string(...) + ... chain in Release builds.
      std::string name = "K";
      name += std::to_string(info.param.first);
      name += 'r';
      name += std::to_string(info.param.second);
      return name;
    });

TEST(Cmr, WordCountTotalsAreConserved) {
  const auto app = MakeWordCountApp(100);
  const CmrResult coded = RunCmr(*app, Config(4, 2), ShuffleMode::kCoded);
  // Sum of all reducer counts must equal total words generated.
  std::uint64_t counted = 0;
  for (const auto& out : coded.outputs) {
    std::istringstream is(out);
    std::string word;
    std::uint64_t n;
    while (is >> word >> n) counted += n;
  }
  std::uint64_t generated = 0;
  const Placement p = Placement::Create(4, 2);
  for (FileId f = 0; f < p.num_files(); ++f) {
    for (const auto& line : app->make_file(f, 99)) {
      std::istringstream is(line);
      std::string w;
      while (is >> w) ++generated;
    }
  }
  EXPECT_EQ(counted, generated);
}

TEST(Cmr, MeasuredLoadsMatchEquation2) {
  // The engine's measured payload loads are the paper's Fig. 2
  // points: uncoded = 1 - r/K, coded = (1/r)(1 - r/K). Grep IVs grow
  // with input size (unlike WordCount tallies, which saturate at the
  // dictionary size), so segment padding noise stays small.
  const int K = 6;
  const auto app = MakeGrepApp("e", /*records_per_file=*/600);
  for (int r = 1; r <= 4; ++r) {
    // Padding overhead grows with r (max of r ragged segments) and
    // shrinks with segment size; at r=4 segments are ~40 lines, so
    // allow a wider band there.
    const double pad_tol = r <= 3 ? 0.12 : 0.18;
    const CmrResult uncoded =
        RunCmr(*app, Config(K, r), ShuffleMode::kUncoded);
    // Unicast payloads carry no padding or headers; the ~1% residue is
    // hash-routing variance (which reducers land inside each holder
    // set). The exact identity under balanced loads is asserted in
    // CodedTeraSort.ShuffleBytesMatchCodedLoadFormula.
    EXPECT_NEAR(uncoded.measured_payload_load(), UncodedLoad(K, r),
                UncodedLoad(K, r) * 0.01)
        << "r=" << r;
    const CmrResult coded = RunCmr(*app, Config(K, r), ShuffleMode::kCoded);
    // Coded payloads additionally pad ragged segments to the longest
    // constituent per packet (paper footnote 3).
    EXPECT_NEAR(coded.measured_payload_load(), CodedLoad(K, r),
                CodedLoad(K, r) * pad_tol + 1e-9)
        << "r=" << r;
    // The measured coding gain approaches r.
    EXPECT_NEAR(uncoded.measured_payload_load() /
                    coded.measured_payload_load(),
                static_cast<double>(r), pad_tol * r)
        << "r=" << r;
  }
}

TEST(Cmr, CodedShuffleUsesOnlyMulticast) {
  const auto app = MakeGrepApp("map", 50);
  const CmrResult coded = RunCmr(*app, Config(5, 2), ShuffleMode::kCoded);
  const auto shuffle = coded.run.traffic.at(stage::kShuffle);
  EXPECT_EQ(shuffle.unicast_msgs, 0u);
  EXPECT_EQ(shuffle.mcast_msgs, Binomial(5, 3) * 3);
  const CmrResult uncoded = RunCmr(*app, Config(5, 2), ShuffleMode::kUncoded);
  EXPECT_EQ(uncoded.run.traffic.at(stage::kShuffle).mcast_msgs, 0u);
}

TEST(Cmr, RedundancyKIsShuffleFree) {
  const auto app = MakeWordCountApp(40);
  const CmrResult result = RunCmr(*app, Config(4, 4), ShuffleMode::kCoded);
  EXPECT_EQ(result.run.traffic.at(stage::kShuffle).transmitted_bytes(), 0u);
  EXPECT_EQ(result.outputs, SequentialReference(*app, 4, 4, 99));
}

TEST(Cmr, GrepFindsOnlyMatchingLines) {
  const auto app = MakeGrepApp("needle", 100);
  const CmrResult result = RunCmr(*app, Config(4, 2), ShuffleMode::kCoded);
  std::size_t lines = 0;
  for (const auto& out : result.outputs) {
    std::istringstream is(out);
    std::string line;
    while (std::getline(is, line)) {
      EXPECT_NE(line.find("needle"), std::string::npos);
      ++lines;
    }
  }
  EXPECT_GT(lines, 0u);  // the dictionary contains "needle"
}

TEST_P(CmrModes, SelfJoinMatchesSequentialReferenceBothModes) {
  const auto [K, r] = GetParam();
  const auto app = MakeSelfJoinApp(/*records_per_file=*/40, /*key_space=*/16);
  const auto expected = SequentialReference(*app, K, r, 99);
  for (const ShuffleMode mode :
       {ShuffleMode::kUncoded, ShuffleMode::kCoded}) {
    const CmrResult result = RunCmr(*app, Config(K, r), mode);
    EXPECT_EQ(result.outputs, expected);
  }
}

TEST_P(CmrModes, InvertedIndexMatchesSequentialReferenceBothModes) {
  const auto [K, r] = GetParam();
  const auto app = MakeInvertedIndexApp(/*records_per_file=*/40);
  const auto expected = SequentialReference(*app, K, r, 99);
  for (const ShuffleMode mode :
       {ShuffleMode::kUncoded, ShuffleMode::kCoded}) {
    const CmrResult result = RunCmr(*app, Config(K, r), mode);
    EXPECT_EQ(result.outputs, expected);
  }
}

TEST(Cmr, SelfJoinPairsShareTheirKey) {
  const auto app = MakeSelfJoinApp(60, 8);
  const CmrResult result = RunCmr(*app, Config(4, 2), ShuffleMode::kCoded);
  std::size_t pairs = 0;
  for (const auto& out : result.outputs) {
    std::istringstream is(out);
    std::string key, a, b;
    while (is >> key >> a >> b) {
      EXPECT_EQ(key[0], 'k');
      EXPECT_EQ(a[0], 'v');
      EXPECT_EQ(b[0], 'v');
      ++pairs;
    }
  }
  // 6 files x 60 records over 8 keys: plenty of collisions.
  EXPECT_GT(pairs, 100u);
}

TEST(Cmr, SelfJoinKeysRouteToOneReducer) {
  const auto app = MakeSelfJoinApp(60, 8);
  const CmrResult result = RunCmr(*app, Config(4, 2), ShuffleMode::kCoded);
  std::map<std::string, std::set<int>> key_reducers;
  for (int q = 0; q < 4; ++q) {
    std::istringstream is(result.outputs[static_cast<std::size_t>(q)]);
    std::string key, a, b;
    while (is >> key >> a >> b) key_reducers[key].insert(q);
  }
  for (const auto& [key, reducers] : key_reducers) {
    EXPECT_EQ(reducers.size(), 1u) << key;
  }
}

TEST(Cmr, InvertedIndexPostingsContainTheWord) {
  const auto app = MakeInvertedIndexApp(80);
  const CmrResult result = RunCmr(*app, Config(4, 2), ShuffleMode::kCoded);
  std::size_t words = 0;
  for (const auto& out : result.outputs) {
    std::istringstream is(out);
    std::string line;
    while (std::getline(is, line)) {
      const auto colon = line.find(':');
      ASSERT_NE(colon, std::string::npos);
      EXPECT_GT(line.size(), colon + 1);  // at least one doc id
      ++words;
    }
  }
  // The generator's dictionary has 18 words; all should appear.
  EXPECT_EQ(words, 18u);
}

// FNV-1a over everything a CMR run reports except wall times: the
// reducer outputs, the per-stage traffic, the shuffle log in
// per-sender order (its global order is arrival order at the
// transport, which threads race for; within one sender it is program
// order), the two load counters, the stage order and each node's
// compute-event stages.
std::uint64_t CmrDigest(const CmrResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  const auto add = [&byte](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  const auto add_name = [&](const std::string& name) {
    add(name.size());
    for (const char ch : name) byte(static_cast<std::uint8_t>(ch));
  };
  const AlgorithmResult& run = result.run;
  add(result.outputs.size());
  for (const std::string& out : result.outputs) add_name(out);
  add(run.traffic.size());
  for (const auto& [stage_name, c] : run.traffic) {
    add_name(stage_name);
    for (const std::uint64_t v :
         {c.unicast_msgs, c.unicast_bytes, c.mcast_msgs, c.mcast_bytes,
          c.mcast_recipient_bytes, c.comm_creations}) {
      add(v);
    }
  }
  simnet::TransmissionLog log = run.shuffle_log;
  std::stable_sort(log.begin(), log.end(),
                   [](const auto& a, const auto& b) { return a.src < b.src; });
  add(log.size());
  for (const simnet::Transmission& t : log) {
    add(static_cast<std::uint64_t>(t.src));
    add(t.dsts.size());
    for (const NodeId d : t.dsts) add(static_cast<std::uint64_t>(d));
    add(t.bytes);
  }
  add(result.total_iv_bytes);
  add(result.shuffled_payload_bytes);
  add(run.stage_order.size());
  for (const std::string& name : run.stage_order) add_name(name);
  add(run.compute_events.size());
  for (const ComputeEvent& ev : run.compute_events) {
    add_name(ev.stage);
    add(static_cast<std::uint64_t>(ev.node));
  }
  return h;
}

// Pins everything the engine reports across shapes, both apps, both
// shuffles and both syncs. Each digest folds Grep then WordCount, each
// under kBarrier then kOverlapped.
TEST(Cmr, GoldenDigestAcrossTheGrid) {
  struct Golden {
    int K;
    int r;
    std::uint64_t uncoded_digest;
    std::uint64_t coded_digest;
  };
  const Golden grid[] = {
      {3, 1, 0x4b3bc8a6f7af607fULL, 0x7f0750a0343fd125ULL},
      {3, 2, 0xaf6e56821cdd8f5fULL, 0xe24c479c2e6c47f5ULL},
      {4, 2, 0x9db4eece2dd6e24dULL, 0x706937ee7921d697ULL},
      {4, 3, 0xd2111121cf3f8a35ULL, 0xaa56ccbdfbdbbde5ULL},
      {4, 4, 0x28350b5fb4139b3bULL, 0xa1d524167726807fULL},
      {5, 2, 0x9c20566751609c11ULL, 0x50e6a3ce00a35ddbULL},
  };
  const auto grep = MakeGrepApp("needle", /*records_per_file=*/30);
  const auto wordcount = MakeWordCountApp(/*records_per_file=*/30);
  for (const Golden& g : grid) {
    for (const ShuffleMode mode :
         {ShuffleMode::kUncoded, ShuffleMode::kCoded}) {
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (const CmrApp* app : {grep.get(), wordcount.get()}) {
        for (const ShuffleSync sync :
             {ShuffleSync::kBarrier, ShuffleSync::kOverlapped}) {
          SortConfig config = Config(g.K, g.r);
          config.shuffle_sync = sync;
          h = (h ^ CmrDigest(RunCmr(*app, config, mode))) * 0x100000001b3ULL;
        }
      }
      const bool coded = mode == ShuffleMode::kCoded;
      EXPECT_EQ(h, coded ? g.coded_digest : g.uncoded_digest)
          << "K = " << g.K << ", r = " << g.r
          << (coded ? " coded" : " uncoded") << " got 0x" << std::hex << h;
    }
  }
}

TEST(Cmr, DeterministicAcrossRuns) {
  const auto app = MakeWordCountApp(50);
  const CmrResult a = RunCmr(*app, Config(4, 2), ShuffleMode::kCoded);
  const CmrResult b = RunCmr(*app, Config(4, 2), ShuffleMode::kCoded);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.total_iv_bytes, b.total_iv_bytes);
  EXPECT_EQ(a.run.traffic.at(stage::kShuffle).transmitted_bytes(),
            b.run.traffic.at(stage::kShuffle).transmitted_bytes());
}

}  // namespace
}  // namespace cts::cmr
