// Unit + property tests for src/combinatorics.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "combinatorics/subsets.h"
#include "common/check.h"
#include "common/random.h"

namespace cts {
namespace {

TEST(Binomial, SmallValues) {
  EXPECT_EQ(Binomial(0, 0), 1u);
  EXPECT_EQ(Binomial(4, 2), 6u);
  EXPECT_EQ(Binomial(5, 0), 1u);
  EXPECT_EQ(Binomial(5, 5), 1u);
  EXPECT_EQ(Binomial(5, 6), 0u);
  EXPECT_EQ(Binomial(5, -1), 0u);
}

TEST(Binomial, PaperValues) {
  // Values the paper quotes or implies in Section V.
  EXPECT_EQ(Binomial(16, 3), 560u);   // N files at K=16, r=3
  EXPECT_EQ(Binomial(16, 4), 1820u);  // multicast groups at K=16, r=3
  EXPECT_EQ(Binomial(16, 6), 8008u);  // multicast groups at K=16, r=5
  EXPECT_EQ(Binomial(20, 4), 4845u);  // K=20, r=3
  EXPECT_EQ(Binomial(20, 6), 38760u); // K=20, r=5
  EXPECT_EQ(Binomial(15, 2), 105u);   // files per node at K=16, r=3
}

TEST(Binomial, PascalIdentity) {
  for (int n = 1; n <= 30; ++n) {
    for (int k = 1; k <= n; ++k) {
      EXPECT_EQ(Binomial(n, k), Binomial(n - 1, k - 1) + Binomial(n - 1, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Subsets, FirstSubsetHasLowBits) {
  EXPECT_EQ(FirstSubset(0), 0u);
  EXPECT_EQ(FirstSubset(1), 0b1u);
  EXPECT_EQ(FirstSubset(3), 0b111u);
}

TEST(Subsets, MaskHelpers) {
  NodeMask m = NodesToMask({0, 2, 5});
  EXPECT_TRUE(Contains(m, 0));
  EXPECT_FALSE(Contains(m, 1));
  EXPECT_TRUE(Contains(m, 5));
  EXPECT_EQ(Popcount(m), 3);
  EXPECT_EQ(WithoutNode(m, 2), NodesToMask({0, 5}));
  EXPECT_EQ(WithNode(m, 1), NodesToMask({0, 1, 2, 5}));
  EXPECT_EQ(MaskToNodes(m), (std::vector<NodeId>{0, 2, 5}));
}

TEST(Subsets, NodesToMaskRejectsDuplicates) {
  EXPECT_THROW(NodesToMask({1, 1}), CheckError);
}

TEST(Subsets, AllSubsetsCountsAndOrder) {
  const auto subsets = AllSubsets(5, 2);
  EXPECT_EQ(subsets.size(), 10u);
  EXPECT_TRUE(std::is_sorted(subsets.begin(), subsets.end()));
  for (NodeMask m : subsets) EXPECT_EQ(Popcount(m), 2);
  // Distinctness.
  std::set<NodeMask> unique(subsets.begin(), subsets.end());
  EXPECT_EQ(unique.size(), subsets.size());
}

TEST(Subsets, AllSubsetsEdgeCases) {
  EXPECT_EQ(AllSubsets(4, 0), (std::vector<NodeMask>{0u}));
  EXPECT_EQ(AllSubsets(4, 4), (std::vector<NodeMask>{0b1111u}));
  EXPECT_EQ(AllSubsets(1, 1), (std::vector<NodeMask>{0b1u}));
}

TEST(Subsets, Paper4Choose2Example) {
  // Paper Section IV-A: K=4, r=2 yields files F{1,2}, F{1,3}, F{2,3},
  // F{1,4}, F{2,4}, F{3,4} (0-based here), 6 files total.
  const auto subsets = AllSubsets(4, 2);
  ASSERT_EQ(subsets.size(), 6u);
  EXPECT_EQ(subsets[0], NodesToMask({0, 1}));
  EXPECT_EQ(subsets[1], NodesToMask({0, 2}));
  EXPECT_EQ(subsets[2], NodesToMask({1, 2}));
  EXPECT_EQ(subsets[3], NodesToMask({0, 3}));
  EXPECT_EQ(subsets[4], NodesToMask({1, 3}));
  EXPECT_EQ(subsets[5], NodesToMask({2, 3}));
}

TEST(Subsets, SubsetsContainingNode) {
  const auto with2 = SubsetsContaining(5, 3, 2);
  EXPECT_EQ(with2.size(), Binomial(4, 2));
  for (NodeMask m : with2) {
    EXPECT_TRUE(Contains(m, 2));
    EXPECT_EQ(Popcount(m), 3);
  }
}

// Property: ColexRank and ColexUnrank are inverse bijections over all
// (K, r) pairs in a sweep.
class ColexBijection : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ColexBijection, RankUnrankRoundTrip) {
  const auto [K, r] = GetParam();
  const auto subsets = AllSubsets(K, r);
  for (std::uint64_t rank = 0; rank < subsets.size(); ++rank) {
    EXPECT_EQ(ColexRank(subsets[rank]), rank);
    EXPECT_EQ(ColexUnrank(K, r, rank), subsets[rank]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ColexBijection,
    ::testing::Values(std::pair{4, 2}, std::pair{5, 1}, std::pair{5, 5},
                      std::pair{8, 3}, std::pair{10, 4}, std::pair{12, 2},
                      std::pair{16, 3}, std::pair{16, 5}, std::pair{20, 3},
                      std::pair{13, 6}),
    [](const auto& info) {
      return "K" + std::to_string(info.param.first) + "r" +
             std::to_string(info.param.second);
    });

TEST(Colex, UnrankRejectsOutOfRange) {
  EXPECT_THROW(ColexUnrank(4, 2, 6), CheckError);
}

// Structured-redundancy invariant the placement relies on: every
// r-subset of nodes shares exactly one file, i.e. the subsets are
// distinct and cover all C(K, r) possibilities.
TEST(Subsets, EveryRSubsetAppearsExactlyOnce) {
  const int K = 7, r = 3;
  const auto subsets = AllSubsets(K, r);
  std::set<NodeMask> seen(subsets.begin(), subsets.end());
  EXPECT_EQ(seen.size(), Binomial(K, r));
  // Each node appears in exactly C(K-1, r-1) subsets.
  for (NodeId n = 0; n < K; ++n) {
    std::size_t count = 0;
    for (NodeMask m : subsets) {
      if (Contains(m, n)) ++count;
    }
    EXPECT_EQ(count, Binomial(K - 1, r - 1));
  }
}

TEST(Subsets, GospersHackMatchesNaiveEnumeration) {
  const int K = 10, r = 4;
  std::vector<NodeMask> naive;
  for (NodeMask m = 0; m < (NodeMask{1} << K); ++m) {
    if (Popcount(m) == r) naive.push_back(m);
  }
  EXPECT_EQ(AllSubsets(K, r), naive);
}

TEST(Subsets, FullWidthUniverse) {
  // K = kMaxNodes (64) exercises the shift-overflow guard paths: the
  // limit mask (NodeMask{1} << K) - 1 would be UB at K = 64, so the
  // guard must saturate to ~NodeMask{0} exactly at kNodeMaskBits.
  const auto subsets = AllSubsets(kMaxNodes, kMaxNodes - 1);
  EXPECT_EQ(subsets.size(), static_cast<std::size_t>(kMaxNodes));
  const auto all = AllSubsets(kMaxNodes, kMaxNodes);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0], ~NodeMask{0});
  EXPECT_EQ(FirstSubset(kMaxNodes), ~NodeMask{0});
}

TEST(Subsets, MidWidthUniverseStaysInsideK) {
  // Regression for the stale 32-bit guard: with NodeMask widened to 64
  // bits, a literal (K >= 32) limit check saturated the universe for
  // 32 < K < 64 and enumerated subsets with members >= K.
  for (int K : {33, 40, 63}) {
    const auto subsets = AllSubsets(K, K - 1);
    EXPECT_EQ(subsets.size(), static_cast<std::size_t>(K)) << "K=" << K;
    const NodeMask universe = (NodeMask{1} << K) - 1;
    for (NodeMask m : subsets) {
      EXPECT_EQ(m & ~universe, 0u) << "K=" << K << " mask=" << m;
    }
    EXPECT_EQ(subsets.back(), universe & ~NodeMask{1});
  }
  EXPECT_EQ(AllSubsets(40, 2).size(), Binomial(40, 2));
}

TEST(Colex, RoundTripAtMaskWidthBoundary) {
  // K = 63 and K = 64 with r near K: rank/unrank must survive masks
  // whose top bit is set (the NodeMask{1} << K shift edge).
  for (int K : {63, 64}) {
    for (int r : {1, K - 1, K}) {
      const auto subsets = AllSubsets(K, r);
      // Spot-check first, last and a middle rank (full sweeps at K=63
      // r=1 are cheap; r=K-1 has only K entries).
      for (std::uint64_t rank :
           {std::uint64_t{0}, subsets.size() / 2, subsets.size() - 1}) {
        EXPECT_EQ(ColexRank(subsets[rank]), rank) << "K=" << K << " r=" << r;
        EXPECT_EQ(ColexUnrank(K, r, rank), subsets[rank])
            << "K=" << K << " r=" << r;
      }
    }
  }
  // The full universe at K = 64 is the all-ones mask; its rank is 0.
  EXPECT_EQ(ColexRank(~NodeMask{0}), 0u);
  EXPECT_EQ(ColexUnrank(64, 64, 0), ~NodeMask{0});
}

TEST(Binomial, BinomialOrReportsOverflowWithoutAborting) {
  std::uint64_t out = 12345;
  EXPECT_FALSE(BinomialOr(1000, 8, &out));  // C(1000,8) > 2^64
  EXPECT_EQ(out, 12345u);                   // untouched on overflow
  EXPECT_TRUE(BinomialOr(1000, 3, &out));
  EXPECT_EQ(out, 166167000u);
  EXPECT_TRUE(BinomialOr(64, 32, &out));  // largest C(64, k) fits
  EXPECT_EQ(out, 1832624140942590534u);
  EXPECT_TRUE(BinomialOr(5, 7, &out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(BinomialOr(5, -1, &out));
  EXPECT_EQ(out, 0u);
  EXPECT_THROW(Binomial(1000, 8), CheckError);
}

// The table reproduces BinomialOr entry for entry, saturating exactly
// where BinomialOr reports overflow.
TEST(BinomialTable, MatchesBinomialOrExhaustively) {
  const BinomialTable table(70, 8);
  for (int c = 0; c <= 70; ++c) {
    for (int j = 0; j <= 8; ++j) {
      std::uint64_t exact = 0;
      if (BinomialOr(c, j, &exact)) {
        EXPECT_EQ(table(c, j), exact) << "C(" << c << "," << j << ")";
        EXPECT_NE(table(c, j), ~std::uint64_t{0});
      } else {
        EXPECT_EQ(table(c, j), ~std::uint64_t{0})
            << "C(" << c << "," << j << ") must saturate";
      }
    }
  }
  // Saturation does occur at scale: C(1000, 8) > 2^64.
  const BinomialTable wide(1000, 8);
  EXPECT_EQ(wide(1000, 3), 166167000u);
  EXPECT_EQ(wide(1000, 8), ~std::uint64_t{0});
}

// Member-list rank/unrank agree with the mask-based pair on every
// subset of every universe up to K = 20.
TEST(ColexMembers, AgreesWithMaskRankingUpToK20) {
  const BinomialTable table(20, 20);
  for (int K = 1; K <= 20; ++K) {
    for (int r = 1; r <= K; ++r) {
      std::vector<int> members(static_cast<std::size_t>(r));
      std::vector<int> next(static_cast<std::size_t>(r));
      const auto subsets = AllSubsets(K, r);
      for (std::uint64_t rank = 0; rank < subsets.size(); ++rank) {
        const std::vector<NodeId> nodes = MaskToNodes(subsets[rank]);
        ASSERT_EQ(ColexRankMembers(table, nodes.data(), r), rank)
            << "K=" << K << " r=" << r;
        ColexUnrankMembers(table, K, r, rank, members.data());
        ASSERT_EQ(members, nodes) << "K=" << K << " r=" << r;
        // The successor step walks the same order.
        if (rank > 0) {
          ColexNextMembers(next.data(), r);
        } else {
          next = members;
        }
        ASSERT_EQ(next, nodes) << "K=" << K << " r=" << r;
      }
    }
  }
}

TEST(ColexMembers, RoundTripsAtK1000) {
  const int K = 1000;
  const int r = 3;
  const BinomialTable table(K, r);
  const std::uint64_t count = table(K, r);
  Xoshiro256 rng(12);
  std::vector<int> members(static_cast<std::size_t>(r));
  for (int trial = 0; trial < 10000; ++trial) {
    const std::uint64_t rank = rng() % count;
    ColexUnrankMembers(table, K, r, rank, members.data());
    ASSERT_TRUE(std::is_sorted(members.begin(), members.end()));
    ASSERT_EQ(std::adjacent_find(members.begin(), members.end()),
              members.end());
    ASSERT_GE(members.front(), 0);
    ASSERT_LT(members.back(), K);
    ASSERT_EQ(ColexRankMembers(table, members.data(), r), rank);
  }
  // The extremes: the first and last 3-subsets of {0..999}.
  ColexUnrankMembers(table, K, r, 0, members.data());
  EXPECT_EQ(members, (std::vector<int>{0, 1, 2}));
  ColexUnrankMembers(table, K, r, count - 1, members.data());
  EXPECT_EQ(members, (std::vector<int>{997, 998, 999}));
}

}  // namespace
}  // namespace cts
