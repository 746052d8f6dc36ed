#include "combinatorics/subsets.h"

#include <numeric>

namespace cts {

std::uint64_t Binomial(int n, int k) {
  std::uint64_t result = 0;
  CTS_CHECK_MSG(BinomialOr(n, k, &result),
                "Binomial overflow at C(" << n << "," << k << ")");
  return result;
}

bool BinomialOr(int n, int k, std::uint64_t* out) {
  CTS_CHECK_GE(n, 0);
  if (k < 0 || k > n) {
    *out = 0;
    return true;
  }
  if (k > n - k) k = n - k;
  std::uint64_t result = 1;
  for (int i = 1; i <= k; ++i) {
    // result * (n - k + i) / i is exact at every step because the
    // product of i consecutive integers is divisible by i!. Cancel the
    // divisor BEFORE multiplying: the raw product result * num can
    // overflow even when C(n, k) itself fits (C(63,31) * 64 > 2^64 >
    // C(64,32)), so reduce num/i by gcd, then the residual divisor
    // against result. Exactness forces the divisor to 1 afterwards, so
    // the checked product equals C(n-k+i, i) and the overflow test has
    // no false positives.
    std::uint64_t num = static_cast<std::uint64_t>(n - k + i);
    std::uint64_t den = static_cast<std::uint64_t>(i);
    std::uint64_t g = std::gcd(num, den);
    num /= g;
    den /= g;
    g = std::gcd(result, den);
    result /= g;
    den /= g;
    CTS_CHECK_EQ(den, std::uint64_t{1});
    if (result > ~std::uint64_t{0} / num) return false;
    result *= num;
  }
  *out = result;
  return true;
}

BinomialTable::BinomialTable(int max_n, int max_k)
    : stride_(static_cast<std::size_t>(max_k) + 1) {
  CTS_CHECK_GE(max_n, 0);
  CTS_CHECK_GE(max_k, 0);
  constexpr std::uint64_t kSaturated = ~std::uint64_t{0};
  table_.assign((static_cast<std::size_t>(max_n) + 1) * stride_, 0);
  for (int c = 0; c <= max_n; ++c) {
    std::uint64_t* row = &table_[static_cast<std::size_t>(c) * stride_];
    row[0] = 1;
    if (c == 0) continue;
    const std::uint64_t* above = row - stride_;
    for (std::size_t j = 1; j < stride_; ++j) {
      // A saturated term saturates the sum: its exact value already
      // exceeds 64 bits and the other term is nonnegative.
      const std::uint64_t a = above[j - 1];
      const std::uint64_t b = above[j];
      row[j] = (a == kSaturated || b > kSaturated - a) ? kSaturated : a + b;
    }
  }
}

std::uint64_t ColexRankMembers(const BinomialTable& C, const int* members,
                               int n) {
  std::uint64_t rank = 0;
  for (int i = 0; i < n; ++i) rank += C(members[i], i + 1);
  return rank;
}

void ColexUnrankMembers(const BinomialTable& C, int K, int n,
                        std::uint64_t rank, int* members) {
  // Largest member first: members[j-1] is the greatest c below the
  // previous member with C(c, j) <= the remaining rank. C(j-1, j) == 0,
  // so the search range [j-1, hi] always holds one.
  std::uint64_t rem = rank;
  int hi = K - 1;
  for (int j = n; j >= 1; --j) {
    int lo = j - 1;
    while (lo < hi) {
      const int mid = lo + (hi - lo + 1) / 2;
      if (C(mid, j) <= rem) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    members[j - 1] = lo;
    rem -= C(lo, j);
    hi = lo - 1;
  }
  CTS_CHECK_EQ(rem, std::uint64_t{0});
}

std::vector<NodeMask> AllSubsets(int K, int r) {
  CTS_CHECK_GE(K, 0);
  CTS_CHECK_LE(K, kMaxNodes);
  CTS_CHECK_GE(r, 0);
  CTS_CHECK_LE(r, K);
  std::vector<NodeMask> out;
  out.reserve(Binomial(K, r));
  if (r == 0) {
    out.push_back(NodeMask{0});
    return out;
  }
  // Key the full-mask case off the mask width, not a literal: with a
  // 64-bit NodeMask, (K >= 32) would wrongly saturate the limit for
  // 32 < K < 64 and enumerate subsets outside the K-node universe.
  const NodeMask limit =
      (K >= kNodeMaskBits) ? ~NodeMask{0} : ((NodeMask{1} << K) - 1);
  for (NodeMask m = FirstSubset(r); m <= limit;
       m = NextSubsetSameSize(m)) {
    out.push_back(m);
    // Gosper's hack overflows toward larger masks; stop once the next
    // mask would exceed the K-node universe (also guards m == limit).
    if (m == limit || NextSubsetSameSize(m) < m) break;
  }
  CTS_CHECK_EQ(out.size(), Binomial(K, r));
  return out;
}

std::uint64_t ColexRank(NodeMask mask) {
  // rank = sum over the i-th smallest member b_i (i = 1..r, ascending)
  // of C(b_i, i).
  std::uint64_t rank = 0;
  int i = 1;
  NodeMask m = mask;
  while (m != 0) {
    const int bit = std::countr_zero(m);
    rank += Binomial(bit, i);
    ++i;
    m &= m - 1;
  }
  return rank;
}

NodeMask ColexUnrank(int K, int r, std::uint64_t rank) {
  CTS_CHECK_LT(rank, Binomial(K, r));
  NodeMask mask = 0;
  std::uint64_t remaining = rank;
  // Choose members from the largest down: the r-th (largest) member is
  // the greatest b with C(b, r) <= remaining.
  int bound = K - 1;
  for (int i = r; i >= 1; --i) {
    int b = bound;
    while (Binomial(b, i) > remaining) --b;
    mask = WithNode(mask, b);
    remaining -= Binomial(b, i);
    bound = b - 1;
  }
  CTS_CHECK_EQ(ColexRank(mask), rank);
  return mask;
}

std::vector<NodeId> MaskToNodes(NodeMask mask) {
  std::vector<NodeId> nodes;
  nodes.reserve(Popcount(mask));
  NodeMask m = mask;
  while (m != 0) {
    nodes.push_back(std::countr_zero(m));
    m &= m - 1;
  }
  return nodes;
}

NodeMask NodesToMask(const std::vector<NodeId>& nodes) {
  NodeMask mask = 0;
  for (NodeId n : nodes) {
    CTS_CHECK_GE(n, 0);
    CTS_CHECK_LT(n, kMaxNodes);
    CTS_CHECK_MSG(!Contains(mask, n), "duplicate node " << n);
    mask = WithNode(mask, n);
  }
  return mask;
}

}  // namespace cts
