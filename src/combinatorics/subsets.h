// Node-subset combinatorics.
//
// CodedTeraSort identifies an input file with an r-subset S of the K
// nodes (the file F_S is placed on every node in S), and a multicast
// group with an (r+1)-subset M. This module represents subsets as
// NodeMask node bitmasks (kNodeMaskBits wide) and provides:
//   * binomial coefficients C(n, k),
//   * enumeration of all size-r subsets in colexicographic order
//     (Gosper's hack), which doubles as a dense FileId <-> subset
//     bijection via colex (un)ranking,
//   * mask <-> node-list conversions,
//   * a precomputed BinomialTable and mask-free colex (un)ranking of
//     ascending member lists, for K past the mask width.
//
// Colex order of masks coincides with ascending numeric order of the
// masks themselves, so FileId assignment is stable and independent of
// how a subset was produced.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace cts {

// C(n, k) as exact 64-bit arithmetic. Valid for the ranges the coded
// engines use (results < 2^64); CTS_CHECK-aborts on overflow. Planner
// arithmetic at K ~ 1000 must use BinomialOr instead.
std::uint64_t Binomial(int n, int k);

// Non-aborting Binomial: writes C(n, k) to *out and returns true, or
// returns false (leaving *out untouched) when the value would
// overflow 64 bits — e.g. C(1000, 8). Scale backends turn that into a
// structured error instead of a process abort.
bool BinomialOr(int n, int k, std::uint64_t* out);

// C(c, j) for every 0 <= c <= max_n and 0 <= j <= max_k, built once by
// Pascal's rule so hot loops read binomials instead of recomputing
// them. An entry whose exact value overflows 64 bits saturates to
// UINT64_MAX — larger than any rank that fits — exactly where
// BinomialOr returns false.
class BinomialTable {
 public:
  BinomialTable(int max_n, int max_k);

  // Precondition: 0 <= c <= max_n, 0 <= j <= max_k.
  std::uint64_t operator()(int c, int j) const {
    return table_[static_cast<std::size_t>(c) * stride_ +
                  static_cast<std::size_t>(j)];
  }

 private:
  std::size_t stride_;  // max_k + 1
  std::vector<std::uint64_t> table_;
};

// Member-list twins of ColexRank/ColexUnrank: no NodeMask, so K is not
// capped at kNodeMaskBits. `members` holds n ascending node ids; the
// table must cover every member (max_n) and n (max_k).
//
// Colex rank: sum of C(members[i], i+1). Precondition: the rank fits
// in 64 bits (true whenever C(K, n) does).
std::uint64_t ColexRankMembers(const BinomialTable& C, const int* members,
                               int n);

// Writes the ascending members of the rank-th n-subset of {0..K-1}.
// Precondition: rank < C(K, n); the table covers C(K - 1, n).
void ColexUnrankMembers(const BinomialTable& C, int K, int n,
                        std::uint64_t rank, int* members);

// Advances `members` to the next n-subset in colex order (rank + 1).
// Precondition: n >= 1 and members is not the last n-subset of its
// universe.
inline void ColexNextMembers(int* members, int n) {
  int i = 0;
  while (i + 1 < n && members[i] + 1 == members[i + 1]) {
    members[i] = i;
    ++i;
  }
  ++members[i];
}

// Smallest mask with r bits set: {0, 1, ..., r-1}.
inline NodeMask FirstSubset(int r) {
  return r == 0 ? NodeMask{0}
                : (r >= kNodeMaskBits ? ~NodeMask{0}
                                      : ((NodeMask{1} << r) - 1));
}

// Gosper's hack: the next mask with the same popcount, in ascending
// numeric (= colex) order. Precondition: mask != 0.
inline NodeMask NextSubsetSameSize(NodeMask mask) {
  // Lowest set bit via unsigned wraparound (no signed cast, which
  // would be UB-adjacent at the top bit after the 64-bit widening).
  const NodeMask c = mask & (NodeMask{0} - mask);
  const NodeMask rr = mask + c;
  return (((rr ^ mask) >> 2) / c) | rr;
}

inline int Popcount(NodeMask mask) { return std::popcount(mask); }

inline bool Contains(NodeMask mask, NodeId node) {
  return (mask >> node) & NodeMask{1};
}

inline NodeMask WithNode(NodeMask mask, NodeId node) {
  return mask | (NodeMask{1} << node);
}

inline NodeMask WithoutNode(NodeMask mask, NodeId node) {
  return mask & ~(NodeMask{1} << node);
}

// All size-r subsets of {0..K-1} in colex order. Size = C(K, r).
std::vector<NodeMask> AllSubsets(int K, int r);

// All size-r subsets of {0..K-1} that contain `node`, in colex order.
// Size = C(K-1, r-1).
std::vector<NodeMask> SubsetsContaining(int K, int r, NodeId node);

// Colex rank of `mask` among all masks of equal popcount: the number of
// same-size masks that are numerically smaller. Inverse of ColexUnrank.
std::uint64_t ColexRank(NodeMask mask);

// The rank-th (0-based) size-r subset of {0..K-1} in colex order.
NodeMask ColexUnrank(int K, int r, std::uint64_t rank);

// Ascending list of member nodes of `mask`.
std::vector<NodeId> MaskToNodes(NodeMask mask);

// Mask from a list of distinct node ids (order-insensitive).
NodeMask NodesToMask(const std::vector<NodeId>& nodes);

}  // namespace cts
