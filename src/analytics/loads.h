// Communication-load theory from paper Section II (and [9]).
//
// Loads are normalized by Q*N (number of output functions times number
// of inputs): L is the fraction of all intermediate values that crosses
// the network. For K nodes and computation load (redundancy) r:
//
//   no redundancy (TeraSort):      L = 1 - 1/K
//   uncoded, redundancy r:         L_uncoded(r) = 1 - r/K
//   Coded MapReduce:               L_CMR(r) = (1/r) * (1 - r/K)
//
// L_CMR matches the information-theoretic lower bound, so the r-fold
// gain over uncoded shuffling is optimal (paper eq. (2) and Fig. 2).
#pragma once

#include "common/check.h"

namespace cts {

// Fraction of intermediate values shuffled when each file is mapped on
// r nodes and values are unicast (no coding).
inline double UncodedLoad(int K, int r) {
  CTS_CHECK_GE(r, 1);
  CTS_CHECK_LE(r, K);
  return 1.0 - static_cast<double>(r) / static_cast<double>(K);
}

// Fraction shuffled by Coded MapReduce at computation load r.
inline double CodedLoad(int K, int r) {
  return UncodedLoad(K, r) / static_cast<double>(r);
}

// Load of plain TeraSort (each file mapped once).
inline double TeraSortLoad(int K) { return UncodedLoad(K, 1); }

}  // namespace cts
