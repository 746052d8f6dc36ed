// CodedTeraSort (paper Section IV).
//
// Six stages, exactly as the paper's C++/Open MPI implementation:
//
//   CodeGen  — every node enumerates the N = C(K, r) file subsets and
//              creates the C(K, r+1) multicast-group communicators
//              (driver/cluster.h's CreateGroups): one collective per
//              group, as the paper's MPI_Comm_split, or under
//              CodeGenMode::kBatched one collective for all.
//   Map      — node k hashes every key of every file F_S with k in S.
//              Of the K intermediate values per file it keeps only
//              I^k_S (its own partition) and {I^i_S : i not in S};
//              records for other members of S are hashed, never
//              generated — those nodes computed them locally (paper
//              Fig. 5). A key-only pass counts every value, then each
//              kept record is generated once, in place, into the list
//              of own records or into its value's exact-size packed
//              buffer (the one IV store Encode and Decode read).
//   Encode   — per multicast group M (|M| = r+1), node k XORs r
//              segments of those packed values straight into the wire
//              buffer of the coded packet E_{M,k} (Algorithm 1;
//              coding/codec.h's EncodeInto).
//   Multicast Shuffling — serial multicast: groups in colex order, and
//              within each group members broadcast in ascending order
//              (paper Fig. 9(b)); each packet is MPI_Bcast to the r
//              other members as one payload they all share.
//   Decode   — node k reads every received packet in place: one
//              header pass parses and checks each group's r packets and
//              sizes the reduce pool once, then the same packets are
//              decoded straight into the pool, their known segments
//              cancelled there (Algorithm 2; DecodeRecordsInto).
//   Reduce   — node k sorts partition P_k locally (SortRecords, an
//              in-place MSD radix sort on the key bytes).
//
// Redundancy r must satisfy 1 <= r <= K. r = K degenerates to "every
// node maps everything" (no groups, empty shuffle); r = 1 degenerates
// to TeraSort's placement but still uses the group machinery (groups
// of size 2, where "coded" packets carry a single segment — i.e. plain
// unicast in multicast clothing).
#pragma once

#include "driver/run_result.h"

namespace cts {

// Executes CodedTeraSort (config.redundancy = r) on a fresh simulated
// cluster, one thread per node, and returns the assembled result
// (validated for record conservation).
AlgorithmResult RunCodedTeraSort(const SortConfig& config);

}  // namespace cts
