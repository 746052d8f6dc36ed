// Baseline TeraSort (paper Section III).
//
// Five stages, exactly as the paper's C++/Open MPI implementation:
//
//   Map     — node k hashes every KV pair of its single input file
//             F_{k} into the K key-domain partitions.
//   Pack    — each intermediate value I^j_{k} (j != k) is serialized
//             into one contiguous array so a single flow carries it.
//   Shuffle — serial unicast: node 0 sends its K-1 intermediate values
//             back-to-back, then node 1, ... (paper Fig. 9(a)).
//   Unpack  — received arrays are deserialized into KV lists.
//   Reduce  — node k sorts partition P_k locally (SortRecords, an
//             in-place MSD radix sort on the key bytes).
//
// Each record is written once on its way out: Map hashes the keys
// first, sizes every intermediate value exactly, and then generates
// each record in place (TeraGen::record_into) into its packed slot
// (AppendPackedSlots, which does not zero the slots it hands out, so
// Map checks that it filled every one) or, for partition P_k, into the
// reduce pool. Pack therefore only counts the packed bytes, and
// Shuffle hands each packed buffer to the transport instead of copying
// it (Comm::send / isend on a Buffer&&).
//
// The input file of node k is generated in place from the deterministic
// TeraGen stream (the paper's coordinator pre-places files on workers'
// local disks; generation stands in for local-disk load).
#pragma once

#include "driver/run_result.h"

namespace cts {

// Executes TeraSort on a fresh simulated cluster, one thread per node,
// and returns the assembled result (validated for record conservation).
AlgorithmResult RunTeraSort(const SortConfig& config);

}  // namespace cts
