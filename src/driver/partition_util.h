// Partitioner construction shared by both algorithms.
//
// In the paper the coordinator creates the key partitions and ships
// them to the workers. Here the partitioner is a deterministic function
// of the SortConfig, so every node constructs an identical copy with no
// communication.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "driver/run_result.h"
#include "keyvalue/partitioner.h"
#include "keyvalue/teragen.h"

namespace cts {

// Builds the configured partitioner with num_nodes partitions. For
// kSampled, samples `config.sample_size` evenly spaced records of the
// input stream (a deterministic stand-in for the coordinator's random
// input sample).
std::unique_ptr<Partitioner> MakePartitioner(const SortConfig& config);

// A Map's key pass over records [first, first + dest.size()) of `gen`:
// writes record first + i's partition to dest[i] and counts it in
// counts[partition]. Keys come through TeraGen::keys_into in chunks on
// the stack, so the pass allocates nothing.
void PartitionRecords(const TeraGen& gen, const Partitioner& partitioner,
                      std::uint64_t first, std::span<PartitionId> dest,
                      std::span<std::size_t> counts);

}  // namespace cts
