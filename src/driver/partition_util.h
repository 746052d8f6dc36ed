// Partitioner construction shared by both algorithms.
//
// In the paper the coordinator creates the key partitions and ships
// them to the workers. Here the partitioner is a deterministic function
// of the SortConfig, so every node constructs an identical copy with no
// communication.
#pragma once

#include <memory>

#include "driver/run_result.h"
#include "keyvalue/partitioner.h"

namespace cts {

// Builds the configured partitioner with num_nodes partitions. For
// kSampled, samples `config.sample_size` evenly spaced records of the
// input stream (a deterministic stand-in for the coordinator's random
// input sample).
std::unique_ptr<Partitioner> MakePartitioner(const SortConfig& config);

}  // namespace cts
