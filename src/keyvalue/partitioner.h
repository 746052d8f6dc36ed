// Key-domain partitioning.
//
// Both algorithms split the key domain P into K ordered partitions
// P_1 < P_2 < ... < P_K; node k reduces (sorts) partition k. Two
// partitioners are provided:
//
//  * RangePartitioner — splits the 2^64-prefix key space into K equal
//    ranges analytically. Exactly balanced for the uniform TeraGen
//    workload (the paper's setting).
//  * SampledPartitioner — Hadoop TotalOrderPartitioner-style: picks
//    K-1 splitter keys from a sample so that arbitrary (skewed)
//    distributions still yield balanced reducers.
//
// Partition lookup must be identical on every node, so partitioners are
// value types that every node builds from the same configuration
// (driver/partition_util.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "keyvalue/record.h"

namespace cts {

// Interface: maps a key to the partition (== reducer node) owning it.
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  virtual PartitionId partition(const Key& key) const = 0;
  virtual int num_partitions() const = 0;
};

// Equal 2^64-prefix ranges: partition(key) = floor(prefix(key) * K / 2^64).
class RangePartitioner final : public Partitioner {
 public:
  explicit RangePartitioner(int num_partitions);

  PartitionId partition(const Key& key) const override;
  int num_partitions() const override { return k_; }

  // Smallest key prefix belonging to partition p (inclusive lower
  // boundary); boundary(0) == 0.
  std::uint64_t boundary(PartitionId p) const;

 private:
  int k_;
};

// Splitter-based partitioner: partition p owns keys in
// [splitter[p-1], splitter[p]) with sentinel ends.
class SampledPartitioner final : public Partitioner {
 public:
  // Builds from explicit splitters (must be strictly... weakly
  // ascending; K = splitters.size() + 1).
  explicit SampledPartitioner(std::vector<Key> splitters);

  // Builds K-partition splitters from a sample of keys by taking
  // evenly spaced order statistics (the sample is copied and sorted).
  static SampledPartitioner FromSample(std::span<const Key> sample,
                                       int num_partitions);

  PartitionId partition(const Key& key) const override;
  int num_partitions() const override {
    return static_cast<int>(splitters_.size()) + 1;
  }

  const std::vector<Key>& splitters() const { return splitters_; }

 private:
  std::vector<Key> splitters_;
};

}  // namespace cts
