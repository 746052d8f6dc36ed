#include "keyvalue/partitioner.h"

#include <algorithm>

#include "common/check.h"

namespace cts {

RangePartitioner::RangePartitioner(int num_partitions) : k_(num_partitions) {
  CTS_CHECK_GE(k_, 1);
}

PartitionId RangePartitioner::partition(const Key& key) const {
  // floor(prefix * K / 2^64) via 128-bit multiply: monotone in the key
  // and exactly covers [0, K).
  const unsigned __int128 wide =
      static_cast<unsigned __int128>(KeyPrefix(key)) *
      static_cast<unsigned __int128>(k_);
  return static_cast<PartitionId>(wide >> 64);
}

std::uint64_t RangePartitioner::boundary(PartitionId p) const {
  CTS_CHECK_GE(p, 0);
  CTS_CHECK_LT(p, k_);
  // Smallest x with floor(x * K / 2^64) == p, i.e. ceil(p * 2^64 / K).
  const unsigned __int128 numer =
      static_cast<unsigned __int128>(p) << 64;
  const auto k = static_cast<unsigned __int128>(k_);
  return static_cast<std::uint64_t>((numer + k - 1) / k);
}

SampledPartitioner::SampledPartitioner(std::vector<Key> splitters)
    : splitters_(std::move(splitters)) {
  for (std::size_t i = 1; i < splitters_.size(); ++i) {
    CTS_CHECK_MSG(CompareKeys(splitters_[i - 1], splitters_[i]) <= 0,
                  "splitters must be ascending");
  }
}

SampledPartitioner SampledPartitioner::FromSample(
    std::span<const Key> sample, int num_partitions) {
  CTS_CHECK_GE(num_partitions, 1);
  CTS_CHECK_MSG(!sample.empty() || num_partitions == 1,
                "cannot derive splitters from an empty sample");
  std::vector<Key> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end(), KeyLess);
  std::vector<Key> splitters;
  splitters.reserve(static_cast<std::size_t>(num_partitions) - 1);
  for (int p = 1; p < num_partitions; ++p) {
    // Evenly spaced order statistics, as Hadoop's input sampler does.
    const std::size_t idx =
        (sorted.size() * static_cast<std::size_t>(p)) /
        static_cast<std::size_t>(num_partitions);
    splitters.push_back(sorted[std::min(idx, sorted.size() - 1)]);
  }
  return SampledPartitioner(std::move(splitters));
}

PartitionId SampledPartitioner::partition(const Key& key) const {
  // Partition p owns [splitter[p-1], splitter[p]): the first splitter
  // strictly greater than `key` identifies the partition.
  const auto it = std::upper_bound(splitters_.begin(), splitters_.end(),
                                   key, KeyLess);
  return static_cast<PartitionId>(it - splitters_.begin());
}

}  // namespace cts
