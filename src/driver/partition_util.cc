#include "driver/partition_util.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "keyvalue/teragen.h"

namespace cts {

SampledPartitioner BuildDistributedSampledPartitioner(
    simmpi::Comm& comm, const TeraGen& gen,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& local_ranges,
    std::uint64_t samples) {
  // Sample evenly across this node's local records.
  std::uint64_t local_records = 0;
  for (const auto& [offset, count] : local_ranges) local_records += count;
  Buffer mine;
  if (local_records > 0) {
    const std::uint64_t n = std::min(samples, local_records);
    const std::uint64_t stride = std::max<std::uint64_t>(
        local_records / std::max<std::uint64_t>(n, 1), 1);
    std::uint64_t picked = 0;
    std::uint64_t position = 0;  // index within the local concatenation
    for (const auto& [offset, count] : local_ranges) {
      for (std::uint64_t i = 0; i < count && picked < n; ++i, ++position) {
        if (position % stride == 0) {
          const Key key = gen.key(offset + i);
          mine.write_bytes(std::span<const std::uint8_t>(key));
          ++picked;
        }
      }
    }
  }
  // Combine all nodes' samples; every node sees the same multiset in
  // the same (rank) order, hence derives identical splitters.
  std::vector<Key> combined;
  for (Buffer& b : comm.allgather(mine)) {
    while (b.remaining() >= kKeyBytes) {
      Key key{};
      b.read_bytes(std::span<std::uint8_t>(key));
      combined.push_back(key);
    }
  }
  CTS_CHECK_MSG(!combined.empty() || comm.size() == 1,
                "distributed sample is empty");
  return SampledPartitioner::FromSample(combined, comm.size());
}

std::unique_ptr<Partitioner> MakePartitioner(const SortConfig& config) {
  CTS_CHECK_GE(config.num_nodes, 1);
  switch (config.partitioner) {
    case PartitionerKind::kRange:
      return std::make_unique<RangePartitioner>(config.num_nodes);
    case PartitionerKind::kDistributedSampled:
      CTS_CHECK_MSG(false,
                    "kDistributedSampled requires a communicator — node "
                    "programs build it via "
                    "BuildDistributedSampledPartitioner");
      return nullptr;
    case PartitionerKind::kSampled: {
      const TeraGen gen(config.seed, config.distribution);
      const std::uint64_t n =
          std::min(config.sample_size,
                   std::max<std::uint64_t>(config.num_records, 1));
      const std::uint64_t stride =
          std::max<std::uint64_t>(config.num_records / std::max<std::uint64_t>(n, 1), 1);
      std::vector<Key> sample;
      sample.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t index =
            std::min(i * stride, config.num_records > 0
                                     ? config.num_records - 1
                                     : 0);
        sample.push_back(gen.key(index));
      }
      return std::make_unique<SampledPartitioner>(
          SampledPartitioner::FromSample(sample, config.num_nodes));
    }
  }
  CTS_CHECK_MSG(false, "unknown partitioner kind");
  return nullptr;
}

}  // namespace cts
