#include "driver/partition_util.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "keyvalue/teragen.h"

namespace cts {

std::unique_ptr<Partitioner> MakePartitioner(const SortConfig& config) {
  CTS_CHECK_GE(config.num_nodes, 1);
  switch (config.partitioner) {
    case PartitionerKind::kRange:
      return std::make_unique<RangePartitioner>(config.num_nodes);
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
