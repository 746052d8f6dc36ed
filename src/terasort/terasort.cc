#include "terasort/terasort.h"

#include <utility>
#include <vector>

#include "coding/placement.h"
#include "common/check.h"
#include "driver/partition_util.h"
#include "keyvalue/recordio.h"
#include "keyvalue/teragen.h"

namespace cts {

namespace {

constexpr simmpi::Tag kTagShuffle = 0;

}  // namespace

void TeraSortNode(simmpi::Comm& comm, RunRecorder& recorder,
                  const SortConfig& config) {
  const int K = config.num_nodes;
  CTS_CHECK_EQ(comm.size(), K);
  const NodeId self = comm.my_global();

  // File placement: the r = 1 degenerate placement puts file k on node
  // k. Computed directly (not via Placement, whose masks cap at
  // kMaxNodes) so plain TeraSort scales to K ~ 100 live nodes.
  const RecordRange my_range =
      SplitRange(config.num_records, static_cast<std::uint64_t>(K),
                 static_cast<std::uint64_t>(self));
  const TeraGen gen(config.seed, config.distribution);

  // kDistributedSampled replaces the coordinator's partition file with
  // Hadoop-style collective sampling (collective on the world comm).
  std::unique_ptr<Partitioner> partitioner;
  if (config.partitioner == PartitionerKind::kDistributedSampled) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> local{
        {my_range.offset, my_range.count}};
    partitioner = std::make_unique<SampledPartitioner>(
        BuildDistributedSampledPartitioner(comm, gen, local,
                                           config.sample_size));
  } else {
    partitioner = MakePartitioner(config);
  }

  StageRunner stages(comm, recorder, &config.injected_delays);
  NodeWork work;

  // Hash outputs: intermediate value I^j_{self} per partition j.
  std::vector<std::vector<Record>> hashed(static_cast<std::size_t>(K));
  // Serialized outgoing values, one per other node.
  std::vector<Buffer> packed(static_cast<std::size_t>(K));
  // Raw shuffle payloads received from other nodes.
  std::vector<Buffer> received(static_cast<std::size_t>(K));

  // ---- Map ----
  stages.run(stage::kMap, [&] {
    const auto records = gen.generate(my_range.offset, my_range.count);
    for (const Record& rec : records) {
      const PartitionId p = partitioner->partition(rec.key);
      hashed[static_cast<std::size_t>(p)].push_back(rec);
    }
    work.map_bytes += records.size() * kRecordBytes;
    work.map_files += 1;
  });

  // ---- Pack ----
  stages.run(stage::kPack, [&] {
    for (int j = 0; j < K; ++j) {
      if (j == self) continue;
      work.pack_bytes += PackRecords(hashed[static_cast<std::size_t>(j)],
                                     packed[static_cast<std::size_t>(j)]);
    }
  });

  // ---- Shuffle ----
  // kBarrier: serial unicast, sender 0 first (paper Fig. 9(a)) — the
  // blocking receives sequence the senders so one transfer occupies
  // the shared medium at a time.
  // kOverlapped: every node posts its K-1 receives, fires all K-1
  // sends nonblocking, then drains — all senders initiate
  // concurrently, which parallel links can overlap.
  stages.run(stage::kShuffle, [&] {
    if (config.shuffle_sync == ShuffleSync::kOverlapped) {
      std::vector<simmpi::Request> recvs;
      recvs.reserve(static_cast<std::size_t>(K) - 1);
      for (int sender = 0; sender < K; ++sender) {
        if (sender == self) continue;
        recvs.push_back(comm.irecv(sender, kTagShuffle));
      }
      for (int j = 0; j < K; ++j) {
        if (j == self) continue;
        (void)comm.isend(j, kTagShuffle, packed[static_cast<std::size_t>(j)]);
      }
      std::size_t i = 0;
      for (int sender = 0; sender < K; ++sender) {
        if (sender == self) continue;
        received[static_cast<std::size_t>(sender)] = comm.wait(recvs[i++]);
      }
      return;
    }
    for (int sender = 0; sender < K; ++sender) {
      if (sender == self) {
        for (int j = 0; j < K; ++j) {
          if (j == self) continue;
          comm.send(j, kTagShuffle, packed[static_cast<std::size_t>(j)]);
        }
      } else {
        received[static_cast<std::size_t>(sender)] =
            comm.recv(sender, kTagShuffle);
      }
    }
  });

  // ---- Unpack ----
  std::vector<Record> pool;
  stages.run(stage::kUnpack, [&] {
    // Size the reduce pool once: the own bucket plus the records of
    // every payload (a u64 count, then the records; received[self]
    // stays empty).
    std::size_t pool_records = hashed[static_cast<std::size_t>(self)].size();
    for (const Buffer& buf : received) {
      if (buf.size() > sizeof(std::uint64_t)) {
        pool_records += (buf.size() - sizeof(std::uint64_t)) / kRecordBytes;
      }
    }
    pool.reserve(pool_records);
    for (int sender = 0; sender < K; ++sender) {
      if (sender == self) continue;
      auto& buf = received[static_cast<std::size_t>(sender)];
      work.unpack_bytes += buf.size();
      UnpackRecordsInto(buf, pool);
      // Shuffle payloads are arena-backed (Comm::deliver); hand the
      // storage back now that the records are unpacked.
      BufferArena::Local().release(buf.take());
    }
  });

  // ---- Reduce ----
  stages.run(stage::kReduce, [&] {
    auto& own = hashed[static_cast<std::size_t>(self)];
    pool.insert(pool.end(), own.begin(), own.end());
    SortRecords(pool);
    work.reduce_bytes += pool.size() * kRecordBytes;
    // Partition-ownership invariant: everything this node reduced must
    // belong to its key range.
    for (const Record& rec : pool) {
      CTS_CHECK_MSG(partitioner->partition(rec.key) == self,
                    "record outside partition " << self);
    }
  });

  recorder.set_partition(self, std::move(pool));
  recorder.set_work(self, work);
}

AlgorithmResult RunTeraSort(const SortConfig& config) {
  simmpi::World world(config.num_nodes);
  RunRecorder recorder(config.num_nodes);
  RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder& rec) {
    TeraSortNode(comm, rec, config);
  });

  AlgorithmResult result;
  result.config = config;
  result.config.redundancy = 1;
  result.algorithm = "TeraSort";
  result.partitions = recorder.take_partitions();
  result.work = recorder.work();
  result.wall_seconds = recorder.wall_max();
  result.stage_order = recorder.stage_order();
  result.compute_events = recorder.compute_events();
  for (const auto& name : world.stats().stage_names()) {
    result.traffic[name] = world.stats().stage(name);
  }
  result.shuffle_node_traffic = world.stats().per_node(stage::kShuffle);
  result.shuffle_log = world.stats().transmission_log(stage::kShuffle);
  result.transport_events = world.transport_log();
  CTS_CHECK_EQ(result.total_output_records(), config.num_records);
  CTS_CHECK_EQ(world.pending_messages(), std::size_t{0});
  return result;
}

}  // namespace cts
