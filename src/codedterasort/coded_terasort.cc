#include "codedterasort/coded_terasort.h"

#include <map>
#include <utility>
#include <vector>

#include "coding/codec.h"
#include "coding/placement.h"
#include "common/check.h"
#include "driver/partition_util.h"
#include "keyvalue/recordio.h"
#include "keyvalue/teragen.h"
#include "simmpi/multicast_round.h"

namespace cts {

namespace {

// Key for a node's stored serialized intermediate value I^target_file.
using IvKey = std::pair<NodeId, FileId>;

}  // namespace

void CodedTeraSortNode(simmpi::Comm& comm, RunRecorder& recorder,
                       const SortConfig& config) {
  const int K = config.num_nodes;
  const int r = config.redundancy;
  CTS_CHECK_EQ(comm.size(), K);
  CTS_CHECK_GE(r, 1);
  CTS_CHECK_LE(r, K);
  const NodeId self = comm.my_global();

  const Placement placement = Placement::Create(K, r);
  const auto ranges = placement.SplitRecords(config.num_records);
  const TeraGen gen(config.seed, config.distribution);

  // kDistributedSampled replaces the coordinator's partition file with
  // Hadoop-style collective sampling (collective on the world comm).
  std::unique_ptr<Partitioner> partitioner;
  if (config.partitioner == PartitionerKind::kDistributedSampled) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> local;
    for (const FileId f : placement.files_on_node(self)) {
      const auto fi = static_cast<std::size_t>(f);
      local.emplace_back(ranges.offset[fi], ranges.count[fi]);
    }
    partitioner = std::make_unique<SampledPartitioner>(
        BuildDistributedSampledPartitioner(comm, gen, local,
                                           config.sample_size));
  } else {
    partitioner = MakePartitioner(config);
  }

  StageRunner stages(comm, recorder, &config.injected_delays);
  NodeWork work;

  // ---- CodeGen: one communicator per multicast group ----
  std::map<NodeMask, simmpi::Comm> groups;
  stages.run(stage::kCodeGen, [&] {
    switch (config.codegen_mode) {
      case CodeGenMode::kCommSplit:
        // The paper's approach: one collective split per group.
        for (const NodeMask g : placement.multicast_groups()) {
          auto sub = comm.split(Contains(g, self) ? 0 : -1, /*key=*/self);
          if (sub.has_value()) {
            CTS_CHECK_EQ(sub->size(), r + 1);
            groups.emplace(g, std::move(*sub));
          }
        }
        break;
      case CodeGenMode::kBatched:
        // Scalable-coding extension: all groups in one collective.
        groups = comm.create_groups(placement.multicast_groups());
        break;
    }
    CTS_CHECK_EQ(groups.size(),
                 r < K ? Binomial(K - 1, r) : std::uint64_t{0});
  });

  // ---- Map ----
  // KV pairs of this node's own partition, collected straight into the
  // reduce pool; and the kept intermediate values I^t_S (t not in S)
  // as record lists, serialized during Encode.
  std::vector<Record> pool;
  std::map<IvKey, std::vector<Record>> kept;
  stages.run(stage::kMap, [&] {
    std::vector<std::vector<Record>> hashed(static_cast<std::size_t>(K));
    for (const FileId f : placement.files_on_node(self)) {
      const NodeMask file_mask = placement.file_nodes(f);
      const auto fi = static_cast<std::size_t>(f);
      const auto records = gen.generate(ranges.offset[fi], ranges.count[fi]);
      for (auto& bucket : hashed) bucket.clear();
      for (const Record& rec : records) {
        const PartitionId p = partitioner->partition(rec.key);
        hashed[static_cast<std::size_t>(p)].push_back(rec);
      }
      for (int t = 0; t < K; ++t) {
        auto& bucket = hashed[static_cast<std::size_t>(t)];
        if (t == self) {
          // I^k_S: this node's own partition — straight to Reduce.
          pool.insert(pool.end(), bucket.begin(), bucket.end());
        } else if (!Contains(file_mask, t)) {
          // I^t_S for t outside S: needed for the coded shuffle.
          kept.emplace(IvKey{t, f}, std::move(bucket));
          bucket = {};
        }
        // I^t_S for t in S \ {k}: discarded — node t mapped F_S too
        // (paper Fig. 5).
      }
      work.map_bytes += records.size() * kRecordBytes;
      work.map_files += 1;
    }
  });

  // ---- Encode ----
  // Serialized intermediate values (the Encode stage owns
  // serialization in the paper's implementation), then one coded
  // packet per group this node belongs to.
  std::map<IvKey, std::vector<std::uint8_t>> serialized;
  const IvAccess iv_access =
      [&](NodeId target, NodeMask file_mask) -> std::span<const std::uint8_t> {
    const auto it =
        serialized.find(IvKey{target, placement.file_of(file_mask)});
    CTS_CHECK_MSG(it != serialized.end(),
                  "node " << self << " missing IV for target " << target
                          << " file mask " << file_mask);
    return it->second;
  };
  std::map<NodeMask, Buffer> outgoing;
  stages.run(stage::kEncode, [&] {
    for (auto& [key, records] : kept) {
      Buffer buf;
      PackRecords(records, buf);
      serialized.emplace(key, buf.take());
    }
    kept.clear();  // records now live in serialized form
    for (const auto& [g, group_comm] : groups) {
      const CodedPacket packet =
          EncodePacket(g, self, iv_access, &work.codec);
      Buffer wire;
      packet.serialize(wire);
      outgoing.emplace(g, std::move(wire));
    }
  });

  // ---- Multicast Shuffling ----
  // kBarrier: serial, groups in colex order, members in ascending
  // order within a group (paper Fig. 9(b)). kOverlapped: the whole
  // round's coded packets are posted before any receive drains. Both
  // schedules live in simmpi::MulticastRound.
  std::map<std::pair<NodeMask, NodeId>, Buffer> incoming;
  stages.run(stage::kShuffle, [&] {
    incoming = simmpi::MulticastRound(
        groups, outgoing,
        config.shuffle_sync == ShuffleSync::kOverlapped);
  });

  // ---- Decode ----
  stages.run(stage::kDecode, [&] {
    for (const auto& [g, group_comm] : groups) {
      std::vector<DecodedSegment> segments;
      segments.reserve(static_cast<std::size_t>(r));
      for (const NodeId sender : MaskToNodes(WithoutNode(g, self))) {
        Buffer& wire = incoming.at({g, sender});
        const CodedPacket packet = CodedPacket::deserialize(wire);
        // The wire buffer is arena-backed (Comm::bcast copies through
        // the arena); return the storage now that the packet is
        // deserialized.
        BufferArena::Local().release(wire.take());
        segments.push_back(
            DecodePacket(g, self, sender, packet, iv_access, &work.codec));
      }
      // The r segments reassemble I^self_{g \ {self}}.
      Buffer value_buf(MergeSegments(segments));
      UnpackRecordsInto(value_buf, pool);
    }
  });

  // ---- Reduce ----
  stages.run(stage::kReduce, [&] {
    SortRecords(pool);
    work.reduce_bytes += pool.size() * kRecordBytes;
    for (const Record& rec : pool) {
      CTS_CHECK_MSG(partitioner->partition(rec.key) == self,
                    "record outside partition " << self);
    }
  });

  recorder.set_partition(self, std::move(pool));
  recorder.set_work(self, work);
}

AlgorithmResult RunCodedTeraSort(const SortConfig& config) {
  simmpi::World world(config.num_nodes);
  RunRecorder recorder(config.num_nodes);
  RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder& rec) {
    CodedTeraSortNode(comm, rec, config);
  });

  AlgorithmResult result;
  result.config = config;
  result.algorithm = "CodedTeraSort";
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
