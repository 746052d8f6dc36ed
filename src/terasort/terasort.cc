#include "terasort/terasort.h"

#include <span>
#include <utility>
#include <vector>

#include "coding/placement.h"
#include "common/check.h"
#include "driver/cluster.h"
#include "driver/partition_util.h"
#include "keyvalue/recordio.h"
#include "keyvalue/teragen.h"

namespace cts {

namespace {

constexpr simmpi::Tag kTagShuffle = 0;

// The TeraSort node program. Runs inside a cluster node thread; fills
// `recorder` with this node's partition, work counters and stage walls.
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
  const std::unique_ptr<Partitioner> partitioner = MakePartitioner(config);

  StageRunner stages(comm, recorder, &config.injected_delays);
  NodeWork work;

  // Intermediate values I^j_{self} in wire form, one packed list per
  // other node j (Map writes them; Shuffle hands them over).
  std::vector<Buffer> packed(static_cast<std::size_t>(K));
  // Partition P_self: this node's own records, then every received one.
  std::vector<Record> pool;
  // Raw shuffle payloads received from other nodes.
  std::vector<Buffer> received(static_cast<std::size_t>(K));

  // ---- Map ----
  // A key-only pass hashes every record to its partition and counts
  // each intermediate value, so every packed list is allocated once at
  // its exact size. The second pass generates each record once, in
  // place: the own partition into the reduce pool, the rest straight
  // into the unzeroed slots of the buffer that leaves the node, every
  // one of which must then be filled.
  stages.run(stage::kMap, [&] {
    const auto n = static_cast<std::size_t>(my_range.count);
    std::vector<PartitionId> dest(n);
    std::vector<std::size_t> counts(static_cast<std::size_t>(K), 0);
    for (std::size_t i = 0; i < n; ++i) {
      dest[i] = partitioner->partition(gen.key(my_range.offset + i));
      ++counts[static_cast<std::size_t>(dest[i])];
    }
    std::vector<std::uint8_t*> slot(static_cast<std::size_t>(K), nullptr);
    std::vector<std::uint8_t*> slot_end(static_cast<std::size_t>(K), nullptr);
    for (int j = 0; j < K; ++j) {
      if (j == self) continue;
      const auto jj = static_cast<std::size_t>(j);
      const std::span<std::uint8_t> slots =
          AppendPackedSlots(packed[jj], counts[jj]);
      slot[jj] = slots.data();
      slot_end[jj] = slots.data() + slots.size();
    }
    pool.reserve(counts[static_cast<std::size_t>(self)]);
    for (std::size_t i = 0; i < n; ++i) {
      if (dest[i] == self) {
        pool.push_back(gen.record(my_range.offset + i));
        continue;
      }
      std::uint8_t*& out = slot[static_cast<std::size_t>(dest[i])];
      gen.record_into(my_range.offset + i, out);
      out += kRecordBytes;
    }
    CTS_CHECK_MSG(slot == slot_end,
                  "node " << self << " left packed slots unfilled");
    work.map_bytes += n * kRecordBytes;
    work.map_files += 1;
  });

  // ---- Pack ----
  // Map already wrote every intermediate value in packed form; the
  // stage keeps its place in the paper's breakdown and counts the
  // packed bytes.
  stages.run(stage::kPack, [&] {
    for (int j = 0; j < K; ++j) {
      if (j == self) continue;
      work.pack_bytes += packed[static_cast<std::size_t>(j)].size();
    }
  });

  // ---- Shuffle ----
  // kBarrier: serial unicast, sender 0 first (paper Fig. 9(a)) — the
  // blocking receives sequence the senders so one transfer occupies
  // the shared medium at a time.
  // kOverlapped: every node posts its K-1 receives, fires all K-1
  // sends nonblocking, then drains — all senders initiate
  // concurrently, which parallel links can overlap.
  // Either way each packed list is handed to the transport, not copied.
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
        (void)comm.isend(j, kTagShuffle,
                         std::move(packed[static_cast<std::size_t>(j)]));
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
          comm.send(j, kTagShuffle,
                    std::move(packed[static_cast<std::size_t>(j)]));
        }
      } else {
        received[static_cast<std::size_t>(sender)] =
            comm.recv(sender, kTagShuffle);
      }
    }
  });

  // ---- Unpack ----
  stages.run(stage::kUnpack, [&] {
    // Size the reduce pool once for everything it will hold: the own
    // partition plus the records of every payload (received[self]
    // stays empty).
    std::size_t pool_records = pool.size();
    for (const Buffer& buf : received) {
      pool_records += MaxPackedRecords(buf.size());
    }
    pool.reserve(pool_records);
    for (int sender = 0; sender < K; ++sender) {
      if (sender == self) continue;
      auto& buf = received[static_cast<std::size_t>(sender)];
      work.unpack_bytes += buf.size();
      UnpackRecordsInto(buf, pool);
      buf = Buffer();  // the payload is unpacked: free it now
    }
  });

  ReduceStage(stages, recorder, self, *partitioner, std::move(pool), work);
}

}  // namespace

AlgorithmResult RunTeraSort(const SortConfig& config) {
  simmpi::World world(config.num_nodes);
  RunRecorder recorder(config.num_nodes);
  RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder& rec) {
    TeraSortNode(comm, rec, config);
  });

  AlgorithmResult result =
      CollectSortResult(config, "TeraSort", world, recorder);
  result.config.redundancy = 1;
  return result;
}

}  // namespace cts
