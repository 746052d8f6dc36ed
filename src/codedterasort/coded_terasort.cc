#include "codedterasort/coded_terasort.h"

#include <map>
#include <span>
#include <utility>
#include <vector>

#include "coding/codec.h"
#include "coding/placement.h"
#include "common/check.h"
#include "driver/cluster.h"
#include "driver/partition_util.h"
#include "keyvalue/recordio.h"
#include "keyvalue/teragen.h"
#include "simmpi/multicast_round.h"

namespace cts {

namespace {

// Key for a node's packed intermediate value I^target_file.
using IvKey = std::pair<NodeId, FileId>;

// The CodedTeraSort node program (config.redundancy = r).
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
  const std::unique_ptr<Partitioner> partitioner = MakePartitioner(config);

  StageRunner stages(comm, recorder, &config.injected_delays);
  NodeWork work;

  // ---- CodeGen: one communicator per multicast group ----
  std::map<NodeMask, simmpi::Comm> groups;
  stages.run(stage::kCodeGen, [&] {
    groups = CreateGroups(comm, placement.multicast_groups(),
                          config.codegen_mode);
    CTS_CHECK_EQ(groups.size(),
                 r < K ? Binomial(K - 1, r) : std::uint64_t{0});
  });

  // ---- Map ----
  // A key-only pass hashes every record of every stored file F_S to its
  // partition and counts each intermediate value, so each kept I^t_S
  // (t not in S) and the list of own records (every I^self_S, one
  // packed list) are allocated once, at their exact packed size. The
  // second pass generates each kept record once, in place: I^self_S
  // into the own list, I^t_S into its packed value's slot. Records for
  // the other members of S are hashed, never generated — those nodes
  // mapped F_S too (paper Fig. 5). No slot is zeroed first, so every
  // one must be filled.
  Buffer own_list;
  std::map<IvKey, Buffer> ivs;
  stages.run(stage::kMap, [&] {
    const std::vector<FileId>& files = placement.files_on_node(self);
    const auto k = static_cast<std::size_t>(K);
    const auto me = static_cast<std::size_t>(self);
    std::size_t n = 0;
    for (const FileId f : files) n += ranges.count[static_cast<std::size_t>(f)];
    std::vector<PartitionId> dest(n);
    std::vector<std::size_t> counts(files.size() * k, 0);
    std::size_t at = 0;
    for (std::size_t i = 0; i < files.size(); ++i) {
      const auto fi = static_cast<std::size_t>(files[i]);
      PartitionRecords(gen, *partitioner, ranges.offset[fi],
                       std::span(dest).subspan(at, ranges.count[fi]),
                       std::span(counts).subspan(i * k, k));
      at += ranges.count[fi];
    }
    std::size_t own = 0;
    for (std::size_t i = 0; i < files.size(); ++i) own += counts[i * k + me];
    // slot[t] is the next record to write for partition t, null where
    // t is in S \ {self}; slot[self] runs through the own list.
    std::vector<std::uint8_t*> slot(k);
    std::vector<std::uint8_t*> slot_end(k);
    const auto open = [&](std::size_t t, std::span<std::uint8_t> slots) {
      slot[t] = slots.data();
      slot_end[t] = slots.data() + slots.size();
    };
    open(me, AppendPackedSlots(own_list, own));
    const PartitionId* next = dest.data();
    for (std::size_t i = 0; i < files.size(); ++i) {
      const FileId f = files[i];
      const NodeMask file_mask = placement.file_nodes(f);
      for (int t = 0; t < K; ++t) {
        const auto tt = static_cast<std::size_t>(t);
        if (t == self) continue;
        if (Contains(file_mask, t)) {
          open(tt, {});
        } else {
          open(tt, AppendPackedSlots(ivs[IvKey{t, f}], counts[i * k + tt]));
        }
      }
      const auto fi = static_cast<std::size_t>(f);
      for (std::uint64_t j = 0; j < ranges.count[fi]; ++j) {
        std::uint8_t*& out = slot[static_cast<std::size_t>(*next++)];
        if (out == nullptr) continue;  // in S \ {self}: never generated
        gen.record_into(ranges.offset[fi] + j, out);
        out += kRecordBytes;
      }
      for (std::size_t t = 0; t < k; ++t) {
        CTS_CHECK_MSG(t == me || slot[t] == slot_end[t],
                      "node " << self << " left slots of I^" << t << "_" << f
                              << " unfilled");
      }
      work.map_bytes += ranges.count[fi] * kRecordBytes;
      work.map_files += 1;
    }
    CTS_CHECK_MSG(slot[me] == slot_end[me],
                  "node " << self << " left own-list slots unfilled");
  });

  // ---- Encode ----
  // One coded packet per group this node belongs to, XORed straight
  // into its wire buffer from the packed values Map wrote.
  const IvAccess iv_access =
      [&](NodeId target, NodeMask file_mask) -> std::span<const std::uint8_t> {
    const auto it = ivs.find(IvKey{target, placement.file_of(file_mask)});
    CTS_CHECK_MSG(it != ivs.end(),
                  "node " << self << " missing IV for target " << target
                          << " file mask " << file_mask);
    return it->second.span();
  };
  std::map<NodeMask, Buffer> outgoing;
  stages.run(stage::kEncode, [&] {
    for (const auto& [g, group_comm] : groups) {
      EncodeInto(g, self, iv_access, outgoing[g], &work.codec);
    }
  });

  // ---- Multicast Shuffling ----
  // kBarrier: serial, groups in colex order, members in ascending
  // order within a group (paper Fig. 9(b)). kOverlapped: the whole
  // round's coded packets are posted before any receive drains. Both
  // schedules live in simmpi::MulticastRound. Each packet is one
  // payload that the root and its r recipients share.
  std::map<std::pair<NodeMask, NodeId>, Buffer> incoming;
  stages.run(stage::kShuffle, [&] {
    incoming = simmpi::MulticastRound(
        groups, outgoing,
        config.shuffle_sync == ShuffleSync::kOverlapped);
    outgoing.clear();  // the recipients hold what they still need
  });

  // ---- Decode ----
  // One header pass parses every group's r packets in place, checks
  // them and reads the wanted record count, so the reduce pool,
  // partition P_self, is allocated once at its final size. The own
  // records are copied in, and then each group's packets, kept from
  // the header pass, decode straight into the pool's records.
  std::vector<Record> pool;
  stages.run(stage::kDecode, [&] {
    const auto rr = static_cast<std::size_t>(r);
    std::vector<PacketView> packets;  // r per group, in `groups` order
    std::vector<std::size_t> group_records;
    packets.reserve(groups.size() * rr);
    group_records.reserve(groups.size());
    std::size_t records = MaxPackedRecords(own_list.size());
    for (const auto& [g, group_comm] : groups) {
      for (const NodeId sender : MaskToNodes(WithoutNode(g, self))) {
        packets.push_back(ParsePacket(incoming.at({g, sender}).span()));
      }
      group_records.push_back(GroupRecordCount(
          g, self, std::span(packets).last(rr)));
      records += group_records.back();
    }
    pool.reserve(records);
    UnpackRecordsInto(own_list, pool);
    own_list = Buffer();
    std::size_t at = pool.size();
    pool.resize(records);
    std::size_t i = 0;
    for (const auto& [g, group_comm] : groups) {
      const std::size_t n = group_records[i];
      DecodeRecordsInto(g, self, std::span(packets).subspan(i * rr, rr),
                        iv_access, std::span(pool).subspan(at, n),
                        &work.codec);
      at += n;
      ++i;
    }
    incoming.clear();
  });

  ReduceStage(stages, recorder, self, *partitioner, std::move(pool), work);
}

}  // namespace

AlgorithmResult RunCodedTeraSort(const SortConfig& config) {
  simmpi::World world(config.num_nodes);
  RunRecorder recorder(config.num_nodes);
  RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder& rec) {
    CodedTeraSortNode(comm, rec, config);
  });

  return CollectSortResult(config, "CodedTeraSort", world, recorder);
}

}  // namespace cts
