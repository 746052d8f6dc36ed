// Tests for src/coding: placement, segmentation and the XOR codec,
// including the paper's worked examples (Figs. 4-7).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <numeric>
#include <optional>
#include <set>

#include "coding/codec.h"
#include "coding/placement.h"
#include "coding/segments.h"
#include "common/check.h"
#include "common/random.h"
#include "keyvalue/recordio.h"

namespace cts {
namespace {

// Heap allocations made by this process, counted by the replacement
// operator new at the end of this file, so a test can assert a call
// allocates nothing.
std::atomic<std::size_t> g_heap_allocations{0};

TEST(Placement, PaperFig4Example) {
  // K=4, r=2 (paper Fig. 4): 6 files; F{2,3} on nodes 2 and 3 (1-based)
  // = mask {1,2} here; each node stores C(3,1)=3 files.
  const Placement p = Placement::Create(4, 2);
  EXPECT_EQ(p.num_files(), 6);
  EXPECT_EQ(p.files_per_node(), 3);
  const FileId f23 = p.file_of(NodesToMask({1, 2}));
  EXPECT_EQ(p.file_nodes(f23), NodesToMask({1, 2}));
  // Node 2 (1-based) = node 1 here has files {0,1},{1,2},{1,3}.
  std::set<NodeMask> node1_files;
  for (const FileId f : p.files_on_node(1)) {
    node1_files.insert(p.file_nodes(f));
  }
  EXPECT_EQ(node1_files,
            (std::set<NodeMask>{NodesToMask({0, 1}), NodesToMask({1, 2}),
                                NodesToMask({1, 3})}));
}

TEST(Placement, CountsMatchBinomials) {
  for (int K : {4, 6, 10}) {
    for (int r = 1; r <= K; ++r) {
      const Placement p = Placement::Create(K, r);
      EXPECT_EQ(p.num_files(), static_cast<int>(Binomial(K, r)));
      EXPECT_EQ(p.files_per_node(), static_cast<int>(Binomial(K - 1, r - 1)));
      for (NodeId n = 0; n < K; ++n) {
        EXPECT_EQ(p.files_on_node(n).size(), Binomial(K - 1, r - 1));
      }
      if (r < K) {
        EXPECT_EQ(p.multicast_groups().size(), Binomial(K, r + 1));
      } else {
        EXPECT_TRUE(p.multicast_groups().empty());
      }
    }
  }
}

TEST(Placement, EveryFileOnExactlyRNodes) {
  const Placement p = Placement::Create(6, 3);
  for (FileId f = 0; f < p.num_files(); ++f) {
    EXPECT_EQ(Popcount(p.file_nodes(f)), 3);
  }
}

TEST(Placement, FileOfIsInverseOfFileNodes) {
  const Placement p = Placement::Create(7, 2);
  for (FileId f = 0; f < p.num_files(); ++f) {
    EXPECT_EQ(p.file_of(p.file_nodes(f)), f);
  }
  EXPECT_THROW(p.file_of(NodesToMask({0, 1, 2})), CheckError);  // wrong size
}

TEST(Placement, GroupsOfNodeCount) {
  const Placement p = Placement::Create(8, 3);
  for (NodeId n = 0; n < 8; ++n) {
    const auto groups = p.groups_of_node(n);
    EXPECT_EQ(groups.size(), Binomial(7, 3));
    for (const NodeMask g : groups) {
      EXPECT_TRUE(Contains(g, n));
      EXPECT_EQ(Popcount(g), 4);
    }
  }
}

TEST(Placement, SplitRecordsIsEvenAndExact) {
  const Placement p = Placement::Create(5, 2);  // 10 files
  const auto ranges = p.SplitRecords(1003);
  std::uint64_t total = 0;
  std::uint64_t next_offset = 0;
  for (std::size_t f = 0; f < ranges.count.size(); ++f) {
    EXPECT_EQ(ranges.offset[f], next_offset);
    EXPECT_GE(ranges.count[f], 100u);
    EXPECT_LE(ranges.count[f], 101u);
    next_offset += ranges.count[f];
    total += ranges.count[f];
  }
  EXPECT_EQ(total, 1003u);
}

TEST(Placement, SplitRecordsFewerRecordsThanFiles) {
  const Placement p = Placement::Create(6, 3);  // 20 files
  const auto ranges = p.SplitRecords(7);
  const std::uint64_t total =
      std::accumulate(ranges.count.begin(), ranges.count.end(),
                      std::uint64_t{0});
  EXPECT_EQ(total, 7u);
}

TEST(Placement, RejectsInvalidParameters) {
  EXPECT_THROW(Placement::Create(4, 0), CheckError);
  EXPECT_THROW(Placement::Create(4, 5), CheckError);
  EXPECT_THROW(Placement::Create(0, 1), CheckError);
}

TEST(Segments, EvenSplitCoversValue) {
  for (std::uint64_t len : {0ULL, 1ULL, 7ULL, 100ULL, 101ULL, 12345ULL}) {
    for (int r : {1, 2, 3, 5, 8}) {
      std::uint64_t covered = 0;
      std::uint64_t expected_offset = 0;
      for (int pos = 0; pos < r; ++pos) {
        const SegmentSpan s = SegmentOf(len, r, pos);
        EXPECT_EQ(s.offset, expected_offset);
        expected_offset += s.length;
        covered += s.length;
      }
      EXPECT_EQ(covered, len) << "len=" << len << " r=" << r;
    }
  }
}

TEST(Segments, NearEqualLengths) {
  const int r = 3;
  for (std::uint64_t len : {9ULL, 10ULL, 11ULL}) {
    std::uint64_t min_len = len, max_len = 0;
    for (int pos = 0; pos < r; ++pos) {
      const SegmentSpan s = SegmentOf(len, r, pos);
      min_len = std::min(min_len, s.length);
      max_len = std::max(max_len, s.length);
    }
    EXPECT_LE(max_len - min_len, 1u);
  }
}

TEST(Segments, PositionIsAscendingMemberIndex) {
  const NodeMask mask = NodesToMask({1, 4, 6});
  EXPECT_EQ(SegmentPosition(mask, 1), 0);
  EXPECT_EQ(SegmentPosition(mask, 4), 1);
  EXPECT_EQ(SegmentPosition(mask, 6), 2);
  EXPECT_THROW(SegmentPosition(mask, 2), CheckError);
}

// ---- Codec fixtures ----

// Deterministic fake intermediate values: IV for (target, file) has a
// size depending on both, filled from a keyed RNG stream.
class FakeIvStore {
 public:
  FakeIvStore(int K, int r, std::uint64_t seed = 99, bool ragged = true)
      : seed_(seed) {
    const Placement p = Placement::Create(K, r);
    for (FileId f = 0; f < p.num_files(); ++f) {
      const NodeMask mask = p.file_nodes(f);
      for (NodeId t = 0; t < K; ++t) {
        if (Contains(mask, t)) continue;  // only kept IVs matter here
        std::uint64_t s = Mix64(seed_ ^ (static_cast<std::uint64_t>(t) << 32 ^
                                         static_cast<std::uint64_t>(f)));
        // Ragged sizes exercise the zero-padding path.
        const std::size_t size =
            ragged ? 40 + (s % 50) : 64;
        std::vector<std::uint8_t> bytes(size);
        for (auto& b : bytes) b = static_cast<std::uint8_t>(SplitMix64(s));
        store_[{t, mask}] = std::move(bytes);
      }
    }
  }

  IvAccess access() const {
    return [this](NodeId t, NodeMask file) -> std::span<const std::uint8_t> {
      const auto it = store_.find({t, file});
      CTS_CHECK(it != store_.end());
      return it->second;
    };
  }

  const std::vector<std::uint8_t>& value(NodeId t, NodeMask file) const {
    return store_.at({t, file});
  }

 private:
  std::uint64_t seed_;
  std::map<std::pair<NodeId, NodeMask>, std::vector<std::uint8_t>> store_;
};

// End-to-end codec property for one group: every member encodes, every
// member decodes every other member's packet, and the merged segments
// equal the wanted intermediate value byte-for-byte.
void CheckGroupRoundTrip(NodeMask group, const FakeIvStore& store) {
  const auto members = MaskToNodes(group);
  const int r = static_cast<int>(members.size()) - 1;
  std::map<NodeId, CodedPacket> packets;
  CodecStats stats;
  for (const NodeId u : members) {
    packets[u] = EncodePacket(group, u, store.access(), &stats);
  }
  EXPECT_EQ(stats.packets_encoded, members.size());
  for (const NodeId k : members) {
    std::vector<DecodedSegment> segments;
    for (const NodeId u : members) {
      if (u == k) continue;
      segments.push_back(
          DecodePacket(group, k, u, packets.at(u), store.access(), &stats));
    }
    ASSERT_EQ(segments.size(), static_cast<std::size_t>(r));
    const auto merged = MergeSegments(segments);
    EXPECT_EQ(merged, store.value(k, WithoutNode(group, k)))
        << "node " << k << " in group " << group;
  }
}

class CodecRoundTrip : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CodecRoundTrip, AllGroupsAllMembers) {
  const auto [K, r] = GetParam();
  const FakeIvStore store(K, r);
  const Placement p = Placement::Create(K, r);
  for (const NodeMask g : p.multicast_groups()) {
    CheckGroupRoundTrip(g, store);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodecRoundTrip,
    ::testing::Values(std::pair{3, 2}, std::pair{4, 2}, std::pair{4, 3},
                      std::pair{5, 2}, std::pair{5, 4}, std::pair{6, 3},
                      std::pair{6, 5}, std::pair{7, 2}, std::pair{8, 5},
                      std::pair{6, 1}),
    [](const auto& info) {
      return "K" + std::to_string(info.param.first) + "r" +
             std::to_string(info.param.second);
    });

TEST(Codec, PaperFig6Fig7Example) {
  // Paper Figs. 6-7: group M = {1,2,3} (0-based {0,1,2}), r = 2. Each
  // node holds the IVs of the two files it shares with another member
  // and decodes the one it misses.
  const NodeMask group = NodesToMask({0, 1, 2});
  const FakeIvStore store(3, 2);
  CheckGroupRoundTrip(group, store);
}

TEST(Codec, UniformSizesNeedNoPadding) {
  const FakeIvStore store(5, 2, /*seed=*/7, /*ragged=*/false);
  const Placement p = Placement::Create(5, 2);
  for (const NodeMask g : p.multicast_groups()) {
    CheckGroupRoundTrip(g, store);
  }
}

TEST(Codec, PacketPayloadIsMaxSegmentLength) {
  const NodeMask group = NodesToMask({0, 1, 2});
  const FakeIvStore store(3, 2);
  const CodedPacket packet = EncodePacket(group, 0, store.access());
  // Constituents: segment of IV(1, {0,2}) and segment of IV(2, {0,1}),
  // both at node 0's position.
  std::size_t max_len = 0;
  for (const auto& [t, file] :
       std::vector<std::pair<NodeId, NodeMask>>{{1, NodesToMask({0, 2})},
                                                {2, NodesToMask({0, 1})}}) {
    const auto& value = store.value(t, file);
    const SegmentSpan s =
        SegmentOf(value.size(), 2, SegmentPosition(file, 0));
    max_len = std::max(max_len, static_cast<std::size_t>(s.length));
  }
  EXPECT_EQ(packet.payload.size(), max_len);
  EXPECT_EQ(packet.iv_lengths.size(), 2u);
}

TEST(Codec, WireFormatRoundTrip) {
  const FakeIvStore store(4, 2);
  const NodeMask group = NodesToMask({0, 1, 3});
  const CodedPacket packet = EncodePacket(group, 1, store.access());
  Buffer wire;
  packet.serialize(wire);
  EXPECT_EQ(wire.size(), packet.wire_size());
  const CodedPacket restored = CodedPacket::deserialize(wire);
  EXPECT_EQ(restored.iv_lengths, packet.iv_lengths);
  EXPECT_EQ(restored.payload, packet.payload);
}

// Wire-supplied lengths are bounded by the bytes left before anything
// is allocated for them, so a corrupt header is a CheckError rather
// than std::bad_alloc or std::length_error.
TEST(Codec, DeserializeRejectsLengthsBeyondTheBuffer) {
  Buffer huge_count;
  huge_count.write_u32(0xffffffffu);
  EXPECT_THROW(CodedPacket::deserialize(huge_count), CheckError);

  Buffer huge_payload;
  huge_payload.write_u32(1);
  huge_payload.write_u64(7);
  huge_payload.write_u64(std::uint64_t{1} << 62);
  EXPECT_THROW(CodedPacket::deserialize(huge_payload), CheckError);

  // One byte short of a well-formed packet.
  Buffer short_payload;
  short_payload.write_u32(0);
  short_payload.write_u64(4);
  short_payload.write_bytes(std::vector<std::uint8_t>(3));
  EXPECT_THROW(CodedPacket::deserialize(short_payload), CheckError);
}

TEST(Codec, StatsCountXorWork) {
  const FakeIvStore store(3, 2);
  const NodeMask group = NodesToMask({0, 1, 2});
  CodecStats stats;
  const CodedPacket packet = EncodePacket(group, 0, store.access(), &stats);
  EXPECT_EQ(stats.packets_encoded, 1u);
  EXPECT_GT(stats.encode_xor_bytes, 0u);
  DecodedSegment seg =
      DecodePacket(group, 1, 0, packet, store.access(), &stats);
  EXPECT_EQ(stats.packets_decoded, 1u);
  EXPECT_EQ(stats.decoded_bytes, seg.span.length);
  EXPECT_GT(stats.decode_xor_bytes, 0u);
}

TEST(Codec, EncodeRejectsNonMember) {
  const FakeIvStore store(4, 2);
  EXPECT_THROW(
      EncodePacket(NodesToMask({0, 1, 2}), /*self=*/3, store.access()),
      CheckError);
}

TEST(Codec, DecodeRejectsBadParticipants) {
  const FakeIvStore store(4, 2);
  const NodeMask group = NodesToMask({0, 1, 2});
  const CodedPacket packet = EncodePacket(group, 0, store.access());
  EXPECT_THROW(DecodePacket(group, 3, 0, packet, store.access()),
               CheckError);
  EXPECT_THROW(DecodePacket(group, 1, 1, packet, store.access()),
               CheckError);
}

TEST(Codec, DecodeDetectsCorruptedSideInformation) {
  // If a node's local IV disagrees with what the sender used, the
  // header length check or the padding-residue check must fire.
  const NodeMask group = NodesToMask({0, 1, 2});
  const FakeIvStore good(3, 2, /*seed=*/1);
  const FakeIvStore bad(3, 2, /*seed=*/2);  // different sizes/content
  const CodedPacket packet = EncodePacket(group, 0, good.access());
  EXPECT_THROW(DecodePacket(group, 1, 0, packet, bad.access()), CheckError);
}

TEST(Codec, MergeRejectsGaps) {
  DecodedSegment a{{0, 4}, {1, 2, 3, 4}};
  DecodedSegment b{{6, 2}, {7, 8}};  // bytes 4..6 missing
  const std::vector<DecodedSegment> segs{a, b};
  EXPECT_THROW(MergeSegments(segs), CheckError);
}

TEST(Codec, MergeAssemblesOutOfOrder) {
  DecodedSegment a{{4, 4}, {5, 6, 7, 8}};
  DecodedSegment b{{0, 4}, {1, 2, 3, 4}};
  const std::vector<DecodedSegment> segs{a, b};
  EXPECT_EQ(MergeSegments(segs),
            (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Codec, EmptyIvsProduceEmptyPackets) {
  // All-empty intermediate values (e.g. a partition with no records in
  // some file) must round-trip as zero-length segments.
  const int K = 4, r = 2;
  const Placement p = Placement::Create(K, r);
  std::map<std::pair<NodeId, NodeMask>, std::vector<std::uint8_t>> store;
  for (FileId f = 0; f < p.num_files(); ++f) {
    for (NodeId t = 0; t < K; ++t) {
      if (!Contains(p.file_nodes(f), t)) {
        store[{t, p.file_nodes(f)}] = {};
      }
    }
  }
  const IvAccess access =
      [&](NodeId t, NodeMask file) -> std::span<const std::uint8_t> {
    return store.at({t, file});
  };
  for (const NodeMask g : p.multicast_groups()) {
    for (const NodeId u : MaskToNodes(g)) {
      const CodedPacket packet = EncodePacket(g, u, access);
      EXPECT_TRUE(packet.payload.empty());
      for (const NodeId k : MaskToNodes(g)) {
        if (k == u) continue;
        const DecodedSegment seg = DecodePacket(g, k, u, packet, access);
        EXPECT_EQ(seg.span.length, 0u);
      }
    }
  }
}

// ---- The in-place kernels against the packet front-ends ----

// Intermediate values of one placement under the codec's access
// signature: raw bytes (`records` false) of random lengths, a quarter
// of them empty, so segments are unequal and padding is forced; or
// packed record lists (`records` true) of 0 to 4 random records.
class RandomIvStore {
 public:
  RandomIvStore(int K, int r, std::uint64_t seed, bool records) {
    const Placement p = Placement::Create(K, r);
    std::uint64_t s = seed;
    for (FileId f = 0; f < p.num_files(); ++f) {
      const NodeMask mask = p.file_nodes(f);
      for (NodeId t = 0; t < K; ++t) {
        if (Contains(mask, t)) continue;
        std::vector<std::uint8_t> bytes;
        if (records) {
          const std::size_t n = SplitMix64(s) % 5;
          Buffer packed;
          for (std::uint8_t& b : AppendPackedSlots(packed, n)) {
            b = static_cast<std::uint8_t>(SplitMix64(s));
          }
          bytes = packed.take();
        } else {
          const std::uint64_t draw = SplitMix64(s);
          bytes.resize(draw % 4 == 0 ? 0 : (draw >> 8) % 70);
          for (std::uint8_t& b : bytes) {
            b = static_cast<std::uint8_t>(SplitMix64(s));
          }
        }
        store_[{t, mask}] = std::move(bytes);
      }
    }
  }

  IvAccess access() const {
    return [this](NodeId t, NodeMask file) -> std::span<const std::uint8_t> {
      return store_.at({t, file});
    };
  }

  std::vector<std::uint8_t>& value(NodeId t, NodeMask file) {
    return store_.at({t, file});
  }

 private:
  std::map<std::pair<NodeId, NodeMask>, std::vector<std::uint8_t>> store_;
};

void ExpectSameStats(const CodecStats& a, const CodecStats& b) {
  EXPECT_EQ(a.packets_encoded, b.packets_encoded);
  EXPECT_EQ(a.encode_xor_bytes, b.encode_xor_bytes);
  EXPECT_EQ(a.encode_payload_bytes, b.encode_payload_bytes);
  EXPECT_EQ(a.packets_decoded, b.packets_decoded);
  EXPECT_EQ(a.decode_xor_bytes, b.decode_xor_bytes);
  EXPECT_EQ(a.decoded_bytes, b.decoded_bytes);
}

// The wire buffers every member of `group` sends, keyed by sender.
std::map<NodeId, Buffer> EncodeGroup(NodeMask group, const IvAccess& iv,
                                     CodecStats* stats) {
  std::map<NodeId, Buffer> wires;
  for (const NodeId u : MaskToNodes(group)) {
    EncodeInto(group, u, iv, wires[u], stats);
  }
  return wires;
}

// Node `self`'s r packets of `group`, parsed in place, by sender.
std::vector<PacketView> PacketsFor(NodeMask group, NodeId self,
                                   const std::map<NodeId, Buffer>& wires) {
  std::vector<PacketView> packets;
  for (const NodeId u : MaskToNodes(WithoutNode(group, self))) {
    packets.push_back(ParsePacket(wires.at(u).span()));
  }
  return packets;
}

// Every group and member of every (K, r) with K <= 7: the encode
// kernel's wire bytes are EncodePacket's serialized packet, and the
// decode kernel, writing the wanted value's first bytes to a separate
// head, produces what DecodePacket and MergeSegments do, with the same
// counters.
TEST(CodecKernels, MatchThePacketFrontEnds) {
  for (int K = 2; K <= 7; ++K) {
    for (int r = 1; r < K; ++r) {
      SCOPED_TRACE(testing::Message() << "K " << K << " r " << r);
      RandomIvStore store(K, r, /*seed=*/K * 31 + r, /*records=*/false);
      const IvAccess iv = store.access();
      const Placement placement = Placement::Create(K, r);
      for (const NodeMask g : placement.multicast_groups()) {
        CodecStats kernel_stats;
        CodecStats packet_stats;
        const std::map<NodeId, Buffer> wires =
            EncodeGroup(g, iv, &kernel_stats);
        std::map<NodeId, CodedPacket> packets;
        for (const auto& [u, wire] : wires) {
          packets[u] = EncodePacket(g, u, iv, &packet_stats);
          Buffer reference;
          packets[u].serialize(reference);
          EXPECT_EQ(wire, reference) << "group " << g << " sender " << u;
        }
        for (const NodeId k : MaskToNodes(g)) {
          std::vector<DecodedSegment> segments;
          for (const NodeId u : MaskToNodes(WithoutNode(g, k))) {
            segments.push_back(
                DecodePacket(g, k, u, packets.at(u), iv, &packet_stats));
          }
          const std::vector<std::uint8_t> merged = MergeSegments(segments);
          const std::size_t head_size =
              std::min<std::size_t>(merged.size(), 8);
          std::vector<std::uint8_t> head(head_size);
          std::vector<std::uint8_t> body(merged.size() - head_size);
          const ValueWindow out{0, head, body};
          for (const NodeId u : MaskToNodes(WithoutNode(g, k))) {
            DecodeInto(g, k, u, ParsePacket(wires.at(u).span()), iv, out,
                       &kernel_stats);
          }
          head.insert(head.end(), body.begin(), body.end());
          EXPECT_EQ(head, merged) << "group " << g << " receiver " << k;
          EXPECT_EQ(merged, store.value(k, WithoutNode(g, k)));
        }
        ExpectSameStats(kernel_stats, packet_stats);
      }
    }
  }
}

// The live path: one group's packets decode straight into records,
// equal to the merged value's records, with its count word checked.
TEST(CodecKernels, DecodeRecordsIntoMatchesTheMergedValue) {
  for (int K = 2; K <= 7; ++K) {
    for (int r = 1; r < K; ++r) {
      SCOPED_TRACE(testing::Message() << "K " << K << " r " << r);
      RandomIvStore store(K, r, /*seed=*/K * 17 + r, /*records=*/true);
      const IvAccess iv = store.access();
      const Placement placement = Placement::Create(K, r);
      for (const NodeMask g : placement.multicast_groups()) {
        const std::map<NodeId, Buffer> wires = EncodeGroup(g, iv, nullptr);
        for (const NodeId k : MaskToNodes(g)) {
          const std::vector<PacketView> packets = PacketsFor(g, k, wires);
          const std::size_t n = GroupRecordCount(g, k, packets);
          std::vector<Record> records(n);
          CodecStats kernel_stats;
          DecodeRecordsInto(g, k, packets, iv, records, &kernel_stats);

          CodecStats packet_stats;
          std::vector<DecodedSegment> segments;
          for (const NodeId u : MaskToNodes(WithoutNode(g, k))) {
            Buffer wire = wires.at(u).Clone();
            segments.push_back(DecodePacket(g, k, u,
                                            CodedPacket::deserialize(wire),
                                            iv, &packet_stats));
          }
          Buffer merged(MergeSegments(segments));
          EXPECT_EQ(records, UnpackRecords(merged));
          ExpectSameStats(kernel_stats, packet_stats);
        }
      }
    }
  }
}

// The group-decode kernel both coded engines run: on random groups
// (K <= 8, every r < K, a quarter of the values empty, the rest of
// random lengths), it yields the wanted value's bytes and the counters
// that DecodePacket and MergeSegments do.
TEST(CodecKernels, DecodeGroupIntoMatchesMergedSegments) {
  std::uint64_t draw = 2017;
  for (int K = 2; K <= 8; ++K) {
    for (int r = 1; r < K; ++r) {
      SCOPED_TRACE(testing::Message() << "K " << K << " r " << r);
      RandomIvStore store(K, r, /*seed=*/K * 13 + r, /*records=*/false);
      const IvAccess iv = store.access();
      const Placement placement = Placement::Create(K, r);
      const std::vector<NodeMask>& groups = placement.multicast_groups();
      for (int pick = 0; pick < 4; ++pick) {
        const NodeMask g = groups[SplitMix64(draw) % groups.size()];
        const std::map<NodeId, Buffer> wires = EncodeGroup(g, iv, nullptr);
        for (const NodeId k : MaskToNodes(g)) {
          const std::vector<PacketView> packets = PacketsFor(g, k, wires);
          std::vector<std::uint8_t> value(GroupValueLength(g, k, packets));
          CodecStats kernel_stats;
          DecodeGroupInto(g, k, packets, iv, {0, {}, value}, &kernel_stats);

          CodecStats packet_stats;
          std::vector<DecodedSegment> segments;
          for (const NodeId u : MaskToNodes(WithoutNode(g, k))) {
            Buffer wire = wires.at(u).Clone();
            segments.push_back(DecodePacket(g, k, u,
                                            CodedPacket::deserialize(wire),
                                            iv, &packet_stats));
          }
          EXPECT_EQ(value, MergeSegments(segments))
              << "group " << g << " receiver " << k;
          EXPECT_EQ(value, store.value(k, WithoutNode(g, k)));
          ExpectSameStats(kernel_stats, packet_stats);
        }
      }
    }
  }
}

// A destination with guard bytes on both sides, to show that a kernel
// which throws wrote nothing outside the span it was given.
class GuardedRecords {
 public:
  explicit GuardedRecords(std::size_t n) : all_(n + 2) {
    std::memset(all_.data(), kGuard, all_.size() * sizeof(Record));
  }
  std::span<Record> span() {
    return std::span(all_).subspan(1, all_.size() - 2);
  }
  bool guards_intact() const {
    for (const Record* rec : {&all_.front(), &all_.back()}) {
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(rec);
      for (std::size_t i = 0; i < sizeof(Record); ++i) {
        if (bytes[i] != kGuard) return false;
      }
    }
    return true;
  }

 private:
  static constexpr std::uint8_t kGuard = 0xa5;
  std::vector<Record> all_;
};

// Runs `call`, which must throw a CheckError whose message names
// `what`, so each malformed case pins the check that rejects it.
template <typename Fn>
void ExpectCheckError(Fn&& call, const std::string& what) {
  try {
    call();
    ADD_FAILURE() << "no CheckError; expected one naming '" << what << "'";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

// Overwrites the little-endian u64 at byte `at` of a wire buffer.
void PokeU64(Buffer& wire, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    wire.mutable_span()[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// Every malformed packet or group is a CheckError, and the kernels
// write nothing outside their destination. Group {0, 1, 2} at r = 2:
// node 1 wants I^1_{0,2}; each packet's header holds the lengths of
// the sender's two targets (u32 count, then u64 lengths at bytes 4
// and 12), then the u64 payload size at byte 20 and the payload.
TEST(CodecKernels, MalformedPacketsThrowWithoutStrayWrites) {
  const NodeMask group = NodesToMask({0, 1, 2});
  RandomIvStore store(3, 2, /*seed=*/5, /*records=*/true);
  // One record wanted by node 1, four by node 2 and none by node 0:
  // the payloads carry padding past node 1's segments.
  const auto pack = [](std::size_t n, std::uint8_t fill) {
    Buffer packed;
    for (std::uint8_t& b : AppendPackedSlots(packed, n)) b = fill;
    return packed.take();
  };
  store.value(1, NodesToMask({0, 2})) = pack(1, 0x11);
  store.value(2, NodesToMask({0, 1})) = pack(4, 0x22);
  store.value(0, NodesToMask({1, 2})) = pack(0, 0);
  const IvAccess iv = store.access();
  const std::map<NodeId, Buffer> wires = EncodeGroup(group, iv, nullptr);
  const NodeId self = 1;
  const std::size_t n =
      GroupRecordCount(group, self, PacketsFor(group, self, wires));
  ASSERT_EQ(n, 1u);

  // Runs the whole group as the Decode stage does, the header pass
  // (GroupRecordCount) and then DecodeRecordsInto, with the packet from
  // `sender` replaced by `bad` (or, with `sized`, into a destination of
  // that many records) and expects the check `what`.
  const auto decode_with = [&](NodeId sender, const Buffer& bad,
                               const std::string& what,
                               std::optional<std::size_t> sized = {}) {
    std::map<NodeId, Buffer> copy;
    for (const auto& [u, wire] : wires) copy[u] = wire.Clone();
    copy[sender] = bad.Clone();
    GuardedRecords out(sized.value_or(n));
    ExpectCheckError(
        [&] {
          const std::vector<PacketView> packets =
              PacketsFor(group, self, copy);
          (void)GroupRecordCount(group, self, packets);
          DecodeRecordsInto(group, self, packets, iv, out.span());
        },
        what);
    EXPECT_TRUE(out.guards_intact());
  };
  const Buffer& good = wires.at(0);

  // A truncated header, a count the bytes cannot hold, and a payload
  // size past the end: ParsePacket bounds each before use.
  for (const std::size_t cut : {2, 10, 21, 100}) {
    const Buffer truncated(std::vector<std::uint8_t>(
        good.span().begin(), good.span().begin() + cut));
    ExpectCheckError([&] { ParsePacket(truncated.span()); },
                     "truncated packet");
  }
  {
    Buffer huge_count = good.Clone();
    for (std::size_t i = 0; i < 4; ++i) huge_count.mutable_span()[i] = 0xff;
    ExpectCheckError([&] { ParsePacket(huge_count.span()); },
                     "4294967295 lengths but only");
  }
  // count != r.
  {
    Buffer one_length;
    one_length.write_u32(1);
    one_length.write_u64(108);
    one_length.write_u64(0);
    decode_with(0, one_length, "packet.count ==");
  }
  // A payload shorter than the wanted segment: the payload size says
  // less than node 1's half of its 108-byte value.
  {
    Buffer short_payload = good.Clone();
    PokeU64(short_payload, 20, 10);
    decode_with(0, short_payload, "10-byte payload for a 54-byte segment");
  }
  // The header's length of I^2_{0,1} disagrees with node 1's own copy.
  {
    Buffer mismatch = good.Clone();
    PokeU64(mismatch, 12, 408 + 100);
    decode_with(0, mismatch, "side-information length mismatch");
  }
  // A flipped byte past node 1's segment leaves a nonzero residue.
  {
    Buffer residue = good.Clone();
    residue.mutable_span()[residue.size() - 1] ^= 0x40;
    decode_with(0, residue, "nonzero padding residue");
  }
  // The two packets disagree on L = |I^1_{0,2}|, which node 0's header
  // lists first (its targets are 1 and 2): the header pass rejects it
  // before anything is sized by it.
  {
    Buffer other_length = good.Clone();
    PokeU64(other_length, 4, 208);
    decode_with(0, other_length, "disagree on the wanted length");
  }
  // A count word that disagrees with the value's length.
  {
    std::vector<std::uint8_t>& wanted = store.value(1, NodesToMask({0, 2}));
    wanted[0] = 2;  // claims two records in a one-record value
    const std::map<NodeId, Buffer> lying = EncodeGroup(group, iv, nullptr);
    wanted[0] = 1;
    decode_with(0, lying.at(0), "counts 2 records in 1 slots");
  }
  // A destination of the wrong size: too large, the count word
  // disagrees; too small, a segment falls outside it.
  decode_with(0, good, "counts 1 records in 2 slots", n + 1);
  decode_with(0, good, "lies outside the destination", n - 1);
}

// The decode kernels run on the live path once per packet and group:
// neither allocates.
TEST(CodecKernels, DecodeMakesNoHeapAllocation) {
  const int K = 6;
  const int r = 3;
  RandomIvStore store(K, r, /*seed=*/3, /*records=*/true);
  const IvAccess iv = store.access();
  const NodeMask group = NodesToMask({0, 2, 3, 5});
  const std::map<NodeId, Buffer> wires = EncodeGroup(group, iv, nullptr);
  const NodeId self = 3;
  const std::vector<PacketView> packets = PacketsFor(group, self, wires);
  std::vector<Record> records(GroupRecordCount(group, self, packets));
  std::array<std::uint8_t, 8> head{};
  const ValueWindow out{
      0, head,
      {reinterpret_cast<std::uint8_t*>(records.data()),
       records.size() * kRecordBytes}};
  CodecStats stats;

  const std::size_t before = g_heap_allocations.load();
  (void)ParsePacket(wires.at(0).span());
  (void)GroupRecordCount(group, self, packets);
  DecodeInto(group, self, 0, packets[0], iv, out, &stats);
  DecodeRecordsInto(group, self, packets, iv, records, &stats);
  EXPECT_EQ(g_heap_allocations.load(), before) << "a decode kernel allocated";
  EXPECT_EQ(stats.packets_decoded, 1u + packets.size());
}

}  // namespace
}  // namespace cts

// All three out of line, so the compiler does not pair an inlined
// malloc() with an inlined free() and warn about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  cts::g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
