#include "coding/codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/check.h"
#include "keyvalue/recordio.h"

namespace cts {

namespace {

// The little-endian integer at `p` (the wire layout's byte order).
template <typename T>
T LoadLe(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(p[i]) << (8 * i);
  }
  return v;
}

// dst[0, n) ^= src[0, n), eight bytes at a time through unaligned-safe
// memcpy loads and stores, then the tail byte by byte. The codec's one
// XOR loop.
void XorInto(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t a;
    std::uint64_t b;
    std::memcpy(&a, dst + i, sizeof a);
    std::memcpy(&b, src + i, sizeof b);
    a ^= b;
    std::memcpy(dst + i, &a, sizeof a);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

// The lowest member of a nonempty mask; `m &= m - 1` steps to the
// next, so members come out in ascending order.
NodeId LowestMember(NodeMask m) {
  return static_cast<NodeId>(std::countr_zero(m));
}

// One constituent of a coded packet: the value I^t_{M\{t}} and the
// segment of it that `holder` transmits in group M (eq. (7)). The
// codec's one segment-selection routine: the encoder selects at its
// own position, a decoder at the sender's.
struct Constituent {
  std::span<const std::uint8_t> value;
  std::span<const std::uint8_t> segment;
};

Constituent SelectSegment(NodeMask group, NodeId t, NodeId holder,
                          const IvAccess& iv) {
  const NodeMask file = WithoutNode(group, t);  // F = M \ {t}
  const std::span<const std::uint8_t> value = iv(t, file);
  const SegmentSpan span = SegmentOf(value.size(), Popcount(group) - 1,
                                     SegmentPosition(file, holder));
  return {value, value.subspan(span.offset, span.length)};
}

// What the packet from `sender` carries for `self`: the length of the
// wanted value I^self_{M\{self}} and the span of its segment. Checks
// the participants, count == r and that the payload holds the segment.
struct Wanted {
  std::uint64_t value_length = 0;
  SegmentSpan span;
};

Wanted WantedSegment(NodeMask group, NodeId self, NodeId sender,
                     const PacketView& packet) {
  CTS_CHECK_MSG(Contains(group, self) && Contains(group, sender),
                "decode members outside group " << group);
  CTS_CHECK_NE(self, sender);
  // The length travels in the header at my position among the
  // sender's targets.
  const NodeMask targets = WithoutNode(group, sender);
  CTS_CHECK_EQ(packet.count, static_cast<std::uint32_t>(Popcount(targets)));
  Wanted wanted;
  wanted.value_length = packet.length(
      static_cast<std::size_t>(SegmentPosition(targets, self)));
  wanted.span = SegmentOf(wanted.value_length, Popcount(group) - 1,
                          SegmentPosition(WithoutNode(group, self), sender));
  CTS_CHECK_MSG(wanted.span.length <= packet.payload.size(),
                "packet from " << sender << " has a "
                               << packet.payload.size()
                               << "-byte payload for a "
                               << wanted.span.length << "-byte segment");
  return wanted;
}

// Copies (or, with `xor_in`, XORs) `src` into value bytes
// [offset, offset + src.size()) of `out`, split where its head ends.
void WriteWindow(const ValueWindow& out, std::uint64_t offset,
                 std::span<const std::uint8_t> src, bool xor_in) {
  const auto write = [xor_in](std::uint8_t* dst, const std::uint8_t* from,
                              std::size_t n) {
    if (xor_in) {
      XorInto(dst, from, n);
    } else {
      std::memcpy(dst, from, n);
    }
  };
  if (src.empty()) return;
  std::size_t at = offset - out.begin;
  if (at < out.head.size()) {
    const std::size_t n = std::min(src.size(), out.head.size() - at);
    write(out.head.data() + at, src.data(), n);
    src = src.subspan(n);
    at += n;
  }
  if (!src.empty()) {
    write(out.body.data() + (at - out.head.size()), src.data(), src.size());
  }
}

}  // namespace

std::uint64_t PacketView::length(std::size_t i) const {
  CTS_CHECK_LT(i, count);
  return LoadLe<std::uint64_t>(lengths.data() + i * sizeof(std::uint64_t));
}

PacketView ParsePacket(std::span<const std::uint8_t> wire) {
  // Both lengths come off the wire: bound them by the bytes left
  // before anything is sized by them.
  PacketView p;
  CTS_CHECK_MSG(wire.size() >= sizeof(std::uint32_t),
                "truncated packet: " << wire.size() << "-byte header");
  p.count = LoadLe<std::uint32_t>(wire.data());
  wire = wire.subspan(sizeof(std::uint32_t));
  CTS_CHECK_MSG(p.count <= wire.size() / sizeof(std::uint64_t),
                "truncated packet: " << p.count << " lengths but only "
                                     << wire.size() << " bytes");
  p.lengths = wire.first(p.count * sizeof(std::uint64_t));
  wire = wire.subspan(p.lengths.size());
  CTS_CHECK_MSG(wire.size() >= sizeof(std::uint64_t),
                "truncated packet: no payload size");
  const std::uint64_t payload_size = LoadLe<std::uint64_t>(wire.data());
  wire = wire.subspan(sizeof(std::uint64_t));
  CTS_CHECK_MSG(payload_size <= wire.size(),
                "truncated packet: " << payload_size
                                     << "-byte payload but only "
                                     << wire.size() << " bytes");
  p.payload = wire.first(payload_size);
  return p;
}

void CodedPacket::serialize(Buffer& out) const {
  out.write_u32(static_cast<std::uint32_t>(iv_lengths.size()));
  for (std::uint64_t len : iv_lengths) out.write_u64(len);
  out.write_u64(payload.size());
  out.write_bytes(payload);
}

CodedPacket CodedPacket::deserialize(Buffer& in) {
  const PacketView view = ParsePacket(in.span().subspan(in.cursor()));
  in.seek(in.cursor() + view.wire_size());
  CodedPacket p;
  p.iv_lengths.reserve(view.count);
  for (std::uint32_t i = 0; i < view.count; ++i) {
    p.iv_lengths.push_back(view.length(i));
  }
  p.payload.assign(view.payload.begin(), view.payload.end());
  return p;
}

void EncodeInto(NodeMask group, NodeId self, const IvAccess& iv,
                Buffer& wire, CodecStats* stats) {
  CTS_CHECK_MSG(Contains(group, self),
                "encoder node " << self << " not in group " << group);
  const int r = Popcount(group) - 1;
  CTS_CHECK_GE(r, 1);

  // The r constituents, ascending t, and the padded length.
  std::array<Constituent, kMaxNodes> parts;
  std::size_t n = 0;
  std::size_t max_len = 0;
  for (NodeMask rest = WithoutNode(group, self); rest != 0; rest &= rest - 1) {
    parts[n] = SelectSegment(group, LowestMember(rest), self, iv);
    max_len = std::max(max_len, parts[n].segment.size());
    ++n;
  }

  if (wire.empty()) wire.reserve(PacketHeaderBytes(n) + max_len);
  wire.write_u32(static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) wire.write_u64(parts[i].value.size());
  wire.write_u64(max_len);

  // Zero-padded XOR (paper footnote 3: "all segments are zero-padded to
  // the length of the longest one"): the first segment is copied, the
  // padding tail past it zero-filled, and the other r-1 XORed in.
  const std::size_t start = wire.size();
  wire.write_bytes(parts[0].segment);
  wire.resize(start + max_len);
  std::uint8_t* payload = wire.mutable_span().subspan(start).data();
  for (std::size_t i = 1; i < n; ++i) {
    XorInto(payload, parts[i].segment.data(), parts[i].segment.size());
  }
  if (stats != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      stats->encode_xor_bytes += parts[i].segment.size();
    }
    ++stats->packets_encoded;
    stats->encode_payload_bytes += max_len;
  }
}

SegmentSpan DecodeInto(NodeMask group, NodeId self, NodeId sender,
                       const PacketView& packet, const IvAccess& iv,
                       const ValueWindow& out, CodecStats* stats) {
  const SegmentSpan wanted =
      WantedSegment(group, self, sender, packet).span;
  CTS_CHECK_MSG(wanted.offset >= out.begin &&
                    wanted.offset + wanted.length <=
                        out.begin + out.head.size() + out.body.size(),
                "segment at byte " << wanted.offset << " of "
                                   << wanted.length
                                   << " bytes lies outside the destination");
  const std::span<const std::uint8_t> payload = packet.payload;
  WriteWindow(out, wanted.offset, payload.first(wanted.length),
              /*xor_in=*/false);

  // Cancel the r-1 segments I know (paper eq. (10)), in place.
  std::array<std::span<const std::uint8_t>, kMaxNodes> known;
  std::size_t num_known = 0;
  std::size_t index = 0;  // t's position in the header
  for (NodeMask rest = WithoutNode(group, sender); rest != 0;
       rest &= rest - 1, ++index) {
    const NodeId t = LowestMember(rest);
    if (t == self) continue;
    const Constituent c = SelectSegment(group, t, sender, iv);
    CTS_CHECK_MSG(c.value.size() == packet.length(index),
                  "side-information length mismatch for target "
                      << t << ": have " << c.value.size() << " header says "
                      << packet.length(index));
    CTS_CHECK_LE(c.segment.size(), payload.size());
    WriteWindow(out, wanted.offset,
                c.segment.first(std::min<std::size_t>(c.segment.size(),
                                                      wanted.length)),
                /*xor_in=*/true);
    known[num_known++] = c.segment;
    if (stats != nullptr) stats->decode_xor_bytes += c.segment.size();
  }

  // After cancellation only my segment remains; anything beyond its
  // length must be residual zero padding, or the codec is inconsistent.
  // Checked a stack-sized chunk at a time.
  constexpr std::size_t kChunk = 256;
  std::array<std::uint8_t, kChunk> residue;
  for (std::size_t at = wanted.length; at < payload.size(); at += kChunk) {
    const std::size_t n = std::min(kChunk, payload.size() - at);
    std::memcpy(residue.data(), payload.data() + at, n);
    for (std::size_t i = 0; i < num_known; ++i) {
      const std::span<const std::uint8_t> segment = known[i];
      if (segment.size() > at) {
        XorInto(residue.data(), segment.data() + at,
                std::min(n, segment.size() - at));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      CTS_CHECK_MSG(residue[i] == 0,
                    "nonzero padding residue at byte "
                        << at + i << " decoding packet from " << sender);
    }
  }

  if (stats != nullptr) {
    ++stats->packets_decoded;
    stats->decoded_bytes += wanted.length;
  }
  return wanted;
}

std::uint64_t GroupValueLength(NodeMask group, NodeId self,
                               std::span<const PacketView> packets) {
  const NodeMask senders = WithoutNode(group, self);
  CTS_CHECK_EQ(packets.size(), static_cast<std::size_t>(Popcount(senders)));
  std::uint64_t length = 0;
  std::uint64_t covered = 0;
  std::size_t i = 0;
  for (NodeMask rest = senders; rest != 0; rest &= rest - 1, ++i) {
    const NodeId sender = LowestMember(rest);
    const Wanted wanted = WantedSegment(group, self, sender, packets[i]);
    if (i == 0) length = wanted.value_length;
    CTS_CHECK_MSG(wanted.value_length == length,
                  "packets of group " << group << " disagree on the wanted "
                                      << "length: " << length << " bytes, but "
                                      << wanted.value_length << " from node "
                                      << sender);
    covered += wanted.span.length;
  }
  // Segments of one value are disjoint and cover it exactly.
  CTS_CHECK_MSG(covered == length,
                "segments cover " << covered << " of " << length << " bytes");
  return length;
}

void DecodeGroupInto(NodeMask group, NodeId self,
                     std::span<const PacketView> packets, const IvAccess& iv,
                     const ValueWindow& out, CodecStats* stats) {
  CTS_CHECK_EQ(packets.size(),
               static_cast<std::size_t>(Popcount(group) - 1));
  std::size_t i = 0;
  for (NodeMask rest = WithoutNode(group, self); rest != 0;
       rest &= rest - 1, ++i) {
    DecodeInto(group, self, LowestMember(rest), packets[i], iv, out, stats);
  }
}

std::size_t GroupRecordCount(NodeMask group, NodeId self,
                             std::span<const PacketView> packets) {
  const std::uint64_t length = GroupValueLength(group, self, packets);
  const std::size_t records = MaxPackedRecords(length);
  CTS_CHECK_MSG(PackedSize(records) == length,
                "a " << length << "-byte value is not a packed record list");
  return records;
}

void DecodeRecordsInto(NodeMask group, NodeId self,
                       std::span<const PacketView> packets,
                       const IvAccess& iv, std::span<Record> records,
                       CodecStats* stats) {
  const std::size_t n = records.size();
  std::array<std::uint8_t, sizeof(std::uint64_t)> count_word{};
  DecodeGroupInto(
      group, self, packets, iv,
      {0, count_word,
       {reinterpret_cast<std::uint8_t*>(records.data()), n * kRecordBytes}},
      stats);
  const std::uint64_t count = LoadLe<std::uint64_t>(count_word.data());
  CTS_CHECK_MSG(count == n, "group " << group << " value counts " << count
                                     << " records in " << n << " slots");
}

CodedPacket EncodePacket(NodeMask group, NodeId self, const IvAccess& iv,
                         CodecStats* stats) {
  Buffer wire;
  EncodeInto(group, self, iv, wire, stats);
  return CodedPacket::deserialize(wire);
}

DecodedSegment DecodePacket(NodeMask group, NodeId self, NodeId sender,
                            const CodedPacket& packet, const IvAccess& iv,
                            CodecStats* stats) {
  Buffer wire;
  packet.serialize(wire);
  const PacketView view = ParsePacket(wire.span());
  DecodedSegment segment;
  segment.span = WantedSegment(group, self, sender, view).span;
  segment.bytes.resize(segment.span.length);
  DecodeInto(group, self, sender, view, iv,
             ValueWindow{segment.span.offset, {}, segment.bytes}, stats);
  return segment;
}

std::vector<std::uint8_t> MergeSegments(
    std::span<const DecodedSegment> segments) {
  std::uint64_t total = 0;
  for (const auto& s : segments) {
    CTS_CHECK_EQ(s.bytes.size(), s.span.length);
    total = std::max(total, s.span.offset + s.span.length);
  }
  std::vector<std::uint8_t> value(total, 0);
  std::uint64_t covered = 0;
  for (const auto& s : segments) {
    std::copy(s.bytes.begin(), s.bytes.end(),
              value.begin() + static_cast<long>(s.span.offset));
    covered += s.span.length;
  }
  // Segments of one value are disjoint and cover it exactly.
  CTS_CHECK_MSG(covered == total, "segments cover " << covered << " of "
                                                    << total << " bytes");
  return value;
}

}  // namespace cts
