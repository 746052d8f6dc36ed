#include "coding/codec.h"

#include <algorithm>

#include "common/check.h"

namespace cts {

namespace {

// XOR `src` into `dst[0 .. src.size())`. dst must be long enough.
void XorInto(std::span<std::uint8_t> dst,
             std::span<const std::uint8_t> src) {
  CTS_CHECK_GE(dst.size(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] ^= src[i];
}

}  // namespace

void CodedPacket::serialize(Buffer& out) const {
  out.write_u32(static_cast<std::uint32_t>(iv_lengths.size()));
  for (std::uint64_t len : iv_lengths) out.write_u64(len);
  out.write_u64(payload.size());
  out.write_bytes(payload);
}

CodedPacket CodedPacket::deserialize(Buffer& in) {
  CodedPacket p;
  // Both lengths come off the wire: bound them by the bytes left
  // before allocating for them.
  const std::uint32_t count = in.read_u32();
  CTS_CHECK_MSG(count <= in.remaining() / sizeof(std::uint64_t),
                "truncated packet: " << count << " lengths but only "
                                     << in.remaining() << " bytes");
  p.iv_lengths.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    p.iv_lengths.push_back(in.read_u64());
  }
  const std::uint64_t payload_size = in.read_u64();
  CTS_CHECK_MSG(payload_size <= in.remaining(),
                "truncated packet: " << payload_size
                                     << "-byte payload but only "
                                     << in.remaining() << " bytes");
  p.payload.resize(payload_size);
  in.read_bytes(p.payload);
  return p;
}

CodedPacket EncodePacket(NodeMask group, NodeId self, const IvAccess& iv,
                         CodecStats* stats) {
  CTS_CHECK_MSG(Contains(group, self),
                "encoder node " << self << " not in group " << group);
  const int r = Popcount(group) - 1;
  CTS_CHECK_GE(r, 1);

  const std::vector<NodeId> others = MaskToNodes(WithoutNode(group, self));

  CodedPacket packet;
  packet.iv_lengths.reserve(others.size());

  // First pass: collect constituent segments and the padded length.
  struct Constituent {
    std::span<const std::uint8_t> segment;
  };
  std::vector<Constituent> constituents;
  constituents.reserve(others.size());
  std::size_t max_len = 0;
  for (NodeId t : others) {
    const NodeMask file = WithoutNode(group, t);  // F = M \ {t}
    const std::span<const std::uint8_t> value = iv(t, file);
    packet.iv_lengths.push_back(value.size());
    const SegmentSpan span =
        SegmentOf(value.size(), r, SegmentPosition(file, self));
    constituents.push_back(
        {value.subspan(span.offset, span.length)});
    max_len = std::max(max_len, static_cast<std::size_t>(span.length));
  }

  // Zero-padded XOR (paper footnote 3: "all segments are zero-padded to
  // the length of the longest one").
  packet.payload.assign(max_len, 0);
  for (const Constituent& c : constituents) {
    XorInto(packet.payload, c.segment);
    if (stats != nullptr) stats->encode_xor_bytes += c.segment.size();
  }
  if (stats != nullptr) {
    ++stats->packets_encoded;
    stats->encode_payload_bytes += packet.payload.size();
  }
  return packet;
}

DecodedSegment DecodePacket(NodeMask group, NodeId self, NodeId sender,
                            const CodedPacket& packet, const IvAccess& iv,
                            CodecStats* stats) {
  CTS_CHECK_MSG(Contains(group, self) && Contains(group, sender),
                "decode members outside group " << group);
  CTS_CHECK_NE(self, sender);
  const int r = Popcount(group) - 1;
  const std::vector<NodeId> senders_targets =
      MaskToNodes(WithoutNode(group, sender));  // t values, ascending
  CTS_CHECK_EQ(packet.iv_lengths.size(), senders_targets.size());

  // My wanted value is I^self_{M\{self}}; its length travels in the
  // packet header at my position among the sender's targets.
  const auto self_it = std::find(senders_targets.begin(),
                                 senders_targets.end(), self);
  CTS_CHECK(self_it != senders_targets.end());
  const std::size_t self_idx =
      static_cast<std::size_t>(self_it - senders_targets.begin());
  const std::uint64_t my_value_len = packet.iv_lengths[self_idx];
  const NodeMask my_file = WithoutNode(group, self);
  const SegmentSpan wanted =
      SegmentOf(my_value_len, r, SegmentPosition(my_file, sender));

  // Cancel the r-1 segments I know (paper eq. (10)).
  std::vector<std::uint8_t> work(packet.payload);
  for (std::size_t i = 0; i < senders_targets.size(); ++i) {
    const NodeId t = senders_targets[i];
    if (t == self) continue;
    const NodeMask file = WithoutNode(group, t);
    const std::span<const std::uint8_t> value = iv(t, file);
    CTS_CHECK_MSG(value.size() == packet.iv_lengths[i],
                  "side-information length mismatch for target "
                      << t << ": have " << value.size() << " header says "
                      << packet.iv_lengths[i]);
    const SegmentSpan span =
        SegmentOf(value.size(), r, SegmentPosition(file, sender));
    XorInto(work, value.subspan(span.offset, span.length));
    if (stats != nullptr) stats->decode_xor_bytes += span.length;
  }

  // After cancellation only my segment remains; anything beyond its
  // length must be residual zero padding, or the codec is inconsistent.
  CTS_CHECK_GE(work.size(), wanted.length);
  for (std::size_t i = wanted.length; i < work.size(); ++i) {
    CTS_CHECK_MSG(work[i] == 0,
                  "nonzero padding residue at byte "
                      << i << " decoding packet from " << sender);
  }
  work.resize(wanted.length);

  if (stats != nullptr) {
    ++stats->packets_decoded;
    stats->decoded_bytes += wanted.length;
  }
  return DecodedSegment{wanted, std::move(work)};
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
