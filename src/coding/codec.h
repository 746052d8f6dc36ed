// The coded-shuffle XOR codec: Encoding (paper Algorithm 1) and
// Decoding (paper Algorithm 2).
//
// Within a multicast group M of r+1 nodes, node u transmits one coded
// packet
//
//     E_{M,u} = XOR over t in M\{u} of  I^t_{M\{t}},u
//
// i.e. the XOR of the u-indexed segments of the r intermediate values
// that the *other* members need, each of which u knows from its own Map
// work (u mapped file M\{t} for every t != u). Segments are zero-padded
// to the longest constituent. A receiver k cancels the r-1 segments it
// also knows and is left with I^k_{M\{k}},u — one segment of the value
// it needs; the r packets it receives in M reassemble the whole value.
//
// The packet carries a small header with the byte length of every
// constituent intermediate value. The receiver needs the length of its
// own wanted value (which it does not know) to strip the zero padding;
// the sender knows all constituents, so the header is the natural
// place. Header overhead is 8r + O(1) bytes per packet and is included
// in all traffic accounting.
//
// This module owns the packet's wire layout, all little-endian:
//
//     u32 count | count x u64 IV lengths | u64 payload size | payload
//
// Two kernels do the work, and everything else is a front-end over
// them:
//   EncodeInto  appends E_{M,self} straight to its wire buffer: the
//               first segment is copied, the other r-1 are XORed in
//               eight bytes at a time.
//   DecodeInto  reads a packet in place (ParsePacket), copies its
//               wanted segment straight into the destination and
//               cancels the r-1 known segments there, eight bytes at a
//               time. It allocates nothing.
// Both coded engines run on them. They encode with EncodeInto straight
// into the multicast payload, and decode a group's r packets with
// DecodeGroupInto straight into the wanted value, once a header pass
// has checked the packets and sized the value. CodedTeraSort goes
// through DecodeRecordsInto, which lands the value's records in the
// reduce pool; the generic CMR engine decodes into a Buffer's
// append_unfilled(L), L from GroupValueLength.
//
// EncodePacket, DecodePacket, DecodedSegment, MergeSegments and
// CodedPacket are the packet-object front-end. No engine uses it (the
// repo_lint `codecfront` rule keeps it out of src/ outside this
// module): it is the tests' reference decoder, and bench_micro and
// ctbench's layer pass time it.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "coding/segments.h"
#include "common/buffer.h"
#include "common/types.h"
#include "keyvalue/record.h"

namespace cts {

// Read access to a node's mapped intermediate values: returns the
// serialized bytes of I^target_file (the KV pairs of file `file` whose
// keys fall in partition `target`). The codec only calls this for
// values the node is guaranteed to hold after its Map stage.
using IvAccess =
    std::function<std::span<const std::uint8_t>(NodeId target, NodeMask file)>;

// Bytes a packet's wire header takes ahead of its payload: the u32
// count, `count` u64 IV lengths and the u64 payload size.
constexpr std::size_t PacketHeaderBytes(std::size_t count) {
  return sizeof(std::uint32_t) + (count + 1) * sizeof(std::uint64_t);
}

// One coded multicast packet as an object (see the wire layout above).
struct CodedPacket {
  // Length of I^t_{M\{t}} for each t in M\{sender}, ascending t. The
  // receiver k finds its own entry to learn |I^k_{M\{k}}|.
  std::vector<std::uint64_t> iv_lengths;
  // XOR of the zero-padded segments; length == longest segment.
  std::vector<std::uint8_t> payload;

  void serialize(Buffer& out) const;
  // Reads one packet from `in`'s cursor, bounded as ParsePacket.
  static CodedPacket deserialize(Buffer& in);

  // Bytes this packet occupies on the wire.
  std::size_t wire_size() const {
    return PacketHeaderBytes(iv_lengths.size()) + payload.size();
  }
};

// A coded packet read in place from its wire bytes.
struct PacketView {
  std::uint32_t count = 0;
  std::span<const std::uint8_t> lengths;  // `count` little-endian u64s
  std::span<const std::uint8_t> payload;

  // The i-th IV length of the header (i < count).
  std::uint64_t length(std::size_t i) const;
  std::size_t wire_size() const {
    return PacketHeaderBytes(count) + payload.size();
  }
};

// Reads the packet at the front of `wire` without copying. Both
// lengths that come off the wire are bounded by the bytes left (count
// <= remaining / 8, payload <= remaining); a violation, or a header cut
// short, is a CheckError.
PacketView ParsePacket(std::span<const std::uint8_t> wire);

// Counters the cost model consumes (XOR work and packet handling).
struct CodecStats {
  std::uint64_t packets_encoded = 0;
  std::uint64_t encode_xor_bytes = 0;  // input bytes XORed into packets
  // Coded payload produced (sum of packet payload sizes, excluding the
  // wire header). The simulated-time report scales this with the data
  // size while header bytes — whose count is combinatorial in (K, r),
  // not proportional to data — stay fixed.
  std::uint64_t encode_payload_bytes = 0;
  std::uint64_t packets_decoded = 0;
  std::uint64_t decode_xor_bytes = 0;  // side-information bytes cancelled
  std::uint64_t decoded_bytes = 0;     // useful segment bytes recovered

  CodecStats& operator+=(const CodecStats& o) {
    packets_encoded += o.packets_encoded;
    encode_xor_bytes += o.encode_xor_bytes;
    encode_payload_bytes += o.encode_payload_bytes;
    packets_decoded += o.packets_decoded;
    decode_xor_bytes += o.decode_xor_bytes;
    decoded_bytes += o.decoded_bytes;
    return *this;
  }
};

// The encode kernel (Algorithm 1 for one group): appends E_{M,self}
// to `wire` in the wire layout above. An empty `wire` is allocated
// once, at the packet's exact size. `group` must contain `self` and
// have at least 2 members.
void EncodeInto(NodeMask group, NodeId self, const IvAccess& iv,
                Buffer& wire, CodecStats* stats = nullptr);

// Where decoded bytes of the receiver's wanted value land: value bytes
// [begin, begin + head.size()) in `head`, and the next body.size()
// bytes in `body`. The live engine sends the value's leading count
// word to a local and its records straight into the reduce pool.
struct ValueWindow {
  std::uint64_t begin = 0;
  std::span<std::uint8_t> head;
  std::span<std::uint8_t> body;
};

// The decode kernel (Algorithm 2 for one packet): node `self` decodes
// the packet multicast by `sender` within `group`, cancelling segments
// via `iv`. The wanted segment is copied into `out` and the r-1 known
// segments are cancelled there in place. Returns where the segment
// lies within the wanted value I^self_{M\{self}}, which `out` must
// cover. Checks the header count (== r), the side-information lengths,
// that the payload holds the wanted segment, and that every byte past
// it cancels to zero padding. Makes no heap allocation.
SegmentSpan DecodeInto(NodeMask group, NodeId self, NodeId sender,
                       const PacketView& packet, const IvAccess& iv,
                       const ValueWindow& out, CodecStats* stats = nullptr);

// ---- One group's r packets ----
//
// `packets` are the r packets node `self` received in `group`, parsed
// in place, in ascending sender order.

// The header pass of one group: the length L of the wanted value
// I^self_{M\{self}}, which every one of the r packets must agree on
// and which their r segments must cover exactly.
std::uint64_t GroupValueLength(NodeMask group, NodeId self,
                               std::span<const PacketView> packets);

// The group-decode kernel: decodes every packet (DecodeInto) straight
// into `out`, which holds the wanted value from byte 0. Run it on
// packets GroupValueLength (or GroupRecordCount) accepted, with `out`
// exactly L bytes long: the header pass is what checks that the r
// packets agree on L and that their segments cover it.
void DecodeGroupInto(NodeMask group, NodeId self,
                     std::span<const PacketView> packets, const IvAccess& iv,
                     const ValueWindow& out, CodecStats* stats = nullptr);

// ---- Packed record lists (the values CodedTeraSort shuffles) ----
//
// The wanted value is a packed record list (u64 count, then 100-byte
// records; see recordio.h).

// The number of records in the wanted value: GroupValueLength, which
// must be a packed record list's size.
std::size_t GroupRecordCount(NodeMask group, NodeId self,
                             std::span<const PacketView> packets);

// DecodeGroupInto straight into `records`, which holds exactly the
// GroupRecordCount that the header pass returned for these packets
// (the way DecodeGroupInto's `out` holds L): the value's leading count
// word goes to a local and must equal records.size().
void DecodeRecordsInto(NodeMask group, NodeId self,
                       std::span<const PacketView> packets,
                       const IvAccess& iv, std::span<Record> records,
                       CodecStats* stats = nullptr);

// ---- The packet-object front-end (tests and benches only) ----

// EncodeInto, returned as a packet object.
CodedPacket EncodePacket(NodeMask group, NodeId self, const IvAccess& iv,
                         CodecStats* stats = nullptr);

// One decoded segment of the receiver's wanted value I^self_{M\{self}}.
struct DecodedSegment {
  SegmentSpan span;                 // where it lands within the value
  std::vector<std::uint8_t> bytes;  // exactly span.length bytes
};

// DecodeInto for a packet object, returning the segment's bytes.
DecodedSegment DecodePacket(NodeMask group, NodeId self, NodeId sender,
                            const CodedPacket& packet, const IvAccess& iv,
                            CodecStats* stats = nullptr);

// Merges the r segments recovered in a group (any order) into the full
// serialized value I^self_{M\{self}}. Checks exact coverage.
std::vector<std::uint8_t> MergeSegments(
    std::span<const DecodedSegment> segments);

}  // namespace cts
