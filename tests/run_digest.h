// FNV-1a digest of everything a live sort run reports except wall
// times, shared by the golden-digest tests of TeraSort and
// CodedTeraSort.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "driver/run_result.h"
#include "keyvalue/teravalidate.h"

namespace cts {

// Hashes every NodeWork field (CodecStats included), the per-stage
// traffic, the per-node shuffle traffic, the stage sequence, each
// node's compute-event stages, the shuffle log in per-sender order
// (the log's own order is arrival order at the transport, which
// threads race for; within one sender it is program order) and each
// partition's checksum.
inline std::uint64_t RunDigest(const AlgorithmResult& run) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  const auto add = [&byte](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  const auto add_name = [&](const std::string& name) {
    add(name.size());
    for (const char ch : name) byte(static_cast<std::uint8_t>(ch));
  };
  add(run.work.size());
  for (const NodeWork& w : run.work) {
    for (const std::uint64_t v :
         {w.map_bytes, w.map_files, w.pack_bytes, w.unpack_bytes,
          w.reduce_bytes, w.codec.packets_encoded, w.codec.encode_xor_bytes,
          w.codec.encode_payload_bytes, w.codec.packets_decoded,
          w.codec.decode_xor_bytes, w.codec.decoded_bytes}) {
      add(v);
    }
  }
  add(run.traffic.size());
  for (const auto& [stage_name, c] : run.traffic) {
    add_name(stage_name);
    for (const std::uint64_t v :
         {c.unicast_msgs, c.unicast_bytes, c.mcast_msgs, c.mcast_bytes,
          c.mcast_recipient_bytes, c.comm_creations}) {
      add(v);
    }
  }
  add(run.shuffle_node_traffic.size());
  for (const simmpi::NodeTraffic& t : run.shuffle_node_traffic) {
    add(t.tx_bytes);
    add(t.rx_bytes);
  }
  add(run.stage_order.size());
  for (const std::string& name : run.stage_order) add_name(name);
  add(run.compute_events.size());
  for (const ComputeEvent& ev : run.compute_events) {
    add_name(ev.stage);
    add(static_cast<std::uint64_t>(ev.node));
  }
  simnet::TransmissionLog log = run.shuffle_log;
  std::stable_sort(log.begin(), log.end(),
                   [](const auto& a, const auto& b) { return a.src < b.src; });
  add(log.size());
  for (const simnet::Transmission& t : log) {
    add(static_cast<std::uint64_t>(t.src));
    add(t.dsts.size());
    for (const NodeId d : t.dsts) add(static_cast<std::uint64_t>(d));
    add(t.bytes);
  }
  add(run.partitions.size());
  for (const auto& p : run.partitions) {
    const RecordChecksum sum = ChecksumOfRecords(p);
    add(sum.count);
    add(sum.xor_hash);
    add(sum.sum_hash);
  }
  return h;
}

}  // namespace cts
