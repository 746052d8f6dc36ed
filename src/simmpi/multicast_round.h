// One full multicast shuffle round over per-group communicators,
// shared by CodedTeraSort and the coded CMR engine: every member of
// each group broadcasts its packet and collects the other members'
// packets, under either the paper's serial schedule or the overlapped
// (nonblocking) one.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/types.h"
#include "simmpi/comm.h"

namespace cts::simmpi {

// Runs the round for the calling node. `groups` holds the group
// communicators this node belongs to, keyed by node mask; outgoing[g]
// is the packet it broadcasts in group g. Returns the packets
// received, keyed by (group, sender node). No packet is copied: each
// outgoing[g] becomes one shared, read-only payload that the root and
// its recipients hold (Comm::bcast).
//
// Serial (overlapped = false): groups in ascending-mask order — which
// is colex order for fixed-size subsets, i.e. the paper's Fig. 9(b)
// schedule — with members broadcasting in ascending rank order; the
// blocking bcast receives force each root to wait for its turn.
// Overlapped: every member posts receives for all its groups' packets
// (ibcast_recv), fires its own multicast in every group without
// waiting for a turn, then drains — the whole round is in flight at
// once. The overlapped path accounts its whole round of sends in ONE
// TrafficStats::record_multicast_batch call (same counters and
// per-sender log order as per-bcast accounting; one lock instead of
// C(K-1, r) per node).
inline std::map<std::pair<NodeMask, NodeId>, Buffer> MulticastRound(
    std::map<NodeMask, Comm>& groups, std::map<NodeMask, Buffer>& outgoing,
    bool overlapped) {
  std::map<std::pair<NodeMask, NodeId>, Buffer> incoming;
  if (overlapped) {
    std::vector<std::pair<std::pair<NodeMask, NodeId>, Request>> recvs;
    for (auto& [g, gc] : groups) {
      for (int root = 0; root < gc.size(); ++root) {
        if (gc.rank() == root) continue;
        recvs.emplace_back(std::pair{g, gc.global(root)},
                           gc.ibcast_recv(root));
      }
    }
    std::vector<MulticastEvent> events;
    events.reserve(groups.size());
    for (auto& [g, gc] : groups) {
      if (gc.size() <= 1) continue;  // mirror bcast's singleton no-op
      MulticastEvent e;
      e.bytes = outgoing.at(g).size();
      e.src = gc.my_global();
      e.recipients.reserve(static_cast<std::size_t>(gc.size()) - 1);
      for (int m = 0; m < gc.size(); ++m) {
        if (m != gc.rank()) e.recipients.push_back(gc.global(m));
      }
      events.push_back(std::move(e));
    }
    if (!groups.empty()) {
      groups.begin()->second.world().stats().record_multicast_batch(events);
    }
    for (auto& [g, gc] : groups) {
      if (gc.size() <= 1) continue;
      gc.bcast_put(outgoing.at(g));
    }
    for (auto& [key, req] : recvs) incoming.emplace(key, Comm::wait(req));
  } else {
    for (auto& [g, gc] : groups) {
      for (int root = 0; root < gc.size(); ++root) {
        if (gc.rank() == root) {
          gc.bcast(root, outgoing.at(g));
        } else {
          Buffer payload;
          gc.bcast(root, payload);
          incoming.emplace(std::pair{g, gc.global(root)},
                           std::move(payload));
        }
      }
    }
  }
  return incoming;
}

}  // namespace cts::simmpi
