// Per-stage traffic accounting.
//
// The EC2 network of the paper is replaced by an in-memory transport;
// what the cost model needs from it is exact per-stage counts of what
// *would* have crossed the 100 Mbps links: unicast payload bytes and
// message counts (TeraSort shuffle), multicast payload bytes, message
// counts and fan-out (CodedTeraSort shuffle), and communicator
// creations (CodeGen).
//
// Each node has its own current-stage label, which only that node's
// StageRunner sets, right after the barrier that opens the stage
// (driver/cluster.h). A transmission, and a comm creation, is charged
// to its sender's label. The sender records it from its own thread
// inside the stage body, so the label it reads is the one it set
// itself: no relabel can race a record, under the barrier schedules
// and the overlapped ones alike (nonblocking sends account at
// initiation, see comm.h).
//
// One mutex guards every stage. A record bumps the sender's stage's
// counters and appends its transmission to that stage's log, so the
// log meets the simnet contract by construction: within one sender,
// log order IS program order (a node thread records its sends in
// sequence). Per-node tx/rx bytes are folded from that log when read,
// not kept a second time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "simnet/transmission_log.h"

namespace cts::simmpi {

// Per-node transmit/receive byte totals within one stage. The serial
// shuffles of the paper only need the global totals, but the
// asynchronous-execution extension (paper Section VI, third future
// direction) prices a parallel shuffle as max over nodes of per-node
// link occupancy, which needs this split.
struct NodeTraffic {
  std::uint64_t tx_bytes = 0;  // bytes this node put on its uplink
  std::uint64_t rx_bytes = 0;  // bytes delivered to this node
};

// Counters for one named stage.
struct ChannelCounters {
  std::uint64_t unicast_msgs = 0;
  std::uint64_t unicast_bytes = 0;       // payload bytes sent point-to-point
  std::uint64_t mcast_msgs = 0;          // one per MPI_Bcast-style send
  std::uint64_t mcast_bytes = 0;         // payload bytes transmitted once
  std::uint64_t mcast_recipient_bytes = 0;  // payload * number of receivers
  std::uint64_t comm_creations = 0;      // communicators created

  bool operator==(const ChannelCounters&) const = default;

  ChannelCounters& operator+=(const ChannelCounters& o) {
    unicast_msgs += o.unicast_msgs;
    unicast_bytes += o.unicast_bytes;
    mcast_msgs += o.mcast_msgs;
    mcast_bytes += o.mcast_bytes;
    mcast_recipient_bytes += o.mcast_recipient_bytes;
    comm_creations += o.comm_creations;
    return *this;
  }

  // Total bytes a serial shared channel must carry: each unicast and
  // each multicast transmission occupies the channel once.
  std::uint64_t transmitted_bytes() const {
    return unicast_bytes + mcast_bytes;
  }
};

// One logical multicast of an overlapped round, for
// record_multicast_batch: a whole round of them is recorded under a
// single lock acquisition.
struct MulticastEvent {
  std::uint64_t bytes = 0;
  NodeId src = 0;
  std::vector<NodeId> recipients;  // ascending node order
};

// Thread-safe per-stage counter registry (see file comment).
class TrafficStats {
 public:
  explicit TrafficStats(int num_nodes)
      : num_nodes_(num_nodes),
        current_(static_cast<std::size_t>(num_nodes), &stages_[""]) {}

  TrafficStats(const TrafficStats&) = delete;
  TrafficStats& operator=(const TrafficStats&) = delete;

  // Sets the label under which `node`'s subsequent transmissions and
  // comm creations are recorded. Called by the node's own StageRunner.
  void set_stage(NodeId node, const std::string& stage) {
    std::lock_guard lock(mu_);
    Stage& s = stages_[stage];
    s.named = true;
    current_of(node) = &s;
  }

  void record_unicast(std::uint64_t bytes, NodeId src, NodeId dst) {
    std::lock_guard lock(mu_);
    Stage& s = *current_of(src);
    ++s.counters.unicast_msgs;
    s.counters.unicast_bytes += bytes;
    s.log.push_back({src, {dst}, bytes});
  }

  // One multicast with fan-out recipients.size().
  void record_multicast(std::uint64_t bytes, NodeId src,
                        const std::vector<NodeId>& recipients) {
    std::lock_guard lock(mu_);
    AppendMulticast(*current_of(src), bytes, src, recipients);
  }

  // Batched accounting for one sender's multicast round. Equivalent to
  // calling record_multicast once per event, but with a single lock
  // acquisition, so the round's entries land contiguously in the
  // sender's program order.
  void record_multicast_batch(const std::vector<MulticastEvent>& events) {
    if (events.empty()) return;
    std::lock_guard lock(mu_);
    for (const MulticastEvent& e : events) {
      AppendMulticast(*current_of(e.src), e.bytes, e.src, e.recipients);
    }
  }

  // `count` communicators created by `node`.
  void record_comm_creation(NodeId node, std::uint64_t count) {
    std::lock_guard lock(mu_);
    current_of(node)->counters.comm_creations += count;
  }

  ChannelCounters stage(const std::string& name) const {
    std::lock_guard lock(mu_);
    const auto it = stages_.find(name);
    return it == stages_.end() ? ChannelCounters{} : it->second.counters;
  }

  ChannelCounters total() const {
    std::lock_guard lock(mu_);
    ChannelCounters t;
    for (const auto& [name, s] : stages_) t += s.counters;
    return t;
  }

  std::vector<std::string> stage_names() const {
    std::lock_guard lock(mu_);
    std::vector<std::string> names;
    names.reserve(stages_.size());
    for (const auto& [name, s] : stages_) {
      // The default "" stage exists from construction so no node's
      // current-stage pointer is ever null; report it only if it was
      // explicitly set or actually absorbed traffic.
      if (!s.named && s.empty()) continue;
      names.push_back(name);
    }
    return names;
  }

  // Per-node tx/rx for one stage, folded from its log: each entry adds
  // its bytes to tx at src and to rx at every destination. num_nodes
  // entries (more if a node id is larger); empty when the stage logged
  // nothing.
  std::vector<NodeTraffic> per_node(const std::string& stage) const {
    std::lock_guard lock(mu_);
    std::vector<NodeTraffic> out;
    const auto it = stages_.find(stage);
    if (it == stages_.end()) return out;
    const auto at = [&](NodeId node) -> NodeTraffic& {
      const auto i = static_cast<std::size_t>(node);
      if (out.size() <= i) {
        out.resize(std::max(static_cast<std::size_t>(num_nodes_), i + 1));
      }
      return out[i];
    };
    for (const simnet::Transmission& t : it->second.log) {
      at(t.src).tx_bytes += t.bytes;
      for (const NodeId d : t.dsts) at(d).rx_bytes += t.bytes;
    }
    return out;
  }

  // One stage's transmissions in arrival order, for discrete-event
  // replay by simscen::NetMakespan.
  simnet::TransmissionLog transmission_log(const std::string& stage) const {
    std::lock_guard lock(mu_);
    const auto it = stages_.find(stage);
    return it == stages_.end() ? simnet::TransmissionLog{} : it->second.log;
  }

 private:
  struct Stage {
    bool named = false;  // true once set_stage names this stage
    ChannelCounters counters;
    simnet::TransmissionLog log;

    bool empty() const {
      return counters.unicast_msgs == 0 && counters.unicast_bytes == 0 &&
             counters.mcast_msgs == 0 && counters.comm_creations == 0;
    }
  };

  Stage*& current_of(NodeId node) {
    CTS_CHECK_GE(node, 0);
    CTS_CHECK_LT(node, num_nodes_);
    return current_[static_cast<std::size_t>(node)];
  }

  static void AppendMulticast(Stage& s, std::uint64_t bytes, NodeId src,
                              const std::vector<NodeId>& recipients) {
    ++s.counters.mcast_msgs;
    s.counters.mcast_bytes += bytes;
    s.counters.mcast_recipient_bytes +=
        bytes * static_cast<std::uint64_t>(recipients.size());
    s.log.push_back({src, recipients, bytes});
  }

  const int num_nodes_;
  // One lock for every record. Live walls at coded K = 32 and 48
  // (r = 3, batched CodeGen, 200 k records) and TeraSort K = 100 stayed
  // within the 32-stripe recorder's spread under both syncs (4-vCPU
  // VM, g++ 12; an overlapped round takes it once per sender).
  // repo-lint: allow(mutex): not a scalability hazard, measured above.
  mutable std::mutex mu_;
  // std::map nodes are stable, so the labels stay valid.
  std::map<std::string, Stage> stages_;
  // Each node's current stage, indexed by node id.
  std::vector<Stage*> current_;
};

}  // namespace cts::simmpi
