// The simulated cluster: K worker nodes sharing a transport.
//
// A World replaces the paper's EC2 cluster + Open MPI runtime. It owns
// one Mailbox per node, the global TrafficStats and the communicator-id
// allocator. Node programs never touch World directly except to
// construct their world communicator (Comm::World).
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "simmpi/mailbox.h"
#include "simmpi/traffic.h"

namespace cts::simmpi {

class World {
 public:
  // Not capped at kMaxNodes: the transport itself is mask-free, so
  // live clusters can exceed the coded placement limit (TeraSort runs
  // at K~100; only mask-indexed placements cap at kMaxNodes).
  explicit World(int num_nodes)
      : num_nodes_(num_nodes), stats_(num_nodes) {
    CTS_CHECK_GE(num_nodes, 1);
    mailboxes_.reserve(static_cast<std::size_t>(num_nodes));
    for (int i = 0; i < num_nodes; ++i) {
      mailboxes_.push_back(std::make_unique<Mailbox>(i, &recorder_));
    }
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int num_nodes() const { return num_nodes_; }
  TrafficStats& stats() { return stats_; }
  const TrafficStats& stats() const { return stats_; }

  Mailbox& mailbox(NodeId node) {
    CTS_CHECK_GE(node, 0);
    CTS_CHECK_LT(node, num_nodes_);
    return *mailboxes_[static_cast<std::size_t>(node)];
  }

  // Messages still queued anywhere (should be 0 after clean shutdown).
  std::size_t pending_messages() const {
    std::size_t n = 0;
    for (const auto& mb : mailboxes_) n += mb->pending();
    return n;
  }

  // Transport events captured during this World's lifetime, merged in
  // stamp order — empty unless TransportRecorder::RequestCapture(true)
  // was set before construction. Call after the node threads joined.
  TransportLog transport_log() const { return recorder_.Snapshot(); }

  // Allocates `count` consecutive communicator ids and returns the
  // first (the world comm is id 0), so Comm::create_groups' members
  // derive every group's id from one reply.
  CommId allocate_comm_ids(CommId count) {
    return next_comm_id_.fetch_add(count);
  }

  // Fails the run: every receive blocked in any mailbox wakes with
  // WorldAborted, and every later receive fails the same way.
  // RunOnCluster calls it when a node program throws.
  void abort() {
    for (const auto& mb : mailboxes_) mb->abort();
  }

 private:
  int num_nodes_;
  // Declared before the mailboxes that hold pointers into it.
  TransportRecorder recorder_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  TrafficStats stats_;

  std::atomic<CommId> next_comm_id_{1};
};

}  // namespace cts::simmpi
