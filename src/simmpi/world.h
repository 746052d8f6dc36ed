// The simulated cluster: K worker nodes sharing a transport.
//
// A World replaces the paper's EC2 cluster + Open MPI runtime. It owns
// one Mailbox per node, the global TrafficStats, the communicator-id
// allocator and the rendezvous state for collective Comm::split calls.
// Node programs never touch World directly except to construct their
// world communicator (Comm::World).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "simmpi/mailbox.h"
#include "simmpi/traffic.h"

namespace cts::simmpi {

// Result of a split rendezvous for one participant: the new
// communicator's id and its member list (ordered by (key, node id)).
struct SplitResult {
  CommId comm_id = 0;
  std::vector<NodeId> members;
};

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

  // ---- Collective split rendezvous (backs Comm::split) ----
  //
  // Every member of the parent communicator (comm, epoch) calls this
  // exactly once with its (node, color, key). The call blocks until all
  // `expected` members have arrived; the last arrival partitions the
  // entries by color, orders each group by (key, node), and allocates
  // one fresh CommId per color in ascending color order (so ids are
  // deterministic). color < 0 means "not in any group" (MPI_UNDEFINED)
  // and yields nullopt.
  std::optional<SplitResult> split_rendezvous(CommId comm,
                                              std::uint64_t epoch,
                                              int expected, NodeId node,
                                              int color, int key);

  // Allocates a fresh communicator id (world comm is id 0).
  CommId allocate_comm_id() { return next_comm_id_.fetch_add(1); }

  // Allocates `count` consecutive ids and returns the first — used by
  // the batched group-creation extension so every member can derive
  // all group ids from a single broadcast base.
  CommId allocate_comm_id_block(CommId count) {
    return next_comm_id_.fetch_add(count);
  }

 private:
  struct SplitEntry {
    NodeId node;
    int color;
    int key;
  };

  struct SplitState {
    // repo-lint: allow(mutex): cold-path rendezvous — one lock per
    // in-flight split collective, never touched by the shuffle.
    std::mutex mu;
    std::condition_variable cv;
    std::vector<SplitEntry> entries;
    bool done = false;
    int readers_left = 0;
    std::map<NodeId, SplitResult> results;  // only colored participants
  };

  std::shared_ptr<SplitState> split_state(CommId comm, std::uint64_t epoch,
                                          int expected);
  void retire_split_state(CommId comm, std::uint64_t epoch);

  int num_nodes_;
  // Declared before the mailboxes that hold pointers into it.
  TransportRecorder recorder_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  TrafficStats stats_;

  // repo-lint: allow(mutex): cold-path split-state registry, taken
  // once per collective split, never on the message path.
  std::mutex split_mu_;
  std::map<std::pair<CommId, std::uint64_t>, std::shared_ptr<SplitState>>
      splits_;
  std::atomic<CommId> next_comm_id_{1};
};

}  // namespace cts::simmpi
