// Per-stage traffic accounting.
//
// The EC2 network of the paper is replaced by an in-memory transport;
// what the cost model needs from it is exact per-stage counts of what
// *would* have crossed the 100 Mbps links: unicast payload bytes and
// message counts (TeraSort shuffle), multicast payload bytes, message
// counts and fan-out (CodedTeraSort shuffle), and communicator
// creations (CodeGen). Stages are barrier-synchronized in both
// algorithms (the paper executes stages "one after another in a
// synchronous manner"), so a single global current-stage label is
// sufficient and race-free between barriers.
//
// Scale: at K~100 every shuffle send from every node thread hits this
// object, so the counters are sharded. A stage holds kStripes stripes,
// each with its own mutex, counter block, per-node byte vector and
// transmission-log shard; a record locks only stripe (src mod
// kStripes). Readers aggregate the stripes (counter sums, element-wise
// per-node sums, log merge by seq). Seq numbers come from one per-stage
// atomic, consumed only when an entry is actually logged, so the merged
// log still satisfies the simnet contract: seqs unique per stage,
// contiguous from 0, and within one sender seq order IS program order
// (a node thread draws its seqs sequentially).
//
// set_stage contract vs. overlapped shuffles (audited): set_stage must
// be called only between stage barriers (all nodes quiescent). The
// ShuffleSync::kOverlapped paths satisfy this because nonblocking sends
// account at INITIATION (see comm.h) and every initiation happens
// inside the stage body, i.e. after StageRunner's label barrier and
// before the next stage's entry barrier — bytes initiated before a
// relabel are attributed to the initiating stage even if the matching
// wait() drains after it. The relabel itself is an atomic pointer swap,
// so a racing record (a contract violation) would still land intact on
// one side or the other, never on a torn stage.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "simnet/transmission_log.h"

namespace cts::simmpi {

// Registry counter bumped whenever a recorder finds its stripe mutex
// already held (the lock is still taken — the counter just makes
// sharding effectiveness observable). Resolved once per process; the
// uncontended fast path costs one try_lock instead of one lock.
inline obs::Counter& StripeContentionCounter() {
  static obs::Counter& c =
      obs::MetricRegistry::Global().counter("simmpi/stripe_lock_contention");
  return c;
}

// Locks `mu`, counting (but not avoiding) contention.
// repo-lint: allow(mutex): this IS the striped-lock helper — it takes
// repo-lint: allow(mutex): a stripe's mutex, it does not declare one.
inline std::unique_lock<std::mutex> LockStripe(std::mutex& mu) {
  std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    StripeContentionCounter().add();
    lock.lock();
  }
  return lock;
}

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
  std::uint64_t comm_creations = 0;      // communicator-split results

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
// record_multicast_batch: a whole round of them is priced under a
// single stripe lock and a single seq-block reservation.
struct MulticastEvent {
  std::uint64_t bytes = 0;
  NodeId src = -1;
  std::vector<NodeId> recipients;  // ascending node order
};

// Thread-safe per-stage counter registry (sharded; see file comment).
class TrafficStats {
 public:
  explicit TrafficStats(int num_nodes = 0) : num_nodes_(num_nodes) {
    current_.store(materialize("", /*named=*/false),
                   std::memory_order_release);
  }

  TrafficStats(const TrafficStats&) = delete;
  TrafficStats& operator=(const TrafficStats&) = delete;

  // Sets the label under which subsequent traffic is recorded.
  // Call only between stage barriers (all nodes quiescent) — see the
  // overlapped-shuffle audit in the file comment.
  void set_stage(const std::string& stage) {
    current_.store(materialize(stage, /*named=*/true),
                   std::memory_order_release);
  }

  std::string current_stage() const {
    return current_.load(std::memory_order_acquire)->name;
  }

  void record_unicast(std::uint64_t bytes, NodeId src = -1,
                      NodeId dst = -1) {
    Stage& s = *current_.load(std::memory_order_acquire);
    Stripe& st = s.stripe_for(src);
    const auto lock = LockStripe(st.mu);
    ++st.counters.unicast_msgs;
    st.counters.unicast_bytes += bytes;
    if (src >= 0) st.node_traffic(num_nodes_, src).tx_bytes += bytes;
    if (dst >= 0) st.node_traffic(num_nodes_, dst).rx_bytes += bytes;
    if (src >= 0 && dst >= 0) {
      st.log.push_back(
          {src, {dst}, bytes,
           s.next_seq.fetch_add(1, std::memory_order_relaxed)});
    }
  }

  void record_multicast(std::uint64_t bytes, int receivers,
                        NodeId src = -1,
                        const std::vector<NodeId>& recipients = {}) {
    Stage& s = *current_.load(std::memory_order_acquire);
    Stripe& st = s.stripe_for(src);
    const auto lock = LockStripe(st.mu);
    ++st.counters.mcast_msgs;
    st.counters.mcast_bytes += bytes;
    st.counters.mcast_recipient_bytes +=
        bytes * static_cast<std::uint64_t>(receivers);
    // One transmission occupies the sender's uplink once; each
    // recipient's downlink carries a full copy.
    if (src >= 0) st.node_traffic(num_nodes_, src).tx_bytes += bytes;
    for (const NodeId d : recipients) {
      st.node_traffic(num_nodes_, d).rx_bytes += bytes;
    }
    if (src >= 0 && !recipients.empty()) {
      st.log.push_back(
          {src, recipients, bytes,
           s.next_seq.fetch_add(1, std::memory_order_relaxed)});
    }
  }

  // Batched accounting for one sender's multicast round: every event
  // must have the SAME src (one stripe), and the per-event fan-out is
  // recipients.size(). Equivalent to calling record_multicast once per
  // event, but with a single lock acquisition and a single contiguous
  // seq block — per-sender program order is preserved because the
  // block is drawn by the sending thread itself.
  void record_multicast_batch(const std::vector<MulticastEvent>& events) {
    if (events.empty()) return;
    Stage& s = *current_.load(std::memory_order_acquire);
    const NodeId src = events.front().src;
    std::uint64_t seq =
        s.next_seq.fetch_add(events.size(), std::memory_order_relaxed);
    Stripe& st = s.stripe_for(src);
    const auto lock = LockStripe(st.mu);
    for (const MulticastEvent& e : events) {
      ++st.counters.mcast_msgs;
      st.counters.mcast_bytes += e.bytes;
      st.counters.mcast_recipient_bytes +=
          e.bytes * static_cast<std::uint64_t>(e.recipients.size());
      if (e.src >= 0) st.node_traffic(num_nodes_, e.src).tx_bytes += e.bytes;
      for (const NodeId d : e.recipients) {
        st.node_traffic(num_nodes_, d).rx_bytes += e.bytes;
      }
      if (e.src >= 0 && !e.recipients.empty()) {
        st.log.push_back({e.src, e.recipients, e.bytes, seq});
      }
      ++seq;
    }
  }

  void record_comm_creation(std::uint64_t count = 1) {
    Stage& s = *current_.load(std::memory_order_acquire);
    Stripe& st = s.stripes[0];  // creations carry no src; stripe 0
    const auto lock = LockStripe(st.mu);
    st.counters.comm_creations += count;
  }

  ChannelCounters stage(const std::string& name) const {
    std::lock_guard lock(mu_);
    const auto it = stages_.find(name);
    return it == stages_.end() ? ChannelCounters{}
                               : it->second->aggregate();
  }

  ChannelCounters total() const {
    std::lock_guard lock(mu_);
    ChannelCounters t;
    for (const auto& [name, s] : stages_) t += s->aggregate();
    return t;
  }

  std::vector<std::string> stage_names() const {
    std::lock_guard lock(mu_);
    std::vector<std::string> names;
    names.reserve(stages_.size());
    for (const auto& [name, s] : stages_) {
      // The default "" stage exists from construction so the atomic
      // current-stage pointer is never null; report it only if it was
      // explicitly set or actually absorbed traffic.
      if (!s->named && s->empty()) continue;
      names.push_back(name);
    }
    return names;
  }

  // Per-node tx/rx for one stage (empty vector if none recorded or
  // the stats were constructed without a node count).
  std::vector<NodeTraffic> per_node(const std::string& stage) const {
    std::lock_guard lock(mu_);
    const auto it = stages_.find(stage);
    return it == stages_.end() ? std::vector<NodeTraffic>{}
                               : it->second->aggregate_per_node();
  }

  // Ordered transmissions of one stage (initiation order), for
  // discrete-event replay by simscen::NetMakespan.
  simnet::TransmissionLog transmission_log(const std::string& stage) const {
    std::lock_guard lock(mu_);
    const auto it = stages_.find(stage);
    return it == stages_.end() ? simnet::TransmissionLog{}
                               : it->second->merged_log();
  }

  // Call only while no node thread is recording (same quiescence
  // requirement as set_stage).
  void reset() {
    std::lock_guard lock(mu_);
    stages_.clear();
    current_.store(materialize_locked("", /*named=*/false),
                   std::memory_order_release);
  }

 private:
  // Stripe count: enough that K~100 sender threads rarely collide on
  // one mutex, small enough that read-side aggregation stays trivial.
  static constexpr int kStripes = 32;

  struct Stripe {
    // repo-lint: allow(mutex): this IS the striped lock — one of
    // kStripes per-source shards, taken via LockStripe.
    mutable std::mutex mu;
    ChannelCounters counters;
    std::vector<NodeTraffic> per_node;
    simnet::TransmissionLog log;

    // Requires mu held.
    NodeTraffic& node_traffic(int num_nodes, NodeId node) {
      if (per_node.size() <= static_cast<std::size_t>(node)) {
        per_node.resize(
            std::max<std::size_t>(static_cast<std::size_t>(num_nodes),
                                  static_cast<std::size_t>(node) + 1));
      }
      return per_node[static_cast<std::size_t>(node)];
    }
  };

  struct Stage {
    std::string name;
    bool named = false;  // true once set_stage names this stage
    std::atomic<std::uint64_t> next_seq{0};
    Stripe stripes[kStripes];

    Stripe& stripe_for(NodeId src) {
      return stripes[src >= 0 ? src % kStripes : 0];
    }

    ChannelCounters aggregate() const {
      ChannelCounters t;
      for (const Stripe& st : stripes) {
        std::lock_guard lock(st.mu);
        t += st.counters;
      }
      return t;
    }

    bool empty() const {
      const ChannelCounters t = aggregate();
      return t.unicast_msgs == 0 && t.unicast_bytes == 0 &&
             t.mcast_msgs == 0 && t.comm_creations == 0 &&
             next_seq.load(std::memory_order_relaxed) == 0;
    }

    std::vector<NodeTraffic> aggregate_per_node() const {
      std::vector<NodeTraffic> out;
      for (const Stripe& st : stripes) {
        std::lock_guard lock(st.mu);
        if (st.per_node.size() > out.size()) out.resize(st.per_node.size());
        for (std::size_t i = 0; i < st.per_node.size(); ++i) {
          out[i].tx_bytes += st.per_node[i].tx_bytes;
          out[i].rx_bytes += st.per_node[i].rx_bytes;
        }
      }
      return out;
    }

    simnet::TransmissionLog merged_log() const {
      simnet::TransmissionLog out;
      for (const Stripe& st : stripes) {
        std::lock_guard lock(st.mu);
        out.insert(out.end(), st.log.begin(), st.log.end());
      }
      // Stable on seq: seqs are unique within a stage, but a stable
      // sort additionally guarantees the emitted log is byte-identical
      // across stripe-merge orders even if a future caller merges logs
      // with duplicate seqs — traces and trace-derived metrics must be
      // reproducible run-to-run.
      std::stable_sort(
          out.begin(), out.end(),
          [](const simnet::Transmission& a, const simnet::Transmission& b) {
            return a.seq < b.seq;
          });
      return out;
    }
  };

  Stage* materialize(const std::string& stage, bool named) {
    std::lock_guard lock(mu_);
    return materialize_locked(stage, named);
  }

  // Requires mu_ held.
  Stage* materialize_locked(const std::string& stage, bool named) {
    auto& slot = stages_[stage];
    if (!slot) {
      slot = std::make_unique<Stage>();
      slot->name = stage;
    }
    if (named) slot->named = true;
    return slot.get();
  }

  int num_nodes_;
  // repo-lint: allow(mutex): guards stages_ (the cold stage-name
  // registry), never the per-record hot path.
  mutable std::mutex mu_;
  // Stage objects are owned by stages_ and never destroyed before
  // reset(), so the lock-free pointer below cannot dangle.
  std::map<std::string, std::unique_ptr<Stage>> stages_;
  std::atomic<Stage*> current_;
};

}  // namespace cts::simmpi
