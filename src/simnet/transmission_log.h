// Ordered log of every shuffle transmission, and the vocabulary a log
// is replayed under.
//
// The analytics cost model prices shuffles with closed forms (serial:
// sum of transmissions; parallel: per-node link occupancy). The
// transport also logs each transmission in initiation order, and the
// scenario engine's flow DES (simscen::NetMakespan) replays the log
// under a Discipline and a ReplayOrder to produce a makespan where
// the closed forms are only bounds.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace cts::simnet {

// One transmission: a unicast has a single destination; an
// application-layer multicast lists all receivers of the single
// logical transmission.
//
// `seq` is the global arrival index within the stage: drawn from an
// atomic counter at the instant a send reaches the transport, it
// equals the entry's position in the stage's log. It is arrival order,
// not schedule order: node threads race to the transport, so the same
// spec can log a different interleaving of senders on every execution,
// barrier-synchronous runs included (a blocking send returns as soon
// as the payload is queued, and a node starts its own sends the moment
// the message it waits for arrives). Only within one sender is seq
// order program order (a node thread initiates its sends
// sequentially), which is what the per-sender replay order relies
// on. Seqs are unique within a stage; logs of DIFFERENT stages must not
// be mixed, their seqs restart at 0.
struct Transmission {
  NodeId src = 0;
  std::vector<NodeId> dsts;
  std::uint64_t bytes = 0;
  std::uint64_t seq = 0;

  bool is_multicast() const { return dsts.size() > 1; }
};

using TransmissionLog = std::vector<Transmission>;

// Network discipline a log is replayed under.
enum class Discipline {
  kSerial,              // shared medium, one transmission at a time
  kParallelHalfDuplex,  // per-node links; tx and rx share one link
  kParallelFullDuplex,  // per-node links; tx and rx independent
};

// What constrains the order in which queued transmissions may start
// on per-node links (kSerial ignores it: a sum is order-free).
enum class ReplayOrder {
  // Per-link FIFO in log order: a transmission starts only once every
  // earlier log entry that needs one of its links has released that
  // link. Because the log is arrival order, this replays whichever
  // interleaving the run happened to record.
  kLogOrder,
  // Per-sender program order: a sender's own transmissions start in
  // seq order, while independent senders start whenever their links
  // are free; simultaneous starts go to the lower sender id first.
  // This prices a fully asynchronous initiation of the same traffic,
  // and is deterministic, because per-sender order is program order.
  kPerSender,
};

}  // namespace cts::simnet
