// Ordered log of every shuffle transmission.
//
// The analytics cost model prices shuffles with closed forms (serial:
// sum of transmissions; parallel: per-node link occupancy). The simnet
// module provides an independent check: the transport logs each
// transmission in initiation order, and a discrete-event simulator
// (schedule.h) replays the log under a network discipline to produce a
// makespan. Tests assert the closed forms and the event simulation
// agree where they must, and the bench harness uses the simulator for
// schedules where closed forms are only bounds.
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
// sequentially), which is what the per-sender replay discipline relies
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

}  // namespace cts::simnet
