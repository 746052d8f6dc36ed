// Scenario descriptions for discrete-event replay of a full run.
//
// The paper prices every run on a homogeneous cluster with identical
// per-node links, yet Coded TeraSort's central tradeoff — pay r× more
// Map compute to cut Shuffle traffic — flips sign exactly when nodes
// are heterogeneous, links are oversubscribed, or a straggler
// stretches the redundant Map phase. A Scenario bundles the two
// orthogonal knobs the engine (simscen/engine.h) replays a run under:
//
//   * ClusterProfile — per-node compute-speed multipliers plus a
//     pluggable straggler model (deterministic slow node,
//     shifted-exponential per-stage factors, fail-stop outage);
//   * Topology — racks with per-node access links and an
//     oversubscribed core shared max-min among concurrent cross-rack
//     flows (simscen/netsim.h).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "simnet/transmission_log.h"

namespace cts::simscen {

// How a scenario perturbs per-node compute durations.
enum class StragglerKind {
  kNone,
  // One designated node runs all compute `slowdown`× slower — the
  // deterministic worst case of a degraded VM.
  kSlowNode,
  // Every (node, stage) pair draws an independent multiplicative
  // factor `shift + Exp(mean)` — the classic shifted-exponential
  // straggler model of the coded-computation literature. Deterministic
  // in `seed`.
  kShiftedExp,
  // One node halts at absolute scenario time `fail_at` and is offline
  // for `recovery` seconds; compute in flight on that node during the
  // outage window is suspended and resumes afterwards. (The outage
  // applies to compute phases; the barrier-synchronous protocol makes
  // every later stage on every node wait for it.)
  kFailStop,
};

struct StragglerModel {
  StragglerKind kind = StragglerKind::kNone;
  NodeId node = 0;        // target of kSlowNode / kFailStop
  double slowdown = 2.0;  // kSlowNode compute-time multiplier (>= 1)
  double shift = 1.0;     // kShiftedExp factor = shift + Exp(mean)
  double mean = 0.5;      // kShiftedExp mean of the exponential part
  double fail_at = 0.0;   // kFailStop outage start (scenario seconds)
  double recovery = 0.0;  // kFailStop outage length (seconds)
  std::uint64_t seed = 2017;  // kShiftedExp determinism
};

// Per-node compute capability. Baseline durations are divided by the
// node's speed multiplier, then stretched by the straggler model.
struct ClusterProfile {
  // speed[n] = node n's compute-speed multiplier (1.0 = calibrated
  // testbed node; 0.5 = half speed). Empty means all 1.0.
  std::vector<double> speed;
  StragglerModel straggler;

  static ClusterProfile Homogeneous(int num_nodes);

  double speed_of(NodeId node) const;

  // Multiplicative stretch the straggler model applies to node
  // `node`'s compute in stage `stage_index` (>= its program's first
  // stage = 0). kFailStop returns 1.0 — the outage is a time window,
  // applied by the engine, not a rate change.
  double straggler_factor(NodeId node, int stage_index) const;

  // Baseline compute seconds -> scenario seconds for one (node,
  // stage), before fail-stop outage accounting.
  double compute_seconds(NodeId node, int stage_index,
                         double baseline_seconds) const {
    return baseline_seconds / speed_of(node) *
           straggler_factor(node, stage_index);
  }
};

// Rack-structured network: every node owns a full-duplex (or, under a
// half-duplex discipline, shared) access link of `access_bytes_per_sec`
// into its rack switch; each rack's switch reaches the core through a
// finite uplink pipe (traffic leaving the rack) and downlink pipe
// (traffic entering it), and racks interconnect through one core pipe
// of `core_bytes_per_sec` that every cross-rack flow traverses. All
// three inter-rack pipes are fluid resources shared max-min among the
// flows crossing them; each defaults to infinity, and with all of them
// infinite the fabric is non-blocking: only the per-node access links
// constrain the replay.
struct Topology {
  int num_nodes = 0;
  // Nodes per rack; <= 0 or >= num_nodes means a single rack. Rack of
  // node n is n / nodes_per_rack.
  int nodes_per_rack = 0;
  double access_bytes_per_sec = kPaperLinkBytesPerSec * kTcpEfficiency;
  double core_bytes_per_sec = std::numeric_limits<double>::infinity();
  // Per-rack switch-to-core pipes, shared by every flow leaving
  // (uplink) or entering (downlink) the rack. Infinite = the
  // pre-rack-pipe model where only the core constrains cross-rack
  // traffic.
  double rack_uplink_bytes_per_sec = std::numeric_limits<double>::infinity();
  double rack_downlink_bytes_per_sec =
      std::numeric_limits<double>::infinity();
  // Sender-side penalty coefficient for application-layer multicast
  // (the same kMulticastLogCoeff constant as CostModel's).
  double multicast_log_coeff = kMulticastLogCoeff;
  // Rack-aware application-layer multicast: the sender emits one copy
  // per destination *rack* (the rack switch replicates locally), so
  // the sender-side fanout penalty counts distinct destination racks
  // and a destination rack's downlink carries the payload once no
  // matter how many of its nodes receive. Off by default — the
  // paper's transport replicates per receiver at the sender, and the
  // degenerate-replay equalities are pinned against that model.
  bool rack_aware_multicast = false;

  // Field by field: every field the flow DES reads is compared, so
  // equal topologies replay a log identically (simscen::NetworkMemo).
  bool operator==(const Topology&) const = default;

  static Topology SingleRack(int num_nodes);

  // `factor`:1 oversubscription: the core pipe carries
  // num_nodes * access / factor. factor = 1 is a non-blocking fabric
  // expressed with a finite core; larger factors starve cross-rack
  // traffic.
  static Topology Oversubscribed(int num_nodes, int nodes_per_rack,
                                 double factor);

  // Per-rack oversubscription: on top of Oversubscribed(...)'s shared
  // core, each rack's uplink (downlink) pipe carries
  // nodes_per_rack * access / up_factor (down_factor). A factor <= 0
  // leaves that pipe infinite.
  static Topology RackOversubscribed(int num_nodes, int nodes_per_rack,
                                     double core_factor, double up_factor,
                                     double down_factor);

  int rack_of(NodeId node) const;
  int num_racks() const;

  // True if the transmission reaches at least one node outside the
  // sender's rack (and therefore traverses the core).
  bool crosses_core(const simnet::Transmission& t) const;

  // The one rule for where a transmission's payload goes: calls
  // visit(rack, copies) for each rack `t` delivers into, in ascending
  // rack order (the sender's own rack included when a receiver sits
  // there), with the copies of the payload that enter it: one per
  // receiver there, or one under rack_aware_multicast. The copy counts
  // are whole numbers held as doubles. multicast_penalty,
  // CrossRackBytes and the flow DES's downlink pipes all read it.
  template <typename Visit>
  void for_each_rack_copies(const simnet::Transmission& t,
                            Visit&& visit) const {
    for (int done = -1;;) {
      int rack = std::numeric_limits<int>::max();
      double receivers = 0;
      for (const NodeId d : t.dsts) {
        const int r = rack_of(d);
        if (r <= done || r > rack) continue;
        if (r < rack) {
          rack = r;
          receivers = 0;
        }
        receivers += 1.0;
      }
      if (receivers == 0) return;
      visit(rack, rack_aware_multicast ? 1.0 : receivers);
      done = rack;
    }
  }

  // Sender-side multicast stream penalty (the application-layer copy
  // count folded into a unicast-rate multiplier): the fanout is the
  // total copies over every rack the transmission enters — its
  // receiver count, or under rack_aware_multicast the number of
  // distinct racks it reaches (its own rack's switch counts once).
  // 1 + coeff·log2(fanout) for a fanout above 1, exactly 1 for a
  // unicast.
  double multicast_penalty(const simnet::Transmission& t) const;

  bool core_is_finite() const {
    return core_bytes_per_sec < std::numeric_limits<double>::infinity();
  }
  // True if either per-rack pipe constrains (the flow DES only takes
  // its generalized multi-pipe path when this is set, keeping the
  // shared-core arithmetic bit-for-bit otherwise).
  bool rack_pipes_finite() const {
    return rack_uplink_bytes_per_sec <
               std::numeric_limits<double>::infinity() ||
           rack_downlink_bytes_per_sec <
               std::numeric_limits<double>::infinity();
  }
};

// Payload bytes that cross a rack boundary under this topology — the
// traffic a cloud bills as inter-AZ egress (analytics::DollarCost).
// Each transmission contributes bytes × (copies entering other racks):
// one copy per cross-rack receiver, or one per distinct destination
// rack under rack_aware_multicast.
double CrossRackBytes(const simnet::TransmissionLog& log,
                      const Topology& topology);

}  // namespace cts::simscen
