// Straggler mitigation policies (paper Section VI + [11]-style coded
// computation).
//
// The scenario engine (src/simscen) *prices* stragglers; this layer
// *acts* on them. A MitigationPolicy decides, per barrier-delimited
// compute stage, how the cluster reacts to nodes that have not
// finished:
//
//   * kNone        — the paper's protocol: the barrier waits for the
//                    slowest node.
//   * kSpeculative — classic speculative re-execution: once `quantile`
//                    of the nodes have finished, any node still running
//                    past `trigger`x that completion time gets a backup
//                    copy of its whole stage work launched on an
//                    already-finished node; the stage takes whichever
//                    copy finishes first and the loser's compute is
//                    charged as waste.
//   * kCodedMap    — K-of-N coded completion: the C(K, r) placement
//                    (coding/placement.h) stores every input file on r
//                    nodes, so every file has a finished holder as soon
//                    as at most r-1 nodes are still running. The Map
//                    barrier releases at the (K-r+1)-th completion and
//                    the stragglers' unfinished work is abandoned (their
//                    partial compute is charged as waste). Stages
//                    without replicated inputs get tolerance 0 and
//                    degenerate to kNone.
//
// ApplyPolicy is a pure function of a StageView — per-node completion
// times plus pricing callbacks — so the same arithmetic evaluates a
// policy on a synthetic scenario replay (simscen::ReplayScenario) and
// on the measured ComputeEvents a live driver::StageRunner run records.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace cts::mitigate {

enum class PolicyKind {
  kNone,
  kSpeculative,
  kCodedMap,
};

struct MitigationPolicy {
  PolicyKind kind = PolicyKind::kNone;
  // kSpeculative: the trigger fires at
  //   stage_start + trigger * (t_q - stage_start)
  // where t_q is the time the ceil(quantile * K)-th node finishes —
  // both observable at run time (no oracle knowledge of stragglers).
  double quantile = 0.5;
  double trigger = 1.5;

  static MitigationPolicy None() { return {}; }
  static MitigationPolicy Speculative(double quantile = 0.5,
                                      double trigger = 1.5);
  static MitigationPolicy CodedMap();
};

// Short identifier used in tables, JSON keys and flags: "none",
// "spec", "coded".
const char* PolicyName(PolicyKind kind);

// Parses the ctsort/bench flag syntax:
//   none | spec[:QUANTILE:TRIGGER] | coded
// QUANTILE in (0, 1] and TRIGGER >= 1 are numbers as ParseDouble reads
// them (finite decimals). Returns nullopt on malformed input.
std::optional<MitigationPolicy> ParsePolicy(const std::string& spec);

// One barrier-delimited compute stage as a policy sees it.
struct StageView {
  double start = 0;  // absolute stage start (barrier release)
  // Unmitigated absolute completion time per node, outages included.
  std::vector<double> node_end;
  // Stragglers the K-of-N coded completion may abandon in this stage:
  // r-1 for the Map stage of an r-replicated run, 0 elsewhere.
  int coded_tolerance = 0;
  // Absolute completion time of a backup copy of `victim`'s whole
  // stage work executed by `helper`, launched at absolute time `at`.
  // Unset disables speculation (no way to price a backup).
  std::function<double(NodeId victim, NodeId helper, double at)> backup_end;
  // Compute seconds `node` actually burns in [start, t] — excludes
  // fail-stop outage windows, so abandoning a dead node charges no
  // waste for the time it was offline. Unset means t - start.
  std::function<double(NodeId node, double t)> busy_seconds;
};

// What a policy did to one stage.
struct StageMitigation {
  std::vector<double> node_end;  // mitigated per-node completion
  double end = 0;                // mitigated barrier time
  double unmitigated_end = 0;    // what kNone would have waited for
  // Compute seconds burnt without contributing to the output: losing
  // speculative copies, and partial work of abandoned stragglers.
  double wasted_seconds = 0;
  int speculative_copies = 0;  // backups launched (kSpeculative)
  int abandoned_nodes = 0;     // stragglers dropped (kCodedMap)
  // Absolute time the speculative trigger fired (< 0 when no trigger
  // fired: kNone, kCodedMap, or nothing left to back up). The tracer
  // marks it as an instant event.
  double trigger_at = -1;
};

StageMitigation ApplyPolicy(const MitigationPolicy& policy,
                            const StageView& view);

}  // namespace cts::mitigate
