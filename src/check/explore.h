// DPOR-style exploration of FlowSim's ordering decision space.
//
// The flow DES (simscen/netsim.h) makes two kinds of scheduling
// choices that event times do not force: the processing order of a
// simultaneous-completion batch, and the re-queue order of an outage's
// victims. The explorer drives NetMakespan through its OrderingHook
// seam in a bounded depth-first search over alternative orders —
// stateless model checking in the SimGrid DFSExplorer tradition: each
// branch replays a recorded decision prefix and promotes one candidate
// ahead of the ones canonically before it, then continues canonically.
//
// Sleep-set-style pruning: promoting a candidate over peers whose
// resource footprints it does not intersect (no shared access link or
// per-sender queue, for re-queues) provably commutes, so those
// branches are pruned from the dependent search. Because "provably"
// deserves checking, leftover budget re-runs pruned branches as
// validation — their results must be bit-for-bit identical.
//
// Invariants asserted on every explored ordering:
//   * byte conservation — delivered payload equals the log total
//     (exact: byte counts are integer-valued doubles, so the sum is
//     order-independent);
//   * no lost flow — every log entry is admitted and completes, under
//     any outage timing (leftover budget sweeps the outage window
//     across the whole schedule: the outage event's position in the
//     event order is itself an adversarial scheduling choice);
//   * tie invariance — orderings that only permute completion ties
//     reproduce the canonical makespan and per-flow completion times
//     BITWISE (outage re-queue orders are real scheduling freedom and
//     may legally change the makespan, so only the first two apply).
//
// A violation is reduced to the shortest divergent ordering: the
// smallest prefix of the violating branch's alterations that still
// trips the invariant.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "simnet/transmission_log.h"
#include "simscen/netsim.h"
#include "simscen/scenario.h"

namespace cts::check {

struct ExploreOptions {
  // Alternative orderings to actually run (the DFS budget; shrink and
  // validation runs draw from the same pot).
  std::size_t budget = 128;
  // Re-run pruned (independent) branches with leftover budget and
  // assert bitwise identity — a check on the pruning theory itself.
  bool validate_pruned = true;
  // Extra runs allowed to minimize a violation.
  std::size_t shrink_budget = 32;
};

struct OrderingViolation {
  std::string invariant;  // "byte_conservation", "lost_flow",
                          // "tie_invariance", "decision_replay",
                          // "pruned_branch_diverged"
  std::string detail;
  // The shortest divergent ordering, one line per altered decision:
  // "t=<time> tie|requeue [canonical] -> [processed]".
  std::vector<std::string> schedule;
  std::size_t divergence_depth = 0;  // decision index of the first alteration
};

struct ExploreReport {
  double baseline_makespan = 0;
  std::size_t decision_points = 0;  // baseline decisions with >= 2 candidates
  std::size_t max_tie_width = 0;    // largest candidate batch seen
  std::size_t orderings_explored = 0;  // alternative schedules run
  std::size_t branches_pruned = 0;     // independence-pruned branches
  std::size_t branches_validated = 0;  // pruned branches re-run as checks
  std::size_t outage_timings = 0;      // shifted-outage placements checked
  std::vector<OrderingViolation> violations;

  bool certified() const { return violations.empty(); }
};

// Explores alternative DES orderings of `log` on `topology` under the
// given discipline/order/outage. Serial discipline has no simultaneous
// events; the report then certifies trivially with 0 decision points.
ExploreReport ExploreOrderings(const simnet::TransmissionLog& log,
                               const simscen::Topology& topology,
                               simnet::Discipline discipline,
                               simnet::ReplayOrder order,
                               const simscen::LinkOutage& outage,
                               const ExploreOptions& opts = {});

}  // namespace cts::check
