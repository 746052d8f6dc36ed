// Full-run discrete-event scenario replay.
//
// The engine replays one measured run — the per-stage compute records
// the engines emit (driver/run_result.h) plus the shuffle's
// simnet::TransmissionLog — under a Scenario: a ClusterProfile
// (heterogeneous speeds, stragglers) and a Topology (racks, access
// links, oversubscribed core). Stages execute barrier-synchronously,
// exactly as the node programs do: a stage starts when the previous
// one has finished on every node, compute stages end when the slowest
// (possibly straggling) node does, and the shuffle stage is priced by
// the topology-aware flow replay (simscen/netsim.h).
//
// On a homogeneous single-rack profile with no contention the compute
// stages and the serial shuffle degenerate to the analytics closed
// forms (tests/simscen_test.cc asserts 1e-9 relative agreement), and a
// parallel shuffle is the log's NetMakespan scaled to paper bytes, so
// scenario sweeps and the paper tables share one pricing pipeline.
#pragma once

#include <string>
#include <vector>

#include "analytics/report.h"
#include "driver/run_result.h"
#include "mitigate/policy.h"
#include "simnet/transmission_log.h"
#include "simscen/netsim.h"
#include "simscen/scenario.h"

namespace cts::simscen {

// One scenario: who runs it, what network carries it, and how the
// cluster reacts to stragglers (src/mitigate; kNone replays the
// paper's wait-for-the-slowest barrier).
struct Scenario {
  ClusterProfile cluster;
  Topology topology;
  simnet::Discipline discipline = simnet::Discipline::kSerial;
  simnet::ReplayOrder order = simnet::ReplayOrder::kLogOrder;
  mitigate::MitigationPolicy mitigation;

  // The do-nothing scenario: homogeneous single-rack cluster, no
  // straggler, no mitigation. Replaying under it reproduces the
  // measured run: its compute stages and serial shuffle equal the
  // closed forms to 1e-9, and its shuffle is the log's NetMakespan
  // times the paper-scale correction.
  static Scenario Baseline(int num_nodes) {
    Scenario s;
    s.cluster = ClusterProfile::Homogeneous(num_nodes);
    s.topology = Topology::SingleRack(num_nodes);
    return s;
  }
};

// How a replayed stage reacts to the scenario.
enum class StageKind {
  kCompute,     // per-node seconds; speed multipliers, stragglers and
                // fail-stop outages apply
  kCollective,  // latency-bound collective (CodeGen): the same on
                // every node, unaffected by compute speed
  kNetwork,     // priced by the transmission-log flow replay
};

// Scenario-agnostic description of one run, built from an
// AlgorithmResult (cost-model priced, paper scale) or from measured
// ComputeEvents (CMR runs, executed scale).
struct ScenarioRun {
  struct Stage {
    std::string name;
    StageKind kind = StageKind::kCompute;
    // Baseline seconds per node; empty means zero. kCollective stages
    // carry one identical value per node.
    std::vector<double> node_seconds;
  };

  std::string algorithm;
  int num_nodes = 0;
  // Computation redundancy r of the run (1 for plain TeraSort). The
  // K-of-N coded-Map mitigation derives its straggler tolerance (r-1)
  // from it: the C(K, r) placement stores every Map input on r nodes.
  int redundancy = 1;
  std::vector<Stage> stages;  // in execution order
  simnet::TransmissionLog shuffle_log;
  // Maps replayed shuffle seconds to reported scale (the analytics
  // ShuffleScaling correction; 1.0 for as-executed replays).
  double shuffle_correction = 1.0;
};

// One stage's placement on the scenario timeline.
struct StageSpan {
  std::string name;
  double start = 0;
  double end = 0;                // max over nodes (barrier)
  std::vector<double> node_end;  // per-node completion times

  // Mitigation accounting (zero under mitigate::PolicyKind::kNone).
  double unmitigated_end = 0;   // what the plain barrier would wait for
  double wasted_seconds = 0;    // losing copies + abandoned partial work
  int speculative_copies = 0;
  int abandoned_nodes = 0;
  // Absolute time the speculative trigger fired (< 0: none fired).
  double trigger_at = -1;

  double seconds() const { return end - start; }
};

struct ScenarioOutcome {
  std::string algorithm;
  std::vector<StageSpan> spans;
  double makespan = 0;
  // Total compute burnt without contributing to the output across all
  // stages (see StageSpan::wasted_seconds).
  double wasted_seconds = 0;

  // When each shuffle transmission was on the wire, in scenario
  // seconds, aligned index-for-index with the run's shuffle_log
  // (filled for the first kNetwork stage; empty for shuffle-free
  // runs). The tracer turns these into per-flow slices at the times
  // the flow DES actually scheduled them.
  struct FlowSpan {
    double start = 0;
    double end = 0;
  };
  std::vector<FlowSpan> shuffle_flows;

  // Table-1-style row for analytics::BreakdownTable.
  StageBreakdown breakdown() const;
};

// Builds a paper-scale ScenarioRun from a sorting run: compute stages
// priced per node by the calibrated CostModel, CodeGen as a
// collective, Shuffle from the transmission log with the analytics
// scaling correction.
ScenarioRun BuildScenarioRun(const AlgorithmResult& result,
                             const CostModel& model, const RunScale& scale);

// Builds an executed-scale ScenarioRun from measured stage boundaries
// (any engine that records ComputeEvents — e.g. CMR, which has no
// NodeWork counters). The stage named "Shuffle" is replayed from
// `shuffle_log` AND carries its measured per-node durations: a
// pipelined stage (CMR's overlapped Map+Shuffle) ends when both the
// network and the slowest node's compute are done, so a straggler
// stretches it even though it is network-priced. Every other stage
// replays its measured per-node durations. `redundancy` is the run's
// r (for the coded-Map mitigation tolerance; 1 if inputs are not
// replicated).
ScenarioRun BuildScenarioRunFromEvents(
    const std::string& algorithm, int num_nodes,
    const std::vector<std::string>& stage_order, const ComputeLog& events,
    simnet::TransmissionLog shuffle_log, int redundancy = 1);

// The outage-free network stages already replayed from one
// ScenarioRun. Everything NetMakespan reads besides the run's shuffle
// log is in an entry's key, so a replay that finds its key reuses the
// DES's numbers instead of re-running it. A memo belongs to exactly
// one ScenarioRun (job::RunCache keeps each beside its run); passing
// it with another run prices that run with the wrong log.
struct NetworkMemo {
  struct Entry {
    Topology topology;
    simnet::Discipline discipline = simnet::Discipline::kSerial;
    simnet::ReplayOrder order = simnet::ReplayOrder::kLogOrder;
    double makespan = 0;  // replay clock (before shuffle_correction)
    std::vector<double> flow_start;  // NetReplayStats::flow_start
    std::vector<double> flow_end;    // NetReplayStats::flow_end
  };
  // Searched linearly: a sweep holds a few network inputs per run.
  std::vector<Entry> entries;
};

// Replays `run` under `scenario`. When `timeline` is non-null the
// network stages run with a TimelineProbe attached: the DES series
// (des/inflight_flows, des/requeue_depth, des/link_utilization) land
// in the timeline in scenario seconds, aligned with the outcome's
// stage spans. The replay itself is unchanged — the probe only reads.
//
// With a `memo` and no timeline, a network stage whose fail-stop
// window is not active (LinkOutage::active()) takes its replay-clock
// makespan and flow times from the memo when it holds the scenario's
// (topology, discipline, order), adding 1 to simscen/network_memo_hits
// and skipping NetMakespan, and otherwise runs the DES and stores the
// result. Every outcome is bit-identical to a replay without a memo;
// the simscen/* DES counters count only the replays actually
// simulated.
ScenarioOutcome ReplayScenario(const ScenarioRun& run,
                               const Scenario& scenario,
                               obs::Timeline* timeline = nullptr,
                               NetworkMemo* memo = nullptr);

}  // namespace cts::simscen
