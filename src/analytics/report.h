// Converts a measured run into the paper-scale stage breakdown.
//
// Pipeline: the algorithms execute for real at some scale and fill an
// AlgorithmResult with exact work/traffic counters; SimulateRun prices
// those counters on the paper's testbed via the CostModel, producing
// the rows of Tables I-III. PaperScale helps the benches express "this
// run stands for 12 GB".
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analytics/cost_model.h"
#include "common/table.h"
#include "driver/run_result.h"
#include "simnet/transmission_log.h"

namespace cts {

// One stage's simulated seconds.
struct StageTime {
  std::string name;
  double seconds = 0;
};

// A priced run: ordered stage times plus the total. `wasted_seconds`
// is compute burnt without contributing to the output (losing
// speculative copies, abandoned straggler work — see src/mitigate);
// it overlaps the stage times rather than adding to the total, so it
// gets its own table column.
struct StageBreakdown {
  std::string algorithm;
  std::vector<StageTime> stages;
  double wasted_seconds = 0;

  double total() const {
    double t = 0;
    for (const auto& s : stages) t += s.seconds;
    return t;
  }
  double stage(const std::string& name) const;

  // Paper-convention aggregates: Tables II-III merge serialization
  // stages into "Pack/Encode" and "Unpack/Decode" columns.
  double pack_or_encode() const;
  double unpack_or_decode() const;
  double shuffle() const;
};

// RunScale for a run of `executed` records that stands for a paper
// workload of `reported` records (e.g. 12 GB = 120e6 records).
RunScale PaperScale(std::uint64_t executed_records,
                    std::uint64_t reported_records);

// Multicast fan-out penalty and the correction factor mapping raw
// measured shuffle bytes (or replayed shuffle seconds — time is linear
// in bytes for a fixed schedule shape) to paper scale. For multicast
// runs the correction folds in the header/padding adjustment: packet
// count is combinatorial in (K, r), so header bytes and the
// zero-padding residue are charged unscaled — at paper scale both are
// <1%. Shared by the closed forms and the scenario engine
// (src/simscen).
struct ShuffleScaling {
  double penalty = 1.0;     // multicast fan-out factor (tx side only)
  double correction = 1.0;  // measured bytes -> paper-scale bytes
};

ShuffleScaling ComputeShuffleScaling(const AlgorithmResult& result,
                                     const CostModel& model,
                                     const RunScale& scale);

// Paper-scale seconds one node spends in one compute stage, from its
// NodeWork counters (`redundancy` is the run's r, for Reduce).
using NodePrice = double (*)(const CostModel& model, const NodeWork& work,
                             const RunScale& scale, int redundancy);

// The one map from stage name to price, shared by SimulateRun and the
// scenario engine (simscen::BuildScenarioRun): the per-node price of
// Map, Pack, Encode, Unpack, Decode or Reduce, and nullptr for
// CodeGen (a collective, CodeGenSeconds), for Shuffle (priced from the
// traffic, not per node) and for any other name.
NodePrice NodeStagePrice(std::string_view name);

// CodeGen's collective cost: the run's communicator creations under
// its CodeGen mode, the same on every node (0 without CodeGen).
double CodeGenSeconds(const AlgorithmResult& result, const CostModel& model);

// Prices every stage of `result` under `model` at `scale`. Handles both
// algorithms: stages the run did not execute get zero rows. The shuffle
// is a closed form under `discipline` (paper Section VI, "Asynchronous
// Execution"): kSerial sums every transmission on the shared medium
// (the paper's setup); the parallel disciplines take the busiest node's
// link occupancy, max(tx, rx) under full duplex and tx + rx under half,
// assuming perfect overlap. simscen::ReplayScenario replays the log's
// actual initiation order instead.
StageBreakdown SimulateRun(
    const AlgorithmResult& result, const CostModel& model,
    const RunScale& scale,
    simnet::Discipline discipline = simnet::Discipline::kSerial);

// Executed-scale breakdown straight from the measured wall clocks (no
// cost model): one row per executed stage, in execution order. The
// job API's kLive backend and any engine without NodeWork counters
// (e.g. CMR) report through this.
StageBreakdown MeasuredBreakdown(const AlgorithmResult& result);

// Renders breakdowns as a paper-style table: one row per run, columns
// CodeGen / Map / Pack-Encode / Shuffle / Unpack-Decode / Reduce /
// Wasted / Total / Speedup-vs-first-row. Wasted is the mitigation
// layer's thrown-away compute ("-" when zero).
TextTable BreakdownTable(const std::string& title,
                         const std::vector<StageBreakdown>& rows);

}  // namespace cts
