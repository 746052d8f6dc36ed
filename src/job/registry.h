// Algorithm registry: the one place that knows how to execute "an
// algorithm" on the thread-per-node harness.
//
// The paper's experiment matrix is {TeraSort, CodedTeraSort, CMR} ×
// configuration × evaluation condition. All three engines take a
// SortConfig and return the AlgorithmResult the driver's collector
// assembles (RunTeraSort, RunCodedTeraSort, and RunCmr's `run`, which
// also needs the app and the shuffle mode). The registry names them,
// so the Job API (job/job.h), ctsort and the bench matrix can iterate
// algorithms programmatically — `--algo=each`, sweeps over registry
// names, ctplan and ctcheck all go through here instead of
// hand-wiring per-algorithm branches.
//
// The registry is a fixed table of the three engines, built once on
// first use; adding an engine means adding its entry in registry.cc.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "driver/run_result.h"

namespace cts::job {

// One algorithm as the Job API sees it.
struct AlgorithmInfo {
  std::string name;         // registry key, e.g. "terasort"
  std::string description;  // one-liner for --list-algos
  // SortConfig knobs the engine honors (documentation for
  // --list-algos; everything else is accepted and ignored, exactly as
  // the direct Run* entry points behave).
  std::vector<std::string> knobs;
  // True when the run carries NodeWork counters the CostModel can
  // price at paper scale (terasort/coded). False for engines priced
  // from measured ComputeEvents only (CMR).
  bool priced = true;
  // True when the run fills AlgorithmResult::partitions with sorted
  // records TeraValidate can check.
  bool sorts = true;
  // Executes one measured run.
  std::function<AlgorithmResult(const SortConfig&)> run;
};

// nullptr when `name` is not registered.
const AlgorithmInfo* Find(const std::string& name);

// Registered names, sorted.
std::vector<std::string> Names();

// Closest registered name to a misspelling (edit distance <= 2, ties
// broken alphabetically); empty when nothing is close.
std::string SuggestName(const std::string& name);

// The cluster-shape bounds the engines enforce by aborting mid-run:
// K >= 1, and with the "redundancy" knob 1 <= r <= K and K <= 64 (the
// NodeMask width placements index by). Empty when in bounds, else the
// violated bound. RunJob returns it as JobResult::error before it
// executes anything; Backend::kSimulated keeps its own bounds.
std::string BoundsError(const AlgorithmInfo& info, const SortConfig& config);

// The `cmr` entry sizes its WordCount workload so that total record
// count tracks SortConfig::num_records across the C(K, r) files;
// exposed so tests can reproduce the exact direct RunCmr call the
// entry makes.
int CmrRecordsPerFile(const SortConfig& config);

}  // namespace cts::job
