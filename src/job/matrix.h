// JobMatrix: expands axis lists into job cells and evaluates them
// through one shared RunCache.
//
// A sweep is three labelled axes — (algorithm, SortConfig) pairs,
// scenarios, mitigation policies — crossed into cells. Only the
// algorithm axis costs anything: each distinct (algorithm, SortConfig)
// executes on the thread harness exactly once, and every scenario ×
// policy cell replays that one measured run (the RunCache memoization
// bench_paper's sweeps rely on — its `scenarios` preset replays 16
// scenarios and `mitigation` 18 scenario×policy cells off 3 executions
// each).
//
// Threads: RunMatrix resolves each algorithm on the calling thread —
// the cache lookup, the execution on a miss, the replay input and the
// partition release — and then evaluates the cells on up to
// std::thread::hardware_concurrency() threads, the calling thread
// among them, each writing its own preallocated cell. The cells share
// only read-only inputs and the network memo, which fills each entry
// once under its own lock, so every cell, every registry counter and
// RunCache::hits() read the same whatever the thread count.
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "job/job.h"
#include "mitigate/policy.h"

namespace cts::job {

// One entry of the algorithm axis: a registry name plus the full
// SortConfig it runs with (the axis that prices the live execution).
struct AlgoAxis {
  std::string label;  // cell key, e.g. "coded_r3"
  std::string algorithm;
  SortConfig config;
};

// One entry of the scenario axis.
struct ScenarioAxis {
  std::string label;  // cell key, e.g. "slow4_over16"
  simscen::Scenario scenario;
};

// One entry of the mitigation-policy axis; the policy overwrites the
// scenario's `mitigation` field cell by cell.
struct PolicyAxis {
  std::string label;  // cell key, e.g. "spec"
  mitigate::MitigationPolicy policy;
};

// One entry of the instance-profile axis: a rentable machine type. It
// scales every node's compute speed in the replayed scenario and sets
// the hourly rate the cell's dollar fields are priced at (when the
// matrix carries a pricing context). Like scenarios and policies the
// axis is free: the live execution stays keyed by
// (algorithm, SortConfig) — an instance only reshapes the replay and
// the price.
struct InstanceAxis {
  std::string label;   // cell key, e.g. "m3.large"
  double speed = 1.0;  // compute-speed multiplier vs the calibrated node
  double usd_per_hour = 0.133;  // on-demand rate (see DollarCost)
};

struct JobMatrix {
  std::vector<AlgoAxis> algos;
  // Empty axis = one unlabelled cell: no scenario (backend default) /
  // the scenario's own mitigation / the calibrated node at the
  // pricing context's default rate.
  std::vector<ScenarioAxis> scenarios;
  std::vector<PolicyAxis> policies;
  std::vector<InstanceAxis> instances;
  Backend backend = Backend::kReplay;
  std::uint64_t paper_records = 0;  // see JobSpec::paper_records
  // When set, every cell's dollar fields are filled (JobSpec::pricing);
  // the instance axis overrides the hourly rate per cell.
  std::optional<DollarCost> pricing;
};

// One evaluated cell, addressed by its axis labels (empty label for a
// collapsed axis).
struct MatrixCell {
  std::string algo;
  std::string scenario;
  std::string policy;
  std::string instance;
  JobResult result;
};

class MatrixResults {
 public:
  const std::vector<MatrixCell>& cells() const { return cells_; }

  // The cell at (algo, scenario, policy, instance); labels of
  // collapsed axes default to "". Dies on an unknown address (a typo'd
  // label must not silently price the wrong cell). One label lookup
  // per axis: cells are stored in the fixed nesting order.
  const JobResult& at(const std::string& algo,
                      const std::string& scenario = "",
                      const std::string& policy = "",
                      const std::string& instance = "") const;
  // The same cell by its position on each axis, in JobMatrix order (0
  // on a collapsed axis): no label is built or looked up, which is how
  // a caller that walks the axes it built reads every cell. Dies on a
  // position past an axis's end.
  const JobResult& at_position(std::size_t algo, std::size_t scenario = 0,
                               std::size_t policy = 0,
                               std::size_t instance = 0) const;

  int executions() const { return executions_; }  // live harness runs
  int replays() const { return static_cast<int>(cells_.size()); }

 private:
  friend MatrixResults RunMatrix(const JobMatrix&, RunCache&);
  std::vector<MatrixCell> cells_;
  // Label -> position on each axis, in the cell nesting order
  // (instance, scenario, policy, algo), so cell (i, s, p, a) sits at
  // ((i * |S| + s) * |P| + p) * |A| + a. A collapsed axis holds "".
  std::array<std::map<std::string, std::size_t>, 4> axes_;
  int executions_ = 0;
};

// Expands and evaluates the matrix. The overload taking a RunCache
// shares executions with other sweeps (and exposes the instrumented
// counters); the other uses a private cache. Each execution's sorted
// partitions are released before its cells run (no matrix view reads
// them); use RunJob directly when the sorted output itself is needed.
// When cells fail, RunMatrix joins every thread and then rethrows the
// exception of the lowest-index failing cell, the one a cell-by-cell
// loop would have thrown.
MatrixResults RunMatrix(const JobMatrix& matrix, RunCache& cache);
MatrixResults RunMatrix(const JobMatrix& matrix);

}  // namespace cts::job
