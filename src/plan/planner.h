// Fleet planner: dollar-priced architecture search with SLOs.
//
// The paper's tables answer "which (algorithm, r, K) is fastest on one
// fixed testbed"; the production question is "which configuration is
// *cheapest* while its tail makespan still meets an SLO under the
// straggler scenarios we plan for". PlanAxes spans the architecture
// space — algorithm × redundancy × K × rack topology × mitigation
// policy × instance profile — and RunPlan expands it into per-K
// JobMatrix sweeps over one shared RunCache, so the whole search costs
// one live execution per distinct (algorithm, SortConfig) and every
// other cell is a memoized discrete-event replay (job/matrix.h).
//
// Each architecture is evaluated against the full straggler scenario
// set; its row reports the mean / q-quantile / worst makespan over
// that set and is priced in dollars (analytics::DollarCost) at the
// quantile: node-hours × the instance's on-demand rate, plus
// cross-rack egress of the shuffle under the row's topology. The query
// then answers "cheapest row whose q-quantile makespan meets SLO S" —
// the ctplan CLI (tools/ctplan.cpp) wraps this in CSV / bench-schema
// JSON output.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "analytics/cost_model.h"
#include "job/job.h"

namespace cts::plan {

// One rentable machine type (the planner's instance axis). `speed`
// scales every node's compute relative to the calibrated testbed
// node; `usd_per_hour` is its on-demand rate.
struct InstanceProfile {
  std::string name = "m3.large";
  double speed = 1.0;
  double usd_per_hour = 0.133;
};

// The architecture space to search. Topology / straggler / policy
// entries are textual specs in the shared mini-language (job/parse.h:
// "R:F[:U:D][:aware]", "slow:NODE:FACTOR" | "exp:…" | "failstop:…",
// "none" | "spec[:Q:T]" | "coded"), parsed per K so one axes object
// spans several cluster sizes. An empty axis collapses to its
// default: single rack, no straggler, no mitigation, the calibrated
// m3.large. Entries that share a label collapse to one (an empty
// straggler or policy spec is "none"); an instance name listed with
// two different speeds or rates fails the plan.
struct PlanAxes {
  std::vector<std::string> algorithms = {"terasort", "coded"};
  // Each r >= 1; an r >= K is skipped at that K (no C(K, r) placement),
  // so one list can span several cluster sizes.
  std::vector<int> redundancies = {3};
  std::vector<int> node_counts = {16};
  std::vector<std::string> topologies;  // "" = single rack
  std::vector<std::string> stragglers;  // the SLO scenario set
  std::vector<std::string> policies;
  std::vector<InstanceProfile> instances;

  std::uint64_t records = 200000;  // executed workload per run
  std::uint64_t seed = 2017;
  std::uint64_t paper_records = 0;  // report at this scale (0 = executed)
  std::string discipline = "serial";  // job/parse.h spec
  std::string order = "log";
  DollarCost cost;  // egress + default hourly rates
};

// The question asked of the expanded matrix.
struct PlanQuery {
  // The SLO: the q-quantile makespan over the straggler set must not
  // exceed this many seconds. Infinity = every row meets it.
  double slo_seconds = std::numeric_limits<double>::infinity();
  double quantile = 0.99;  // in [0, 1]
  // Row order of PlanResult::rows: "usd" | "makespan" | "egress".
  std::string sort_key = "usd";
  // Drop rows dearer than this before picking the winner.
  double max_usd = std::numeric_limits<double>::infinity();
  // Keep only rows meeting the SLO in the output.
  bool meets_only = false;
};

// One candidate architecture, aggregated over the straggler set.
struct PlanRow {
  std::string algorithm;  // algo-axis label, e.g. "coded_r3"
  int redundancy = 1;
  int num_nodes = 0;
  std::string topology;  // axis labels ("flat" / "none" for defaults)
  std::string policy;
  std::string instance;

  int scenarios = 0;  // straggler samples aggregated
  double mean_makespan = 0;
  double quantile_makespan = 0;  // nearest-rank at the query quantile
  double worst_makespan = 0;

  // Priced at the quantile makespan (the capacity you must budget to
  // meet the SLO, not the lucky mean).
  double node_hours = 0;
  double usd_compute = 0;
  double usd_egress = 0;
  double usd = 0;
  double cross_rack_gb = 0;
  bool meets_slo = false;

  // "algo@K/topology/policy/instance" — the row's address in logs,
  // CSV and the JSON metric keys.
  std::string label() const;
};

struct PlanResult {
  std::vector<PlanRow> rows;  // sorted by the query's sort_key
  int cells = 0;              // matrix cells evaluated
  int executions = 0;         // live harness runs (RunCache misses)
  int winner = -1;            // index into rows; -1 = nothing meets
  double quantile = 0.99;     // echoed from the query
  std::string error;          // non-empty: axes failed to parse

  const PlanRow* winner_row() const {
    return winner < 0 ? nullptr : &rows[static_cast<std::size_t>(winner)];
  }
};

// Expands and evaluates the search. All live executions go through
// `cache`, so consecutive plans (and their caller's other sweeps)
// share runs; RunPlan performs at most one execution per distinct
// (algorithm, SortConfig) key — the acceptance invariant plan_test
// pins via RunCache::executions().
PlanResult RunPlan(const PlanAxes& axes, const PlanQuery& query,
                   job::RunCache& cache);

// Nearest-rank sample quantile (q clamped to [0, 1]); 0 on empty.
double SampleQuantile(std::vector<double> values, double q);

// The rows as sortable/filterable CSV (header + one line per row,
// the cloud_calc exemplar shape).
void WriteCsv(const PlanResult& result, std::ostream& out);

// Flat bench-schema metrics ("plan/cells", "plan/executions",
// "winner/usd", plus per-row usd / quantile makespan under the row
// label) for bench_common.h's JsonReport.
std::map<std::string, double> PlanMetrics(const PlanResult& result);

}  // namespace cts::plan
