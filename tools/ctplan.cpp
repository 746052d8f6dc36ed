// ctplan — fleet planner CLI: dollar-priced architecture search with
// SLOs (src/plan/planner.h over the Job API's memoized matrix).
//
// Expands (algorithm × r × K × topology × mitigation policy × instance
// profile) architectures, replays every cell of the straggler scenario
// set off at most one live execution per (algorithm, SortConfig), and
// answers "cheapest configuration whose q-quantile makespan meets the
// SLO" — with the full candidate list as a sortable/filterable CSV and
// a bench-schema JSON artifact for CI trend gating.
//
// Usage: ctplan [--flags]
//   --algos=terasort,coded     registry names to search
//   --redundancies=1,3,5       r axis (ignored by algorithms without
//                              the redundancy knob)
//   --nodes=16                 comma list of cluster sizes K
//   --topologies=SPEC,...      "R:F[:U:D][:aware]" rack topologies
//                              (job/parse.h); "flat" = single rack
//   --stragglers=SPEC,...      the SLO scenario set: "none" |
//                              "slow:NODE:FACTOR" |
//                              "exp:SHIFT:MEAN[:SEED]" |
//                              "failstop:T:REC[:NODE]"
//   --policies=none,spec,coded mitigation axis
//   --instances=NAME:SPEED:USD machine types, e.g.
//                              "m3.large:1:0.133,c3.xlarge:1.9:0.21"
//   --records=200000           executed workload per run
//   --paper-records=N          report at this paper scale (0 = executed)
//   --seed=2017
//   --discipline=serial        serial | half | full (netsim replay)
//   --order=log                log | per-sender
//   --egress-usd-per-gb=0.02   cross-rack transfer rate
//   --slo=SECONDS              the SLO (default: everything meets)
//   --quantile=0.99            tail quantile the SLO constrains
//   --sort=usd                 row order: usd | makespan | egress
//   --max-usd=X                drop candidates dearer than X
//   --meets-only               keep only rows meeting the SLO
//   --csv[=PATH]               CSV to stdout (bare) or PATH
//   --json=PATH                bench-schema JSON (plan/total_s is the
//                              trend-gated planner wall time)
//   --quiet                    suppress the text table
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "job/job.h"
#include "plan/planner.h"
#include "tools/flag_parser.h"

namespace {

using namespace cts;
using cts::tools::Flags;
using cts::tools::ParseIntList;
using cts::tools::Split;

plan::InstanceProfile ParseInstance(const std::string& spec) {
  plan::InstanceProfile p;
  const std::vector<std::string> parts = Split(spec, ':');
  if (parts.empty() || parts.size() > 3 || parts[0].empty()) {
    Flags::Fail("instance expects NAME[:SPEED[:USD_PER_HOUR]]: '" + spec +
                "'");
  }
  p.name = parts[0];
  try {
    if (parts.size() >= 2) p.speed = std::stod(parts[1]);
    if (parts.size() >= 3) p.usd_per_hour = std::stod(parts[2]);
  } catch (const std::exception&) {
    Flags::Fail("bad instance numbers in '" + spec + "'");
  }
  if (p.speed <= 0 || p.usd_per_hour < 0) {
    Flags::Fail("instance '" + spec +
                "' needs speed > 0 and a non-negative rate");
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, "ctplan");

  plan::PlanAxes axes;
  axes.algorithms = Split(flags.Get("algos", "terasort,coded"));
  axes.redundancies = ParseIntList(flags.Get("redundancies", "3"),
                                   "redundancy");
  axes.node_counts = ParseIntList(flags.Get("nodes", "16"), "node count");
  axes.topologies =
      tools::ParseTopologyList(flags.Get("topologies", "flat"));
  axes.stragglers = Split(flags.Get("stragglers", "none"));
  axes.policies = Split(flags.Get("policies", "none"));
  for (const std::string& spec :
       Split(flags.Get("instances", "m3.large:1:0.133"))) {
    axes.instances.push_back(ParseInstance(spec));
  }
  axes.records = flags.GetU64("records", 200000);
  axes.paper_records = flags.GetU64("paper-records", 0);
  axes.seed = flags.GetU64("seed", 2017);
  axes.discipline = flags.Get("discipline", "serial");
  axes.order = flags.Get("order", "log");
  axes.cost.cross_rack_usd_per_gb =
      flags.GetDouble("egress-usd-per-gb", axes.cost.cross_rack_usd_per_gb);

  plan::PlanQuery query;
  query.slo_seconds = flags.GetDouble("slo", query.slo_seconds);
  query.quantile = flags.GetDouble("quantile", query.quantile);
  query.sort_key = flags.Get("sort", query.sort_key);
  query.max_usd = flags.GetDouble("max-usd", query.max_usd);
  query.meets_only = flags.GetBool("meets-only");

  const std::string csv = flags.Get("csv", "");
  const std::string json = flags.Get("json", "");
  const bool quiet = flags.GetBool("quiet");
  flags.CheckAllConsumed();

  Stopwatch watch;
  job::RunCache cache;
  const plan::PlanResult result = plan::RunPlan(axes, query, cache);
  const double total_s = watch.elapsed();
  if (!result.error.empty()) Flags::Fail(result.error);

  if (!quiet) {
    TextTable table("ctplan — " + std::to_string(result.rows.size()) +
                    " architectures, " + std::to_string(result.cells) +
                    " cells, " + std::to_string(result.executions) +
                    " live runs");
    table.set_header({"algorithm", "K", "topology", "policy", "instance",
                      "mean_s",
                      "q" + TextTable::Num(query.quantile * 100, 0) + "_s",
                      "$compute", "$egress", "$total", "SLO"});
    for (const plan::PlanRow& row : result.rows) {
      table.add_row({row.algorithm, std::to_string(row.num_nodes),
                     row.topology, row.policy, row.instance,
                     TextTable::Num(row.mean_makespan),
                     TextTable::Num(row.quantile_makespan),
                     TextTable::Num(row.usd_compute, 4),
                     TextTable::Num(row.usd_egress, 4),
                     TextTable::Num(row.usd, 4),
                     row.meets_slo ? "meets" : "misses"});
    }
    table.render(std::cout);
    if (const plan::PlanRow* winner = result.winner_row()) {
      std::cout << "cheapest meeting the SLO: " << winner->label() << " at $"
                << TextTable::Num(winner->usd, 4) << " (q"
                << TextTable::Num(query.quantile * 100, 0) << " makespan "
                << TextTable::Num(winner->quantile_makespan) << " s)\n";
    } else {
      std::cout << "no architecture meets the SLO\n";
    }
  }

  if (!csv.empty()) {
    if (csv == "true") {  // bare --csv: the cloud_calc-style stdout dump
      plan::WriteCsv(result, std::cout);
    } else {
      std::ofstream out(csv);
      if (!out) Flags::Fail("cannot write " + csv);
      plan::WriteCsv(result, out);
    }
  }

  bench::JsonReport report("ctplan", json);
  report.add_all(plan::PlanMetrics(result));
  report.add("plan/total_s", total_s);
  report.write();
  return 0;
}
