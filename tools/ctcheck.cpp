// ctcheck — determinism checker CLI: happens-before race analysis plus
// DPOR-style DES ordering exploration (src/check) over a job grid.
//
// For every (algorithm × r × K) the one live thread-harness run is
// executed with transport capture armed (memoized in a RunCache) and
// its send/post/match stream analyzed for matching races; for every
// (… × topology × discipline × order) cell the shuffle log's flow
// replay is explored through alternative event orderings — no-outage
// plus one cell per --outages spec — asserting byte conservation,
// no-lost-flow and bitwise tie invariance.
//
// Exit status is nonzero when any race or invariant violation is
// found, or when an outage cell explored fewer than --min-orderings
// alternative schedules (a vacuity guard for CI).
//
// Usage: ctcheck [--flags]
//   --algos=terasort,coded     registry names to check
//   --redundancies=2           r axis (ignored by plain TeraSort)
//   --nodes=8                  comma list of cluster sizes K
//   --records=40000            executed workload per run
//   --seed=2017
//   --topologies=flat,4:4      "R:F[:U:D][:aware]" (job/parse.h);
//                              "flat" = single rack
//   --disciplines=half,full    serial | half | full
//   --orders=log,per-sender    log | per-sender
//   --outages=0:0.25:0.25      NODE:STARTFRAC:DURFRAC list; fractions
//                              of the cell's no-outage makespan (empty:
//                              no outage cells)
//   --budget=150               ordering-exploration budget per cell
//   --min-orderings=0          fail outage cells exploring fewer
//   --json=PATH                bench-schema JSON artifact
//   --quiet                    suppress the text table
// Every list but --outages needs at least one entry; an empty one
// (--algos=) exits 2.
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "check/check.h"
#include "common/numparse.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "job/job.h"
#include "job/parse.h"
#include "job/registry.h"
#include "tools/flag_parser.h"

namespace {

using namespace cts;
using cts::tools::Flags;
using cts::tools::ParseIntList;
using cts::tools::Split;

// A grid axis given empty (--algos=) would certify zero cells.
template <typename T>
std::vector<T> NonEmpty(std::vector<T> axis, const char* flag) {
  if (axis.empty()) {
    Flags::Fail(std::string("--") + flag + " needs at least one entry");
  }
  return axis;
}

check::OutageSpec ParseOutage(const std::string& spec) {
  const std::vector<std::string> parts = Split(spec, ':');
  if (parts.size() != 3) {
    Flags::Fail("outage expects NODE:STARTFRAC:DURFRAC: '" + spec + "'");
  }
  const std::optional<int> node = ParseInt(parts[0]);
  const std::optional<double> start = ParseDouble(parts[1]);
  const std::optional<double> dur = ParseDouble(parts[2]);
  if (!node || !start || !dur) {
    Flags::Fail("bad number in --outages=" + spec);
  }
  check::OutageSpec o;
  o.node = *node;
  o.start_frac = *start;
  o.dur_frac = *dur;
  if (o.node < 0 || o.start_frac < 0 || o.dur_frac <= 0) {
    Flags::Fail("outage '" + spec +
                "' needs node >= 0, start >= 0, duration > 0");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, "ctcheck");

  const auto algos =
      NonEmpty(Split(flags.Get("algos", "terasort,coded")), "algos");
  const auto redundancies = NonEmpty(
      ParseIntList(flags.Get("redundancies", "2"), "redundancy"),
      "redundancies");
  const auto nodes =
      NonEmpty(ParseIntList(flags.Get("nodes", "8"), "node count"), "nodes");
  const std::uint64_t records = flags.GetU64("records", 40000);
  const std::uint64_t seed = flags.GetU64("seed", 2017);
  const auto topologies = NonEmpty(
      tools::ParseTopologyList(flags.Get("topologies", "flat,4:4")),
      "topologies");
  const auto disciplines =
      NonEmpty(Split(flags.Get("disciplines", "half,full")), "disciplines");
  const auto orders =
      NonEmpty(Split(flags.Get("orders", "log,per-sender")), "orders");

  check::CheckOptions copts;
  for (const std::string& spec : Split(flags.Get("outages", "0:0.25:0.25"))) {
    copts.outages.push_back(ParseOutage(spec));
    for (const int k : nodes) {
      if (copts.outages.back().node >= k) {
        Flags::Fail("--outages=" + spec + " names a node that does not " +
                    "exist at K = " + std::to_string(k));
      }
    }
  }
  copts.ordering_budget = flags.GetU64("budget", 150);
  const std::uint64_t min_orderings = flags.GetU64("min-orderings", 0);

  const std::string json = flags.Get("json", "");
  const bool quiet = flags.GetBool("quiet");
  flags.CheckAllConsumed();

  Stopwatch watch;
  job::RunCache cache;
  TextTable table("ctcheck");
  table.set_header({"algorithm", "r", "K", "topology", "disc", "order",
                    "cell", "decisions", "explored", "pruned", "status"});

  std::size_t cells = 0;
  std::size_t races = 0;
  std::size_t violations = 0;
  std::size_t explored = 0;
  std::size_t decision_points = 0;
  std::size_t pruned = 0;
  bool vacuous = false;
  bool failed = false;

  for (const std::string& algo : algos) {
    for (const int r : redundancies) {
      for (const int k : nodes) {
        job::JobSpec spec;
        spec.algorithm = algo;
        spec.config.num_nodes = k;
        spec.config.redundancy = r;
        spec.config.num_records = records;
        spec.config.seed = seed;
        const job::AlgorithmInfo* info = job::Find(algo);
        if (info == nullptr) Flags::Fail("unknown algorithm '" + algo + "'");
        const std::string bounds = job::BoundsError(*info, spec.config);
        if (!bounds.empty()) Flags::Fail(bounds);
        // One transport analysis per live run: the captured stream is
        // a property of (algorithm, r, K), not of the replay network.
        bool first_combo = true;
        for (const std::string& topo_spec : topologies) {
          for (const std::string& disc_spec : disciplines) {
            for (const std::string& order_spec : orders) {
              job::ScenarioSpec scenario_spec;
              scenario_spec.topology = topo_spec;
              scenario_spec.discipline = disc_spec;
              scenario_spec.order = order_spec;
              std::string err;
              spec.scenario = job::ParseScenario(scenario_spec, k, &err);
              if (!spec.scenario) Flags::Fail(err);

              check::CheckOptions cell_opts = copts;
              cell_opts.analyze_transport = first_combo;
              const check::CheckReport rep =
                  check::CheckJob(spec, cache, cell_opts);
              if (first_combo) {
                races += rep.races.races.size();
                if (!rep.races.races.empty()) {
                  failed = true;
                  std::cerr << check::Summarize(rep.races) << "\n";
                }
                first_combo = false;
              }
              for (const auto& cell : rep.cells) {
                ++cells;
                explored += cell.explore.orderings_explored;
                decision_points += cell.explore.decision_points;
                pruned += cell.explore.branches_pruned;
                violations += cell.explore.violations.size();
                std::string status = "certified";
                if (!cell.explore.certified()) {
                  failed = true;
                  status = cell.explore.violations.front().invariant;
                  std::cerr << rep.algorithm << " " << cell.label << ": "
                            << cell.explore.violations.front().detail
                            << "\n";
                  for (const std::string& line :
                       cell.explore.violations.front().schedule) {
                    std::cerr << "  " << line << "\n";
                  }
                } else if (cell.label != "no-outage" &&
                           cell.explore.orderings_explored <
                               min_orderings) {
                  vacuous = true;
                  status = "VACUOUS";
                }
                table.add_row(
                    {rep.algorithm, std::to_string(r), std::to_string(k),
                     topo_spec.empty() ? "flat" : topo_spec, disc_spec,
                     order_spec, cell.label,
                     std::to_string(cell.explore.decision_points),
                     std::to_string(cell.explore.orderings_explored),
                     std::to_string(cell.explore.branches_pruned),
                     status});
              }
            }
          }
        }
      }
    }
  }
  const double total_s = watch.elapsed();

  if (!quiet) {
    table.render(std::cout);
    std::cout << "ctcheck: " << cells << " cells, " << races
              << " race(s), " << violations << " violation(s), "
              << explored << " orderings explored off "
              << cache.executions() << " live run(s)\n";
  }
  if (vacuous) {
    std::cerr << "ctcheck: an outage cell explored fewer than "
              << min_orderings
              << " orderings (--min-orderings) — the check is vacuous "
                 "at this budget\n";
  }

  bench::JsonReport report("ctcheck", json);
  report.add("check/cells", static_cast<double>(cells));
  report.add("check/races_found", static_cast<double>(races));
  report.add("check/invariant_violations", static_cast<double>(violations));
  report.add("check/orderings_explored", static_cast<double>(explored));
  report.add("check/decision_points", static_cast<double>(decision_points));
  report.add("check/orderings_pruned", static_cast<double>(pruned));
  report.add("check/total_s", total_s);
  report.write();
  return (failed || vacuous) ? 1 : 0;
}
