// Fleet planner tests (src/plan): the acceptance sweep — an SLO query
// answered over a 200+ cell architecture matrix with at most one live
// execution per (algorithm, r, K) — plus the quantile helper, CSV /
// metric shapes, and axis validation.
#include "plan/planner.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "job/job.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

namespace cts::plan {
namespace {

TEST(SampleQuantileTest, NearestRank) {
  const std::vector<double> v = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 0.99), 10.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 0.1), 1.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 0.11), 2.0);
  // Out-of-range q clamps instead of indexing out of bounds.
  EXPECT_DOUBLE_EQ(SampleQuantile(v, -3.0), 1.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 7.0), 10.0);
  EXPECT_DOUBLE_EQ(SampleQuantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(SampleQuantile({42.0}, 0.99), 42.0);
}

// The fixed-seed acceptance grid: 2 algorithms × 4 topologies ×
// 4 stragglers × 2 policies × 2 instances × 2 cluster sizes.
PlanAxes AcceptanceAxes() {
  PlanAxes axes;
  axes.algorithms = {"terasort", "coded"};
  axes.redundancies = {3};
  axes.node_counts = {8, 16};
  axes.topologies = {"", "4:4", "4:2:2:2", "4:4:0:0:aware"};
  axes.stragglers = {"none", "slow:0:2", "slow:1:3", "exp:0.5:1:7"};
  axes.policies = {"none", "spec"};
  axes.instances = {{"m3.large", 1.0, 0.133}, {"c3.2xlarge", 2.0, 0.42}};
  axes.records = 20000;
  axes.seed = 2017;
  return axes;
}

TEST(PlannerTest, AnswersSloQueryOverLargeMatrixWithMinimalExecutions) {
  const PlanAxes axes = AcceptanceAxes();
  PlanQuery query;  // infinite SLO: everything meets, winner = cheapest
  job::RunCache cache;
  const PlanResult result = RunPlan(axes, query, cache);
  ASSERT_TRUE(result.error.empty()) << result.error;

  // The acceptance floor: a 200+ cell matrix answered from one live
  // execution per (algorithm, r, K) — 2 algo-axis entries × 2 Ks.
  EXPECT_GE(result.cells, 200);
  EXPECT_EQ(cache.executions(), 4);
  EXPECT_EQ(result.executions, 4);

  // 2 algos × 4 topologies × 2 policies × 2 instances × 2 Ks.
  ASSERT_EQ(result.rows.size(), 64u);
  for (const PlanRow& row : result.rows) {
    EXPECT_EQ(row.scenarios, 4) << row.label();
    EXPECT_GT(row.quantile_makespan, 0.0) << row.label();
    EXPECT_GE(row.quantile_makespan, row.mean_makespan) << row.label();
    EXPECT_GE(row.worst_makespan, row.quantile_makespan) << row.label();
    EXPECT_GT(row.usd_compute, 0.0) << row.label();
    EXPECT_NEAR(row.usd, row.usd_compute + row.usd_egress, 1e-12);
    EXPECT_TRUE(row.meets_slo) << row.label();
    // Cross-rack egress prices locality: zero on the single-rack
    // topology, positive whenever the shuffle crosses racks.
    if (row.topology == "flat") {
      EXPECT_DOUBLE_EQ(row.usd_egress, 0.0) << row.label();
    } else {
      EXPECT_GT(row.usd_egress, 0.0) << row.label();
    }
  }

  // Rows arrive sorted by the query key (usd, ties by label).
  for (std::size_t i = 1; i < result.rows.size(); ++i) {
    EXPECT_LE(result.rows[i - 1].usd, result.rows[i].usd);
  }

  // Rack-aware multicast must never pay more cross-rack egress than
  // the rack-oblivious broadcast of the same architecture.
  std::set<std::string> seen;
  for (const PlanRow& row : result.rows) {
    if (row.topology != "4:4") continue;
    for (const PlanRow& aware : result.rows) {
      if (aware.topology == "4:4:0:0:aware" &&
          aware.algorithm == row.algorithm &&
          aware.num_nodes == row.num_nodes && aware.policy == row.policy &&
          aware.instance == row.instance) {
        EXPECT_LE(aware.usd_egress, row.usd_egress + 1e-12) << row.label();
        seen.insert(row.label());
      }
    }
  }
  EXPECT_EQ(seen.size(), 16u);  // every "4:4" row had its aware twin

  // The winner is pinned on this fixed seed grid: the cheapest row
  // overall (the SLO is infinite), deterministic across runs.
  ASSERT_NE(result.winner, -1);
  const PlanRow* winner = result.winner_row();
  ASSERT_NE(winner, nullptr);
  EXPECT_EQ(winner->label(), result.rows.front().label());
  // Speculative re-execution trims the straggler tail, so the
  // q99-priced cost beats the unmitigated rows; m3.large's rate beats
  // the 2x-speed instance whose makespan does not halve.
  EXPECT_EQ(winner->label(), "terasort@K8/flat/spec/m3.large");

  // An unmeetable SLO finds no winner — and, answered off the same
  // cache, costs zero further executions.
  PlanQuery strict;
  strict.slo_seconds = 1e-9;
  const PlanResult none = RunPlan(axes, strict, cache);
  ASSERT_TRUE(none.error.empty()) << none.error;
  EXPECT_EQ(none.winner, -1);
  EXPECT_EQ(none.winner_row(), nullptr);
  EXPECT_EQ(cache.executions(), 4);
  for (const PlanRow& row : none.rows) EXPECT_FALSE(row.meets_slo);
}

TEST(PlannerTest, MeetsOnlyAndMaxUsdFilterRows) {
  PlanAxes axes;
  axes.algorithms = {"terasort"};
  axes.node_counts = {8};
  axes.stragglers = {"none", "slow:0:4"};
  axes.records = 20000;
  job::RunCache cache;

  PlanQuery all;
  const PlanResult everything = RunPlan(axes, all, cache);
  ASSERT_TRUE(everything.error.empty()) << everything.error;
  ASSERT_EQ(everything.rows.size(), 1u);
  const double usd = everything.rows[0].usd;
  const double makespan = everything.rows[0].quantile_makespan;

  PlanQuery strict;
  strict.slo_seconds = makespan / 2;
  strict.meets_only = true;
  EXPECT_TRUE(RunPlan(axes, strict, cache).rows.empty());

  PlanQuery cheap;
  cheap.max_usd = usd / 2;
  EXPECT_TRUE(RunPlan(axes, cheap, cache).rows.empty());

  // The whole triple of queries ran off one execution.
  EXPECT_EQ(cache.executions(), 1);
}

// Axis entries that share a label are one entry: an empty straggler or
// policy spec is "none", and an instance listed twice at one price is
// that instance. The doubled axes price exactly the single ones.
TEST(PlannerTest, EntriesSharingALabelCollapse) {
  PlanAxes single;
  single.algorithms = {"terasort", "coded"};
  single.redundancies = {2};
  single.node_counts = {4};
  single.stragglers = {"none", "slow:1:3"};
  single.policies = {"none", "spec"};
  single.instances = {{"m3.large", 1.0, 0.133}};
  single.records = 8000;
  PlanAxes doubled = single;
  doubled.stragglers = {"", "none", "slow:1:3", "slow:1:3"};
  doubled.policies = {"", "none", "spec", ""};
  doubled.instances = {{"m3.large", 1.0, 0.133}, {"m3.large", 1.0, 0.133}};

  job::RunCache cache;
  const PlanResult a = RunPlan(single, PlanQuery{}, cache);
  const PlanResult b = RunPlan(doubled, PlanQuery{}, cache);
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_TRUE(b.error.empty()) << b.error;
  EXPECT_EQ(a.cells, 2 * 2 * 2);
  EXPECT_EQ(b.cells, a.cells);
  ASSERT_EQ(a.rows.size(), 4u);
  for (const PlanRow& row : b.rows) EXPECT_EQ(row.scenarios, 2);
  std::ostringstream csv_a;
  std::ostringstream csv_b;
  WriteCsv(a, csv_a);
  WriteCsv(b, csv_b);
  EXPECT_EQ(csv_b.str(), csv_a.str());
  EXPECT_EQ(cache.executions(), 2);
}

// A K ∈ {4, 6} grid with every straggler kind, under the full-duplex
// discipline and per-sender order: the one order whose replay does not
// read the racy shuffle-log sequence, so the CSV reproduces across
// processes. The CSV digest and the sweep's registry deltas pin the
// whole plan path — run lookup, ScenarioRun memo, network memo,
// partition release, DES replay and mitigation — bit for bit.
TEST(PlannerTest, SweepIsPinned) {
  PlanAxes axes;
  axes.algorithms = {"terasort", "coded"};
  axes.redundancies = {2, 3};
  axes.node_counts = {4, 6};
  axes.topologies = {"", "2:2", "2:2:1:1:aware"};
  axes.stragglers = {"none", "slow:1:3", "exp:1:0.5:7", "failstop:60:40:1"};
  axes.policies = {"none", "spec", "coded"};
  axes.instances = {{"m3.large", 1.0, 0.133}, {"c3.xlarge", 1.9, 0.21}};
  axes.records = 40000;
  axes.seed = 5;
  axes.paper_records = 120000000;
  axes.discipline = "full";
  axes.order = "per-sender";

  const char* const kCounters[] = {"job/cache_hits",
                                   "job/cache_misses",
                                   "job/cache_partition_releases",
                                   "job/matrix_cells_executed",
                                   "job/matrix_cells_replayed",
                                   "simscen/flows_started",
                                   "simscen/flows_requeued",
                                   "simscen/maxmin_recomputations",
                                   "simscen/network_memo_hits"};
  auto& registry = obs::MetricRegistry::Global();
  std::vector<std::uint64_t> before;
  for (const char* name : kCounters) {
    before.push_back(registry.counter(name).value());
  }
  job::RunCache cache;
  const PlanResult result = RunPlan(axes, PlanQuery{}, cache);
  ASSERT_TRUE(result.error.empty()) << result.error;
  std::map<std::string, std::uint64_t> deltas;
  for (std::size_t i = 0; i < before.size(); ++i) {
    deltas[kCounters[i]] = registry.counter(kCounters[i]).value() - before[i];
  }

  std::ostringstream csv;
  WriteCsv(result, csv);
  const std::string text = csv.str();
  EXPECT_EQ(result.cells, 432);
  EXPECT_EQ(result.executions, 6);
  EXPECT_EQ(result.rows.size(), 108u);
  EXPECT_EQ(text.size(), 11360u);
  const std::uint64_t digest =
      obs::FnvMix(obs::kFnvOffset, text.data(), text.size());
  EXPECT_EQ(digest, 0x97b4b7ef205be062ULL)
      << std::hex << "0x" << digest << std::dec << "\n"
      << text;
  const std::map<std::string, std::uint64_t> pinned = {
      {"job/cache_hits", 426},
      {"job/cache_misses", 6},
      {"job/cache_partition_releases", 6},
      {"job/matrix_cells_executed", 6},
      {"job/matrix_cells_replayed", 426},
      {"simscen/flows_started", 3897},
      {"simscen/flows_requeued", 159},
      {"simscen/maxmin_recomputations", 4272},
      {"simscen/network_memo_hits", 306}};
  EXPECT_EQ(deltas, pinned);

  // Every cell either hit the network memo or ran the DES. A DES
  // replay admits each log entry once, plus once more per requeued
  // flow, so the admissions count the replays run per log entry; each
  // of the six runs ran the same number (its first replay per
  // topology, then every fail-stop cell, whose outage is active).
  std::uint64_t log_entries = 0;
  for (const int num_nodes : axes.node_counts) {
    for (const int r : {1, 2, 3}) {
      SortConfig config;
      config.num_nodes = num_nodes;
      config.redundancy = r;
      config.num_records = axes.records;
      config.seed = axes.seed;
      log_entries +=
          cache.Get(r == 1 ? "terasort" : "coded", config)->shuffle_log.size();
    }
  }
  ASSERT_GT(log_entries, 0u);
  const std::uint64_t admissions =
      deltas["simscen/flows_started"] - deltas["simscen/flows_requeued"];
  EXPECT_EQ(admissions % log_entries, 0u);
  const std::uint64_t des_replays = 6 * (admissions / log_entries);
  EXPECT_EQ(des_replays, 6u * (3 + 18));
  EXPECT_EQ(deltas["simscen/network_memo_hits"] + des_replays,
            static_cast<std::uint64_t>(result.cells));
  EXPECT_EQ(cache.executions(), 6);  // the lookups above were all hits
}

TEST(PlannerTest, CsvAndMetricsCarryEveryRow) {
  PlanAxes axes;
  axes.algorithms = {"terasort", "coded"};
  axes.redundancies = {3};
  axes.node_counts = {8};
  axes.records = 20000;
  job::RunCache cache;
  const PlanResult result = RunPlan(axes, PlanQuery{}, cache);
  ASSERT_TRUE(result.error.empty()) << result.error;
  ASSERT_EQ(result.rows.size(), 2u);

  std::ostringstream csv;
  WriteCsv(result, csv);
  const std::string text = csv.str();
  EXPECT_NE(text.find("algorithm,r,K,topology,policy,instance,scenarios,"
                      "mean_s,q99_s,worst_s,node_hours,usd_compute,"
                      "usd_egress,usd,cross_rack_gb,meets_slo"),
            std::string::npos);
  int lines = 0;
  for (const char c : text) lines += (c == '\n');
  EXPECT_EQ(lines, 3);  // header + one line per row

  const std::map<std::string, double> metrics = PlanMetrics(result);
  EXPECT_EQ(metrics.at("plan/executions"), 2);
  EXPECT_GT(metrics.at("plan/cells"), 0);
  EXPECT_EQ(metrics.at("plan/rows"), 2);
  ASSERT_NE(result.winner_row(), nullptr);
  EXPECT_EQ(metrics.at("winner/usd"), result.winner_row()->usd);
  for (const PlanRow& row : result.rows) {
    EXPECT_EQ(metrics.at(row.label() + "/usd"), row.usd);
    EXPECT_EQ(metrics.at(row.label() + "/makespan"), row.quantile_makespan);
  }
}

TEST(PlannerTest, RedundancyAxisSkipsAlgorithmsWithoutTheKnob) {
  PlanAxes axes;
  axes.algorithms = {"terasort", "coded"};
  axes.redundancies = {1, 3};
  axes.node_counts = {6};
  axes.records = 20000;
  job::RunCache cache;
  const PlanResult result = RunPlan(axes, PlanQuery{}, cache);
  ASSERT_TRUE(result.error.empty()) << result.error;
  // terasort has no redundancy knob: one row regardless of the r list;
  // coded expands per r.
  std::set<std::string> algos;
  for (const PlanRow& row : result.rows) algos.insert(row.algorithm);
  EXPECT_EQ(algos,
            (std::set<std::string>{"terasort", "coded_r1", "coded_r3"}));
  EXPECT_EQ(cache.executions(), 3);
}

TEST(PlannerTest, RejectsBadAxes) {
  job::RunCache cache;
  PlanAxes axes;
  axes.algorithms.clear();
  EXPECT_FALSE(RunPlan(axes, PlanQuery{}, cache).error.empty());

  axes = PlanAxes{};
  axes.node_counts = {1};
  EXPECT_FALSE(RunPlan(axes, PlanQuery{}, cache).error.empty());

  axes = PlanAxes{};
  axes.topologies = {"not-a-topology"};
  EXPECT_FALSE(RunPlan(axes, PlanQuery{}, cache).error.empty());

  axes = PlanAxes{};
  axes.stragglers = {"slow:999:2"};  // node out of range
  EXPECT_FALSE(RunPlan(axes, PlanQuery{}, cache).error.empty());

  axes = PlanAxes{};
  axes.policies = {"wat"};
  EXPECT_FALSE(RunPlan(axes, PlanQuery{}, cache).error.empty());

  axes = PlanAxes{};
  axes.instances = {{"free-lunch", -1.0, 0.1}};
  EXPECT_FALSE(RunPlan(axes, PlanQuery{}, cache).error.empty());
  axes.instances = {{"nan-speed", std::numeric_limits<double>::quiet_NaN(),
                     0.1}};
  EXPECT_FALSE(RunPlan(axes, PlanQuery{}, cache).error.empty());
  // One instance label with two prices: which one would the row carry?
  axes.instances = {{"m3.large", 1.0, 0.133}, {"m3.large", 2.0, 0.3}};
  EXPECT_NE(RunPlan(axes, PlanQuery{}, cache).error.find("'m3.large'"),
            std::string::npos);

  axes = PlanAxes{};
  axes.node_counts = {4};
  axes.redundancies = {9};  // r > K - 1 for every algorithm with the knob
  axes.algorithms = {"coded"};
  EXPECT_FALSE(RunPlan(axes, PlanQuery{}, cache).error.empty());

  axes = PlanAxes{};
  axes.algorithms = {"terasrt"};  // typo: no registered algorithm
  EXPECT_FALSE(RunPlan(axes, PlanQuery{}, cache).error.empty());

  // K = 65 passes every axis check but the 64-bit placement masks; it
  // must fail the plan, not price error cells as free winners.
  axes = PlanAxes{};
  axes.node_counts = {65};
  axes.algorithms = {"coded"};
  const PlanResult too_wide = RunPlan(axes, PlanQuery{}, cache);
  EXPECT_NE(too_wide.error.find("K = 65"), std::string::npos)
      << too_wide.error;
  EXPECT_TRUE(too_wide.rows.empty());

  // r < 1 has no placement at any K; unlike r >= K (skipped per K, so
  // one list can span cluster sizes) it fails the plan.
  axes = PlanAxes{};
  axes.algorithms = {"terasort", "coded"};
  axes.redundancies = {0};
  EXPECT_NE(RunPlan(axes, PlanQuery{}, cache).error.find("r >= 1"),
            std::string::npos);
  axes.redundancies = {2, -1};
  EXPECT_NE(RunPlan(axes, PlanQuery{}, cache).error.find("r >= 1"),
            std::string::npos);

  axes = PlanAxes{};
  PlanQuery query;
  query.sort_key = "vibes";
  EXPECT_FALSE(RunPlan(axes, query, cache).error.empty());

  for (const double q :
       {2.0, -0.01, std::numeric_limits<double>::quiet_NaN()}) {
    query = PlanQuery{};
    query.quantile = q;
    EXPECT_NE(RunPlan(axes, query, cache).error.find("outside [0, 1]"),
              std::string::npos)
        << q;
  }

  // Negative (or NaN) egress would price a cross-rack transfer as a
  // rebate.
  for (const double rate :
       {-1.0, -1e-9, std::numeric_limits<double>::quiet_NaN()}) {
    axes = PlanAxes{};
    axes.cost.cross_rack_usd_per_gb = rate;
    EXPECT_NE(RunPlan(axes, PlanQuery{}, cache).error.find(
                  "egress-usd-per-gb"),
              std::string::npos)
        << rate;
  }

  // A job with no records has nothing to price.
  axes = PlanAxes{};
  axes.records = 0;
  EXPECT_NE(
      RunPlan(axes, PlanQuery{}, cache).error.find("at least one record"),
      std::string::npos);

  // None of the rejected axes reached an execution.
  EXPECT_EQ(cache.executions(), 0);
}

}  // namespace
}  // namespace cts::plan
