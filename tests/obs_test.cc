// The observability layer (src/obs): MetricRegistry semantics
// (handles, snapshots, reset, concurrent exactness) and the
// Chrome-trace builders — structural validity via ValidateTrace, exact
// shuffle byte conservation against TrafficStats for both the live and
// the DES builders, and the baseline DES replay degenerating to the
// live trace's span set.
#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "codedterasort/coded_terasort.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simscen/engine.h"
#include "terasort/terasort.h"

namespace cts::obs {
namespace {

SortConfig SmallConfig(int K, int r) {
  SortConfig config;
  config.num_nodes = K;
  config.redundancy = r;
  config.num_records = 20000;
  config.seed = 2017;
  return config;
}

TEST(MetricRegistry, Counters) {
  MetricRegistry reg;
  Counter& c = reg.counter("t/events");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // The same name resolves to the same handle.
  EXPECT_EQ(&reg.counter("t/events"), &c);
}

TEST(MetricRegistry, SnapshotAndResetKeepHandles) {
  MetricRegistry reg;
  Counter& c = reg.counter("t/count");
  c.add(7);
  reg.counter("t/quiet");  // registered, never added: reads 0

  const auto snap = reg.Snapshot();
  EXPECT_DOUBLE_EQ(snap.at("t/count"), 7.0);
  EXPECT_DOUBLE_EQ(snap.at("t/quiet"), 0.0);
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(reg.size(), 2u);

  // Reset zeroes values but never invalidates handles.
  reg.Reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);
  EXPECT_DOUBLE_EQ(reg.Snapshot().at("t/count"), 2.0);
}

TEST(MetricRegistry, ConcurrentCountersAreExact) {
  MetricRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kAdds = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Handle resolved once, then relaxed adds — the hot-path idiom.
      Counter& c = reg.counter("t/contended");
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("t/contended").value(),
            static_cast<std::uint64_t>(kThreads) * kAdds);
}

// The flight recorder and the run ledger both snapshot registries into
// results, so Snapshot() must be a pure function of the operations
// applied: identical maps regardless of the order names were
// registered in (the stripes are hash-sharded maps) and regardless of
// thread interleaving. Counter adds are integers, so they commute
// exactly.
TEST(MetricRegistry, SnapshotIsDeterministicAcrossOrdersAndThreads) {
  constexpr int kThreads = 8;
  constexpr int kOps = 3600;  // multiple of the 12 counter names

  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) {
    names.push_back("det/counter_" + std::to_string(i));
  }

  const auto run_workload = [&](MetricRegistry& reg,
                                const std::vector<std::string>& order) {
    for (const std::string& name : order) reg.counter(name);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&reg, &names, t] {
        for (int i = 0; i < kOps; ++i) {
          reg.counter(names[(t + i) % names.size()]).add(1 + t);
        }
      });
    }
    for (auto& th : threads) th.join();
    return reg.Snapshot();
  };

  // Two deterministic shuffles of the registration order.
  std::vector<std::string> shuffled(names.rbegin(), names.rend());
  std::rotate(shuffled.begin(), shuffled.begin() + 5, shuffled.end());

  MetricRegistry a, b, c;
  const auto snap_a = run_workload(a, names);
  const auto snap_b = run_workload(b, shuffled);
  const auto snap_c = run_workload(c, names);  // fresh interleaving
  EXPECT_EQ(snap_a, snap_b);
  EXPECT_EQ(snap_a, snap_c);

  // And the values are the exact closed-form totals, not merely
  // mutually consistent: each name gets kOps/12 adds of (1+t) from
  // each thread.
  const double adds_per_name_per_thread = kOps / 12.0;
  double expected_counter = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_counter += adds_per_name_per_thread * (1 + t);
  }
  for (const std::string& name : names) {
    EXPECT_EQ(snap_a.at(name), expected_counter) << name;
  }
  EXPECT_EQ(snap_a.size(), names.size());
}

TEST(Trace, ValidateCatchesOverlapsAndBadFlows) {
  {
    Trace t;
    t.add_complete(0, 0, "parent", cat::kStage, 0.0, 1.0);
    t.add_complete(0, 0, "child", cat::kStage, 0.2, 0.8);
    t.add_complete(0, 0, "sibling", cat::kStage, 0.8, 1.0);
    t.add_complete(0, 1, "other-track", cat::kStage, 0.5, 2.0);
    t.add_flow(0, 0, 1, 0.3, 0.6);
    t.add_instant(0, 0, "mark", 0.4);
    EXPECT_EQ(ValidateTrace(t), "");
  }
  {
    // Straddling spans on one track violate the stack discipline.
    Trace t;
    t.add_complete(0, 0, "a", cat::kStage, 0.0, 1.0);
    t.add_complete(0, 0, "b", cat::kStage, 0.5, 1.5);
    EXPECT_NE(ValidateTrace(t), "");
  }
  {
    // A flow that finishes before it starts.
    Trace t;
    t.add_flow(0, 0, 1, 5.0, 1.0);
    EXPECT_NE(ValidateTrace(t), "");
  }
  {
    Trace t;
    t.add_complete(0, 0, "nan", cat::kStage, 0.0,
                   std::numeric_limits<double>::quiet_NaN());
    EXPECT_NE(ValidateTrace(t), "");
  }
}

TEST(Trace, MergeKeepsFlowIdsUniqueAndSumsBytesPerPid) {
  Trace a;
  a.add_complete(0, 0, "tx", cat::kShuffle, 0.0, 1.0, {{"bytes", 100.0}});
  a.add_flow(0, 0, 1, 0.0, 1.0);
  a.set_meta("a/bytes", 100.0);
  Trace b;
  b.add_complete(1, 0, "tx", cat::kShuffle, 0.0, 1.0, {{"bytes", 50.0}});
  b.add_flow(1, 0, 1, 0.0, 1.0);
  a.Merge(b);
  EXPECT_EQ(ValidateTrace(a), "");  // would flag duplicated flow ids
  EXPECT_DOUBLE_EQ(a.ShuffleBytes(0), 100.0);
  EXPECT_DOUBLE_EQ(a.ShuffleBytes(1), 50.0);
  EXPECT_DOUBLE_EQ(a.meta().at("a/bytes"), 100.0);
}

TEST(Trace, WriteJsonShape) {
  Trace t;
  t.set_process_name(0, "demo");
  t.set_track_name(0, 0, "node 0");
  // A byte total near 2^40 must round-trip as an exact integer, not
  // drift through scientific notation.
  t.set_meta("demo/shuffle_payload_bytes", 1099511627776.0);
  t.add_complete(0, 0, "Map", cat::kStage, 0.0, 0.5);
  t.add_instant(0, 0, "mark", 0.25);
  t.add_flow(0, 0, 0, 0.1, 0.2);
  std::ostringstream out;
  t.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
  EXPECT_NE(json.find("\"demo/shuffle_payload_bytes\": 1099511627776"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // ts/dur are microseconds: the 0.5 s Map span becomes dur 500000.
  EXPECT_NE(json.find("\"dur\":500000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

// The measured shuffle payload, straight from TrafficStats.
std::uint64_t ShuffleTrafficBytes(const AlgorithmResult& result) {
  const auto it = result.traffic.find(stage::kShuffle);
  return it == result.traffic.end() ? 0 : it->second.transmitted_bytes();
}

// Byte-count sums stay far below 2^53, so double sums are exact and
// the conservation checks below use EXPECT_EQ, not a tolerance.
TEST(LiveTrace, ValidAndByteConserving) {
  const AlgorithmResult terasort = RunTeraSort(SmallConfig(8, 1));
  const AlgorithmResult coded = RunCodedTeraSort(SmallConfig(8, 3));

  Trace trace = BuildLiveTrace(terasort, /*pid=*/0);
  trace.Merge(BuildLiveTrace(coded, /*pid=*/1));
  EXPECT_EQ(ValidateTrace(trace), "");

  EXPECT_EQ(trace.ShuffleBytes(0),
            static_cast<double>(ShuffleTrafficBytes(terasort)));
  EXPECT_EQ(trace.ShuffleBytes(1),
            static_cast<double>(ShuffleTrafficBytes(coded)));

  // One stage span per ComputeEvent, one flow arrow per
  // (transmission, receiver).
  std::size_t stage_spans = 0;
  std::size_t flow_starts = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.pid != 1) continue;
    if (e.phase == 'X' && e.category == cat::kStage) ++stage_spans;
    if (e.phase == 's') ++flow_starts;
  }
  EXPECT_EQ(stage_spans, coded.compute_events.size());
  std::size_t expected_arrows = 0;
  for (const auto& t : coded.shuffle_log) expected_arrows += t.dsts.size();
  EXPECT_EQ(flow_starts, expected_arrows);
}

TEST(ScenarioTrace, ValidByteConservingWithOutageMarks) {
  const SortConfig config = SmallConfig(8, 3);
  const AlgorithmResult result = RunCodedTeraSort(config);
  const simscen::ScenarioRun run = simscen::BuildScenarioRunFromEvents(
      result.algorithm, config.num_nodes, result.stage_order,
      result.compute_events, result.shuffle_log, config.redundancy);

  simscen::Scenario scenario = simscen::Scenario::Baseline(config.num_nodes);
  scenario.cluster.straggler.kind = simscen::StragglerKind::kFailStop;
  scenario.cluster.straggler.node = 2;
  scenario.cluster.straggler.fail_at = 0.001;
  scenario.cluster.straggler.recovery = 0.005;
  const simscen::ScenarioOutcome outcome =
      simscen::ReplayScenario(run, scenario);

  const Trace trace = BuildScenarioTrace(run, outcome, scenario);
  EXPECT_EQ(ValidateTrace(trace), "");

  std::uint64_t log_bytes = 0;
  for (const auto& t : run.shuffle_log) log_bytes += t.bytes;
  EXPECT_EQ(trace.ShuffleBytes(0), static_cast<double>(log_bytes));
  EXPECT_EQ(static_cast<std::uint64_t>(trace.ShuffleBytes(0)),
            ShuffleTrafficBytes(result));

  // The outage window shows up as instants on the failed node's track.
  int outage_marks = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.phase == 'i' &&
        (e.name == "outage-start" || e.name == "outage-end")) {
      EXPECT_EQ(e.tid, 2);
      ++outage_marks;
    }
  }
  EXPECT_EQ(outage_marks, 2);

  // The synthetic cluster track carries one barrier span per stage.
  std::set<std::string> cluster_stages;
  for (const TraceEvent& e : trace.events()) {
    if (e.phase == 'X' && e.tid == config.num_nodes &&
        e.category == cat::kStage) {
      cluster_stages.insert(e.name);
    }
  }
  EXPECT_EQ(cluster_stages.size(), result.stage_order.size());
}

// (tid, stage) pairs of the positive-duration per-node stage spans —
// the comparable core of a trace (the DES's measured times are
// barrier-aligned, so times are not comparable, but the span *set*
// must match).
std::multiset<std::pair<int, std::string>> NodeStageSpans(const Trace& trace,
                                                          int K) {
  std::multiset<std::pair<int, std::string>> spans;
  for (const TraceEvent& e : trace.events()) {
    if (e.phase == 'X' && e.category == cat::kStage && e.tid < K &&
        e.dur_seconds > 0) {
      spans.insert({e.tid, e.name});
    }
  }
  return spans;
}

// A baseline DES replay of the measured events must degenerate to the
// same per-node span set the live trace shows: same nodes, same
// stages, nothing invented or dropped by the replay.
TEST(ScenarioTrace, BaselineDegeneratesToLiveSpanSet) {
  const SortConfig config = SmallConfig(8, 1);
  const AlgorithmResult result = RunTeraSort(config);

  const Trace live = BuildLiveTrace(result);

  const simscen::ScenarioRun run = simscen::BuildScenarioRunFromEvents(
      result.algorithm, config.num_nodes, result.stage_order,
      result.compute_events, result.shuffle_log, config.redundancy);
  const simscen::Scenario baseline =
      simscen::Scenario::Baseline(config.num_nodes);
  const simscen::ScenarioOutcome outcome =
      simscen::ReplayScenario(run, baseline);
  const Trace des = BuildScenarioTrace(run, outcome, baseline);

  EXPECT_EQ(ValidateTrace(live), "");
  EXPECT_EQ(ValidateTrace(des), "");
  EXPECT_EQ(NodeStageSpans(live, config.num_nodes),
            NodeStageSpans(des, config.num_nodes));
  // And both conserve the same shuffle payload.
  EXPECT_EQ(live.ShuffleBytes(0), des.ShuffleBytes(0));
}

}  // namespace
}  // namespace cts::obs
