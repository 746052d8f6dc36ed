// Tests for the straggler-mitigation layer (src/mitigate): the
// ApplyPolicy arithmetic on synthetic stage views, the scenario-engine
// wiring (speculation and K-of-N coded Map under fail-stop outages),
// and the live path — a real injected delay in driver::StageRunner
// measured by a live run and recovered by the same policy code.
#include <gtest/gtest.h>

#include <algorithm>

#include "codedterasort/coded_terasort.h"
#include "mitigate/policy.h"
#include "simscen/engine.h"
#include "terasort/terasort.h"

namespace cts::mitigate {
namespace {

using simscen::ClusterProfile;
using simscen::ReplayScenario;
using simscen::Scenario;
using simscen::ScenarioOutcome;
using simscen::ScenarioRun;
using simscen::StageKind;
using simscen::StragglerKind;
using simscen::Topology;

StageView View(std::vector<double> ends, int coded_tolerance = 0) {
  StageView v;
  v.start = 0;
  v.node_end = std::move(ends);
  v.coded_tolerance = coded_tolerance;
  return v;
}

// ---- ParsePolicy ----

TEST(ParsePolicy, AcceptsTheFlagSyntax) {
  ASSERT_TRUE(ParsePolicy("none").has_value());
  EXPECT_EQ(ParsePolicy("none")->kind, PolicyKind::kNone);
  EXPECT_EQ(ParsePolicy("")->kind, PolicyKind::kNone);
  ASSERT_TRUE(ParsePolicy("coded").has_value());
  EXPECT_EQ(ParsePolicy("coded")->kind, PolicyKind::kCodedMap);
  ASSERT_TRUE(ParsePolicy("spec").has_value());
  EXPECT_EQ(ParsePolicy("spec")->kind, PolicyKind::kSpeculative);
  const auto custom = ParsePolicy("spec:0.75:2.5");
  ASSERT_TRUE(custom.has_value());
  EXPECT_DOUBLE_EQ(custom->quantile, 0.75);
  EXPECT_DOUBLE_EQ(custom->trigger, 2.5);
}

TEST(ParsePolicy, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParsePolicy("bogus").has_value());
  EXPECT_FALSE(ParsePolicy("spec:0.5").has_value());       // missing trigger
  EXPECT_FALSE(ParsePolicy("spec:2:1.5").has_value());     // quantile > 1
  EXPECT_FALSE(ParsePolicy("spec:0.5:0.5").has_value());   // trigger < 1
  EXPECT_FALSE(ParsePolicy("spec:0.5:abc").has_value());
  EXPECT_FALSE(ParsePolicy("coded:3").has_value());
  // Non-finite numbers are malformed: NaN passes every one-sided range
  // check, and an infinite trigger never fires.
  EXPECT_FALSE(ParsePolicy("spec:nan:1.5").has_value());
  EXPECT_FALSE(ParsePolicy("spec:0.5:nan").has_value());
  EXPECT_FALSE(ParsePolicy("spec:0.5:inf").has_value());
}

TEST(ParsePolicy, NamesRoundTrip) {
  EXPECT_STREQ(PolicyName(PolicyKind::kNone), "none");
  EXPECT_STREQ(PolicyName(PolicyKind::kSpeculative), "spec");
  EXPECT_STREQ(PolicyName(PolicyKind::kCodedMap), "coded");
}

// ---- ApplyPolicy: kNone ----

TEST(ApplyPolicy, NoneWaitsForTheSlowest) {
  const StageMitigation m =
      ApplyPolicy(MitigationPolicy::None(), View({10, 30, 20}));
  EXPECT_DOUBLE_EQ(m.end, 30.0);
  EXPECT_DOUBLE_EQ(m.unmitigated_end, 30.0);
  EXPECT_DOUBLE_EQ(m.wasted_seconds, 0.0);
  EXPECT_EQ(m.speculative_copies, 0);
  EXPECT_EQ(m.abandoned_nodes, 0);
}

// ---- ApplyPolicy: kCodedMap ----

TEST(ApplyPolicy, CodedMapReleasesAtKMinusToleranceCompletions) {
  // tolerance 1 (r = 2): barrier releases at the 3rd of 4 completions.
  const StageMitigation m = ApplyPolicy(
      MitigationPolicy::CodedMap(), View({10, 11, 12, 40}, /*tol=*/1));
  EXPECT_DOUBLE_EQ(m.end, 12.0);
  EXPECT_DOUBLE_EQ(m.unmitigated_end, 40.0);
  EXPECT_EQ(m.abandoned_nodes, 1);
  EXPECT_DOUBLE_EQ(m.node_end[3], 12.0);  // straggler stops at the barrier
  EXPECT_DOUBLE_EQ(m.wasted_seconds, 12.0);  // its burnt partial work
}

TEST(ApplyPolicy, CodedMapWithoutReplicationDegeneratesToNone) {
  const StageMitigation m =
      ApplyPolicy(MitigationPolicy::CodedMap(), View({10, 11, 40}, /*tol=*/0));
  EXPECT_DOUBLE_EQ(m.end, 40.0);
  EXPECT_EQ(m.abandoned_nodes, 0);
  EXPECT_DOUBLE_EQ(m.wasted_seconds, 0.0);
}

TEST(ApplyPolicy, CodedMapToleranceIsCappedAtKMinus1) {
  // tolerance >= K would abandon everyone; it must clamp to K-1 so the
  // fastest node's completion still gates the barrier.
  const StageMitigation m =
      ApplyPolicy(MitigationPolicy::CodedMap(), View({7, 20, 30}, /*tol=*/5));
  EXPECT_DOUBLE_EQ(m.end, 7.0);
  EXPECT_EQ(m.abandoned_nodes, 2);
}

TEST(ApplyPolicy, CodedMapWasteUsesBusySecondsCallback) {
  // A dead node burnt no compute while offline: abandoning it charges
  // only what the callback reports.
  StageView v = View({5, 6, 100}, /*tol=*/1);
  v.busy_seconds = [](NodeId node, double t) {
    return node == 2 ? 1.5 : t;  // node 2 was offline almost throughout
  };
  const StageMitigation m = ApplyPolicy(MitigationPolicy::CodedMap(), v);
  EXPECT_DOUBLE_EQ(m.end, 6.0);
  EXPECT_DOUBLE_EQ(m.wasted_seconds, 1.5);
}

// ---- ApplyPolicy: kSpeculative ----

StageView SpecView(std::vector<double> ends, double backup_duration) {
  StageView v = View(std::move(ends));
  v.backup_end = [backup_duration](NodeId, NodeId, double at) {
    return at + backup_duration;
  };
  return v;
}

TEST(ApplyPolicy, SpeculativeBackupWins) {
  // K=4, quantile 0.5 -> t_q = 2nd completion = 11; trigger 1.5 ->
  // 16.5. Node 3 (end 100) gets a backup on node 0 (fastest helper)
  // launched at 16.5 taking 12 s -> done 28.5, beating the original.
  const StageMitigation m = ApplyPolicy(MitigationPolicy::Speculative(),
                                        SpecView({10, 11, 12, 100}, 12.0));
  EXPECT_EQ(m.speculative_copies, 1);
  EXPECT_DOUBLE_EQ(m.node_end[3], 28.5);
  EXPECT_DOUBLE_EQ(m.node_end[0], 28.5);  // helper busy until the win
  EXPECT_DOUBLE_EQ(m.end, 28.5);
  EXPECT_DOUBLE_EQ(m.unmitigated_end, 100.0);
  // The victim's whole burnt run (it aborts at 28.5) is waste.
  EXPECT_DOUBLE_EQ(m.wasted_seconds, 28.5);
}

TEST(ApplyPolicy, SpeculativeOriginalWins) {
  // Same trigger (16.5); the original finishes at 20 before the
  // backup (16.5 + 12 = 28.5) -> the backup's 3.5 s of compute by
  // then is waste and the stage ends at 20.
  const StageMitigation m = ApplyPolicy(MitigationPolicy::Speculative(),
                                        SpecView({10, 11, 12, 20}, 12.0));
  EXPECT_EQ(m.speculative_copies, 1);
  EXPECT_DOUBLE_EQ(m.node_end[3], 20.0);
  EXPECT_DOUBLE_EQ(m.end, 20.0);
  EXPECT_DOUBLE_EQ(m.wasted_seconds, 3.5);
}

TEST(ApplyPolicy, SpeculativeWithoutFinishedHelpersDoesNothing) {
  // Everyone is past the trigger: no helper has finished, so no
  // backup can launch and the stage degrades to the plain barrier.
  StageView v = SpecView({100, 100, 100, 100}, 1.0);
  const StageMitigation m =
      ApplyPolicy(MitigationPolicy::Speculative(/*quantile=*/0.25,
                                                /*trigger=*/1.0),
                  v);
  // trigger fires at 100 (1.0 x the first completion); nobody is late.
  EXPECT_EQ(m.speculative_copies, 0);
  EXPECT_DOUBLE_EQ(m.end, 100.0);
  EXPECT_DOUBLE_EQ(m.wasted_seconds, 0.0);
}

TEST(ApplyPolicy, SpeculativeHandlesMoreVictimsThanHelpers) {
  // One helper, two victims: only the slowest victim gets the backup.
  const StageMitigation m = ApplyPolicy(
      MitigationPolicy::Speculative(/*quantile=*/0.25, /*trigger=*/1.5),
      SpecView({10, 80, 100}, 5.0));
  // t_q = 10, trigger = 15; victims 1 and 2, helper 0. The slowest
  // (node 2) pairs with the helper: backup done at 20.
  EXPECT_EQ(m.speculative_copies, 1);
  EXPECT_DOUBLE_EQ(m.node_end[2], 20.0);
  EXPECT_DOUBLE_EQ(m.node_end[1], 80.0);  // unmitigated victim
  EXPECT_DOUBLE_EQ(m.end, 80.0);
}

// ---- Scenario-engine wiring ----

// Synthetic coded run: K=4, r=2, one 10 s Map and one 4 s Reduce.
ScenarioRun SyntheticCodedRun() {
  ScenarioRun run;
  run.algorithm = "synthetic-coded";
  run.num_nodes = 4;
  run.redundancy = 2;
  run.stages.push_back(
      {stage::kMap, StageKind::kCompute, {10, 10, 10, 10}});
  run.stages.push_back(
      {stage::kReduce, StageKind::kCompute, {4, 4, 4, 4}});
  return run;
}

Scenario FailStopScenario(int num_nodes, NodeId node, double fail_at,
                          double recovery) {
  Scenario s;
  s.cluster = ClusterProfile::Homogeneous(num_nodes);
  s.topology = Topology::SingleRack(num_nodes);
  s.cluster.straggler.kind = StragglerKind::kFailStop;
  s.cluster.straggler.node = node;
  s.cluster.straggler.fail_at = fail_at;
  s.cluster.straggler.recovery = recovery;
  return s;
}

TEST(ReplayMitigated, ShortOutageCodedMapWinsOutright) {
  const ScenarioRun run = SyntheticCodedRun();
  // Node 0 dies 2 s into the 10 s Map and is back at 14 — in time for
  // the Reduce, so the K-of-N Map barrier is the only thing waiting.
  Scenario s = FailStopScenario(4, 0, 2.0, 12.0);

  const ScenarioOutcome none = ReplayScenario(run, s);
  // Map: node 0 works [0,2], offline [2,14], finishes at 22.
  EXPECT_DOUBLE_EQ(none.spans[0].end, 22.0);
  EXPECT_DOUBLE_EQ(none.makespan, 26.0);
  EXPECT_DOUBLE_EQ(none.wasted_seconds, 0.0);

  // Speculation triggers at 1.5 x 10 = 15, but the backup (15 + 10 =
  // 25) loses to the recovering original (22): no speedup, and the
  // aborted backup's 7 s are charged as waste.
  s.mitigation = MitigationPolicy::Speculative();
  const ScenarioOutcome spec = ReplayScenario(run, s);
  EXPECT_DOUBLE_EQ(spec.spans[0].end, 22.0);
  EXPECT_EQ(spec.spans[0].speculative_copies, 1);
  EXPECT_DOUBLE_EQ(spec.spans[0].wasted_seconds, 7.0);
  EXPECT_DOUBLE_EQ(spec.makespan, none.makespan);

  // The r=2 placement covers node 0's files elsewhere: the Map
  // barrier releases at the 3rd completion (10 s) with node 0's 2 s
  // of pre-outage compute as waste; the node is back (at 14) partway
  // through the Reduce it cannot be dropped from.
  s.mitigation = MitigationPolicy::CodedMap();
  const ScenarioOutcome coded = ReplayScenario(run, s);
  EXPECT_DOUBLE_EQ(coded.spans[0].end, 10.0);
  EXPECT_EQ(coded.spans[0].abandoned_nodes, 1);
  EXPECT_DOUBLE_EQ(coded.spans[0].wasted_seconds, 2.0);
  EXPECT_DOUBLE_EQ(coded.spans[1].end, 18.0);  // 14 + 4, began offline
  EXPECT_EQ(coded.spans[1].abandoned_nodes, 0);

  EXPECT_LT(coded.makespan, spec.makespan);
  EXPECT_LT(coded.makespan, none.makespan);
}

TEST(ReplayMitigated, LongOutageFlipsTheWinnerToSpeculation) {
  // Node 0 is gone for 50 s: the coded Map releases early but the
  // Reduce barrier still waits for the dead node, while speculation
  // also re-executes the Reduce share — the policy crossover the
  // bench sweep exposes.
  const ScenarioRun run = SyntheticCodedRun();
  Scenario s = FailStopScenario(4, 0, 2.0, 50.0);

  const ScenarioOutcome none = ReplayScenario(run, s);
  EXPECT_DOUBLE_EQ(none.makespan, 64.0);

  s.mitigation = MitigationPolicy::CodedMap();
  const ScenarioOutcome coded = ReplayScenario(run, s);
  EXPECT_DOUBLE_EQ(coded.spans[0].end, 10.0);  // Map released early
  EXPECT_DOUBLE_EQ(coded.makespan, 56.0);      // Reduce waits for 52 + 4

  s.mitigation = MitigationPolicy::Speculative();
  const ScenarioOutcome spec = ReplayScenario(run, s);
  EXPECT_DOUBLE_EQ(spec.spans[0].end, 25.0);  // Map backup wins at 15+10
  EXPECT_DOUBLE_EQ(spec.spans[1].end, 35.0);  // Reduce backup at 31+4
  EXPECT_DOUBLE_EQ(spec.makespan, 35.0);

  EXPECT_LT(spec.makespan, coded.makespan);
  EXPECT_LT(coded.makespan, none.makespan);
}

TEST(ReplayMitigated, HealthyClusterIsUntouchedByEitherPolicy) {
  const ScenarioRun run = SyntheticCodedRun();
  Scenario s;
  s.cluster = ClusterProfile::Homogeneous(4);
  s.topology = Topology::SingleRack(4);

  const double baseline = ReplayScenario(run, s).makespan;
  for (const MitigationPolicy& p :
       {MitigationPolicy::Speculative(), MitigationPolicy::CodedMap()}) {
    s.mitigation = p;
    const ScenarioOutcome out = ReplayScenario(run, s);
    EXPECT_DOUBLE_EQ(out.makespan, baseline);
    EXPECT_DOUBLE_EQ(out.wasted_seconds, 0.0);
  }
}

TEST(ReplayMitigated, SpeculationHelpsTheUncodedRunCodedPolicyCannot) {
  ScenarioRun run = SyntheticCodedRun();
  run.redundancy = 1;  // plain TeraSort: no replicated inputs
  Scenario s = FailStopScenario(4, 0, 2.0, 50.0);

  const double none = ReplayScenario(run, s).makespan;
  s.mitigation = MitigationPolicy::CodedMap();
  const double coded = ReplayScenario(run, s).makespan;
  s.mitigation = MitigationPolicy::Speculative();
  const double spec = ReplayScenario(run, s).makespan;

  EXPECT_DOUBLE_EQ(coded, none);  // tolerance r-1 = 0
  EXPECT_LT(spec, none);
}

TEST(ReplayMitigated, ManyStragglersFlipTheWinnerToSpeculation) {
  // r=2 tolerates one straggler; slow down two nodes and speculation
  // (which backs up every late node it has helpers for) wins — the
  // crossover the bench sweep surfaces.
  ScenarioRun run = SyntheticCodedRun();
  Scenario s;
  s.cluster = ClusterProfile::Homogeneous(4);
  s.topology = Topology::SingleRack(4);
  s.cluster.speed = {1.0, 1.0, 0.1, 0.1};  // two 10x-slow nodes

  s.mitigation = MitigationPolicy::CodedMap();
  const double coded = ReplayScenario(run, s).makespan;
  s.mitigation = MitigationPolicy::Speculative();
  const double spec = ReplayScenario(run, s).makespan;
  EXPECT_LT(spec, coded);
}

// ---- Live path: injected delay measured by a real run ----

TEST(LiveMitigation, InjectedDelayShowsUpInMeasuredEvents) {
  SortConfig config;
  config.num_nodes = 4;
  config.num_records = 4000;
  config.injected_delays.push_back({stage::kMap, /*node=*/1, 0.2});
  const AlgorithmResult result = RunTeraSort(config);

  double map_on_node1 = 0;
  for (const auto& e : result.compute_events) {
    if (e.stage == stage::kMap && e.node == 1) map_on_node1 += e.seconds();
  }
  EXPECT_GE(map_on_node1, 0.2);
  EXPECT_GE(result.wall_seconds.at(stage::kMap), 0.2);
}

TEST(LiveMitigation, PoliciesEvaluateOnTheMeasuredRun) {
  // A live CodedTeraSort run with a real straggler injected into one
  // node's Map; the measured ComputeEvents feed the same ReplayScenario
  // path the synthetic sweeps use, and both policies recover the
  // straggler at executed scale.
  SortConfig config;
  config.num_nodes = 4;
  config.redundancy = 2;
  config.num_records = 4000;
  config.injected_delays.push_back({stage::kMap, /*node=*/1, 0.2});
  const AlgorithmResult result = RunCodedTeraSort(config);

  const ScenarioRun run = simscen::BuildScenarioRunFromEvents(
      result.algorithm, config.num_nodes, result.stage_order,
      result.compute_events, result.shuffle_log, config.redundancy);

  Scenario s;
  s.cluster = ClusterProfile::Homogeneous(config.num_nodes);
  s.topology = Topology::SingleRack(config.num_nodes);
  const double none = ReplayScenario(run, s).makespan;

  s.mitigation = MitigationPolicy::CodedMap();
  const ScenarioOutcome coded = ReplayScenario(run, s);
  s.mitigation = MitigationPolicy::Speculative();
  const ScenarioOutcome spec = ReplayScenario(run, s);

  // The injected 0.2 s dwarfs the real ~ms-scale compute, so both
  // policies must recover most of it.
  EXPECT_LT(coded.makespan, none - 0.1);
  EXPECT_LT(spec.makespan, none - 0.1);
  EXPECT_GT(coded.wasted_seconds, 0.0);
}

}  // namespace
}  // namespace cts::mitigate
