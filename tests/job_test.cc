// The unified Job API (src/job): registry round-trip against the
// direct Run* entry points, the cluster-shape bounds (also through the
// built ctsort and ctcheck), JobMatrix memoization (one live execution
// per distinct (algorithm, SortConfig) key), the shared scenario-spec
// parser, and the bench-JSON schema of JobResult::metrics.
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "cmr/cmr.h"
#include "codedterasort/coded_terasort.h"
#include "job/job.h"
#include "job/matrix.h"
#include "job/parse.h"
#include "job/registry.h"
#include "obs/metrics.h"
#include "terasort/terasort.h"

namespace cts::job {
namespace {

SortConfig SmallConfig(int r) {
  SortConfig config;
  config.num_nodes = 4;
  config.redundancy = r;
  config.num_records = 20000;
  config.seed = 2017;
  return config;
}

TEST(Registry, BuiltinsAreRegistered) {
  const auto names = Names();
  for (const std::string expected : {"terasort", "coded", "cmr"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  ASSERT_NE(Find("terasort"), nullptr);
  EXPECT_TRUE(Find("terasort")->priced);
  EXPECT_TRUE(Find("terasort")->sorts);
  ASSERT_NE(Find("cmr"), nullptr);
  EXPECT_FALSE(Find("cmr")->priced);
  EXPECT_FALSE(Find("cmr")->sorts);
  EXPECT_FALSE(Find("coded")->knobs.empty());
  EXPECT_EQ(Find("no-such-algorithm"), nullptr);
}

TEST(Registry, SuggestsCloseNames) {
  EXPECT_EQ(SuggestName("terasor"), "terasort");
  EXPECT_EQ(SuggestName("codedd"), "coded");
  EXPECT_EQ(SuggestName("cmr2"), "cmr");
  EXPECT_EQ(SuggestName("mapreduce-framework"), "");
}

// Every registered sorting algorithm, run through the Job API at K=4,
// must yield the very counters its direct entry point produces — the
// registry is routing, not reinterpretation.
TEST(Registry, RoundTripMatchesDirectCalls) {
  {
    const SortConfig config = SmallConfig(1);
    JobSpec spec;
    spec.algorithm = "terasort";
    spec.config = config;
    spec.backend = Backend::kLive;
    const JobResult via_job = RunJob(spec);
    const AlgorithmResult direct = RunTeraSort(config);
    ASSERT_NE(via_job.execution, nullptr);
    EXPECT_EQ(via_job.algorithm, direct.algorithm);
    EXPECT_EQ(via_job.execution->total_output_records(),
              direct.total_output_records());
    const NodeWork a = via_job.execution->total_work();
    const NodeWork b = direct.total_work();
    EXPECT_EQ(a.map_bytes, b.map_bytes);
    EXPECT_EQ(a.pack_bytes, b.pack_bytes);
    EXPECT_EQ(a.unpack_bytes, b.unpack_bytes);
    EXPECT_EQ(a.reduce_bytes, b.reduce_bytes);
    EXPECT_EQ(via_job.execution->stage_order, direct.stage_order);
    EXPECT_EQ(
        via_job.execution->traffic.at(stage::kShuffle).transmitted_bytes(),
        direct.traffic.at(stage::kShuffle).transmitted_bytes());
  }
  {
    const SortConfig config = SmallConfig(2);
    JobSpec spec;
    spec.algorithm = "coded";
    spec.config = config;
    spec.backend = Backend::kLive;
    const JobResult via_job = RunJob(spec);
    const AlgorithmResult direct = RunCodedTeraSort(config);
    EXPECT_EQ(via_job.algorithm, direct.algorithm);
    EXPECT_EQ(via_job.execution->total_output_records(),
              direct.total_output_records());
    EXPECT_EQ(via_job.execution->total_work().map_bytes,
              direct.total_work().map_bytes);
    EXPECT_EQ(via_job.execution->stage_order, direct.stage_order);
    EXPECT_EQ(
        via_job.execution->traffic.at(stage::kShuffle).transmitted_bytes(),
        direct.traffic.at(stage::kShuffle).transmitted_bytes());
  }
  {
    // CMR: the adapter must run exactly the direct RunCmr call it
    // documents (WordCount app sized by CmrRecordsPerFile).
    const SortConfig config = SmallConfig(2);
    JobSpec spec;
    spec.algorithm = "cmr";
    spec.config = config;
    spec.backend = Backend::kLive;
    const JobResult via_job = RunJob(spec);
    cmr::CmrConfig cc;
    cc.num_nodes = config.num_nodes;
    cc.redundancy = config.redundancy;
    cc.seed = config.seed;
    cc.mode = cmr::ShuffleMode::kCoded;
    const auto app = cmr::MakeWordCountApp(CmrRecordsPerFile(config));
    const cmr::CmrResult direct = cmr::RunCmr(*app, cc);
    EXPECT_EQ(via_job.execution->stage_order, direct.stage_order);
    EXPECT_EQ(
        via_job.execution->traffic.at(stage::kShuffle).transmitted_bytes(),
        direct.traffic.at(stage::kShuffle).transmitted_bytes());
    EXPECT_EQ(via_job.execution->shuffle_log.size(),
              direct.shuffle_log.size());
  }
}

// The priced backend is analytics::SimulateRun over the same measured
// counters — totals must agree exactly (both are deterministic in the
// counters).
TEST(Job, PricedBackendMatchesSimulateRun) {
  const SortConfig config = SmallConfig(2);
  JobSpec spec;
  spec.algorithm = "coded";
  spec.config = config;
  spec.backend = Backend::kPriced;
  spec.paper_records = 120'000'000;
  const JobResult result = RunJob(spec);
  EXPECT_TRUE(result.priced);
  const StageBreakdown direct =
      SimulateRun(*result.execution, CostModel{},
                  PaperScale(config.num_records, 120'000'000));
  EXPECT_DOUBLE_EQ(result.breakdown.total(), direct.total());
  EXPECT_DOUBLE_EQ(result.makespan, result.breakdown.total());
}

// The closed-form backends cannot honor a scenario; silently pricing
// an unmitigated run under a scenario label would fake a null result,
// so RunJob returns a structured error and RunMatrix rejects the
// combination loudly.
TEST(Job, PricedBackendRejectsScenarios) {
  for (const Backend backend : {Backend::kPriced, Backend::kSimulated}) {
    SCOPED_TRACE(BackendName(backend));
    JobSpec spec;
    spec.algorithm = "terasort";
    spec.config = SmallConfig(1);
    spec.backend = backend;
    spec.scenario = simscen::Scenario::Baseline(4);
    const JobResult result = RunJob(spec);
    EXPECT_NE(result.error.find("use Backend::kReplay"), std::string::npos)
        << result.error;
    EXPECT_EQ(result.execution, nullptr);
    EXPECT_FALSE(result.priced);
    EXPECT_EQ(result.makespan, 0.0);
  }

  JobMatrix m;
  m.backend = Backend::kPriced;
  m.algos.push_back({"terasort", "terasort", SmallConfig(1)});
  m.scenarios.push_back({"healthy", simscen::Scenario::Baseline(4)});
  EXPECT_THROW((void)RunMatrix(m), CheckError);
  m.backend = Backend::kSimulated;
  EXPECT_THROW((void)RunMatrix(m), CheckError);
}

// One predicate holds the cluster-shape bounds the engines would
// otherwise enforce by aborting: K >= 1 everywhere, 1 <= r <= K and
// K <= 64 where the algorithm has the redundancy knob.
TEST(Registry, BoundsErrorNamesEachBound) {
  const AlgorithmInfo& terasort = *Find("terasort");
  const AlgorithmInfo& coded = *Find("coded");
  const AlgorithmInfo& cmr = *Find("cmr");
  const auto bounds = [](const AlgorithmInfo& info, int K, int r) {
    SortConfig config = SmallConfig(r);
    config.num_nodes = K;
    return BoundsError(info, config);
  };
  for (const AlgorithmInfo* info : {&terasort, &coded, &cmr}) {
    SCOPED_TRACE(info->name);
    EXPECT_EQ(bounds(*info, 4, 2), "");
    EXPECT_EQ(bounds(*info, 1, 1), "");
    EXPECT_EQ(bounds(*info, 64, 3), "");
    EXPECT_NE(bounds(*info, 0, 1).find("K >= 1"), std::string::npos);
  }
  for (const AlgorithmInfo* info : {&coded, &cmr}) {
    SCOPED_TRACE(info->name);
    EXPECT_EQ(bounds(*info, 4, 4), "");  // r = K is in range
    EXPECT_NE(bounds(*info, 4, 0).find("1 <= r <= K"), std::string::npos);
    EXPECT_NE(bounds(*info, 4, 5).find("1 <= r <= K"), std::string::npos);
    EXPECT_NE(bounds(*info, 65, 2).find("exceeds 64"), std::string::npos);
  }
  // TeraSort has no redundancy knob and no mask-indexed placement.
  EXPECT_EQ(bounds(terasort, 4, 0), "");
  EXPECT_EQ(bounds(terasort, 4, 5), "");
  EXPECT_EQ(bounds(terasort, 65, 2), "");
}

// RunJob reports an out-of-range shape as JobResult::error before it
// executes anything, on every executing backend; the synthesizer keeps
// its own bounds, so K = 1000 still prices.
TEST(Job, RunJobRejectsOutOfRangeShapes) {
  for (const Backend backend :
       {Backend::kLive, Backend::kPriced, Backend::kReplay}) {
    SCOPED_TRACE(BackendName(backend));
    RunCache cache;
    JobSpec spec;
    spec.algorithm = "coded";
    spec.config = SmallConfig(5);
    spec.backend = backend;
    const JobResult result = RunJob(spec, cache);
    EXPECT_NE(result.error.find("1 <= r <= K"), std::string::npos)
        << result.error;
    EXPECT_EQ(result.execution, nullptr);
    EXPECT_EQ(cache.executions(), 0);
  }

  // A job with no records has nothing to price, on any backend.
  for (const Backend backend : {Backend::kLive, Backend::kPriced,
                                Backend::kReplay, Backend::kSimulated}) {
    for (const char* algorithm : {"terasort", "coded"}) {
      SCOPED_TRACE(std::string(BackendName(backend)) + " " + algorithm);
      RunCache cache;
      JobSpec spec;
      spec.algorithm = algorithm;
      spec.config = SmallConfig(2);
      spec.config.num_records = 0;
      spec.backend = backend;
      const JobResult result = RunJob(spec, cache);
      EXPECT_NE(result.error.find("at least one record"), std::string::npos)
          << result.error;
      EXPECT_EQ(result.execution, nullptr);
      EXPECT_EQ(cache.executions(), 0);
    }
  }

  JobSpec spec;
  spec.algorithm = "coded";
  spec.config = SmallConfig(3);
  spec.config.num_nodes = 1000;
  spec.backend = Backend::kSimulated;
  const JobResult result = RunJob(spec);
  EXPECT_EQ(result.error, "");
  EXPECT_GT(result.makespan, 0.0);
}

// The built ctsort / ctcheck / ctplan (CMake sets CTSORT_BIN,
// CTCHECK_BIN and CTPLAN_BIN) exit 2 with a message on an out-of-range
// shape, an impossible axis or a mistyped enumerated flag, instead of
// aborting or running the default.
TEST(Cli, BadShapesAndTyposExitTwo) {
  const char* ctsort = std::getenv("CTSORT_BIN");
  const char* ctcheck = std::getenv("CTCHECK_BIN");
  const char* ctplan = std::getenv("CTPLAN_BIN");
  if (ctsort == nullptr || ctcheck == nullptr || ctplan == nullptr) {
    GTEST_SKIP() << "CTSORT_BIN/CTCHECK_BIN/CTPLAN_BIN not set (run through "
                    "ctest)";
  }
  const auto status = [](const char* bin, const std::string& args) {
    const int s = std::system(
        (std::string(bin) + " " + args + " > /dev/null 2>&1").c_str());
    return WIFEXITED(s) ? WEXITSTATUS(s) : -1;  // -1: killed by a signal
  };
  for (const char* args :
       {"--nodes=0", "--redundancy=0", "--nodes=4 --redundancy=5",
        "--algo=coded --nodes=65 --redundancy=2", "--nodes=0 --scenario",
        "--partitioner=sampeld", "--codegen=batchd", "--dist=unifrom",
        "--schedule=paralel-full"}) {
    EXPECT_EQ(status(ctsort, std::string(args) + " --records=2000"), 2)
        << "ctsort " << args;
  }
  for (const char* args : {"--records=0", "--records=0 --backend=priced"}) {
    EXPECT_EQ(status(ctsort, args), 2) << "ctsort " << args;
  }
  for (const char* args :
       {"--records=0", "--quantile=2", "--quantile=-0.5", "--quantile=nan",
        "--algos=terasort,coded --redundancies=0"}) {
    EXPECT_EQ(status(ctplan, std::string(args) + " --nodes=4"), 2)
        << "ctplan " << args;
  }
  for (const char* args :
       {"--nodes=0", "--redundancies=0", "--nodes=4 --redundancies=5",
        "--algos=coded --nodes=65", "--algos=terasrt"}) {
    EXPECT_EQ(status(ctcheck, std::string(args) + " --quiet"), 2)
        << "ctcheck " << args;
  }
}

// The matrix memoizes the live execution per (algorithm, SortConfig)
// key: scenarios × policies are replays of one measured run, and a
// duplicate algorithm entry under a different label costs nothing.
TEST(Matrix, MemoizesLiveExecutionPerKey) {
  JobMatrix m;
  m.backend = Backend::kReplay;
  m.algos.push_back({"terasort", "terasort", SmallConfig(1)});
  m.algos.push_back({"coded_r2", "coded", SmallConfig(2)});
  m.algos.push_back({"terasort_again", "terasort", SmallConfig(1)});

  simscen::Scenario slow = simscen::Scenario::Baseline(4);
  slow.cluster.straggler.kind = simscen::StragglerKind::kSlowNode;
  slow.cluster.straggler.node = 0;
  slow.cluster.straggler.slowdown = 4.0;
  m.scenarios.push_back({"healthy", simscen::Scenario::Baseline(4)});
  m.scenarios.push_back({"slow4", slow});

  m.policies.push_back({"none", mitigate::MitigationPolicy::None()});
  m.policies.push_back({"spec", mitigate::MitigationPolicy::Speculative()});
  m.policies.push_back({"coded", mitigate::MitigationPolicy::CodedMap()});

  RunCache cache;
  const MatrixResults results = RunMatrix(m, cache);

  // 3 algo labels × 2 scenarios × 3 policies = 18 replayed cells, but
  // only 2 distinct (algorithm, config) keys ever hit the harness.
  // Every other cell's Get() is a cache hit — exactly cells minus
  // distinct keys, nothing double-booked by the internal
  // GetScenarioRun fetches.
  EXPECT_EQ(results.cells().size(), 18u);
  EXPECT_EQ(results.executions(), 2);
  EXPECT_EQ(cache.executions(), 2);
  EXPECT_EQ(cache.hits(), 16);

  for (const MatrixCell& cell : results.cells()) {
    EXPECT_GT(cell.result.makespan, 0.0) << cell.algo;
    ASSERT_TRUE(cell.result.outcome.has_value());
  }
  // The process-wide registry carries the cache accounting above.
  EXPECT_TRUE(
      obs::MetricRegistry::Global().Snapshot().count("job/cache_misses"));

  // Duplicate-label axes are rejected, and every addressed cell is
  // reachable.
  const JobResult& healthy =
      results.at("terasort", "healthy", "none");
  const JobResult& slowed = results.at("terasort", "slow4", "none");
  EXPECT_GT(slowed.makespan, healthy.makespan);
  // The straggler stretches the coded run too, and the coded-Map
  // policy claws part of it back (Map tolerance r-1 = 1).
  const JobResult& coded_none = results.at("coded_r2", "slow4", "none");
  const JobResult& coded_mitigated =
      results.at("coded_r2", "slow4", "coded");
  EXPECT_LE(coded_mitigated.makespan, coded_none.makespan);

  // Identical configs under different labels share the cached run.
  EXPECT_EQ(results.at("terasort", "healthy", "none").execution,
            results.at("terasort_again", "healthy", "none").execution);
}

// at() finds a cell by one label lookup per axis: every cell answers
// at its own address, a collapsed axis answers to "", and an unknown
// label on any axis still dies.
TEST(Matrix, AtAddressesEveryCell) {
  JobMatrix m;
  m.backend = Backend::kReplay;
  m.algos.push_back({"terasort", "terasort", SmallConfig(1)});
  m.algos.push_back({"coded_r2", "coded", SmallConfig(2)});
  simscen::Scenario slow = simscen::Scenario::Baseline(4);
  slow.cluster.straggler.kind = simscen::StragglerKind::kSlowNode;
  slow.cluster.straggler.slowdown = 3.0;
  simscen::Scenario racks = simscen::Scenario::Baseline(4);
  racks.topology = simscen::Topology::Oversubscribed(4, 2, 4.0);
  m.scenarios.push_back({"healthy", simscen::Scenario::Baseline(4)});
  m.scenarios.push_back({"slow", slow});
  m.scenarios.push_back({"racks", racks});
  m.policies.push_back({"none", mitigate::MitigationPolicy::None()});
  m.policies.push_back({"spec", mitigate::MitigationPolicy::Speculative()});
  m.instances.push_back({"small", 1.0, 0.1});
  m.instances.push_back({"fast", 2.0, 0.3});

  RunCache cache;
  const MatrixResults results = RunMatrix(m, cache);
  ASSERT_EQ(results.cells().size(), 24u);
  for (std::size_t i = 0; i < results.cells().size(); ++i) {
    const MatrixCell& cell = results.cells()[i];
    EXPECT_EQ(&results.at(cell.algo, cell.scenario, cell.policy,
                          cell.instance),
              &cell.result)
        << i;
  }
  EXPECT_THROW((void)results.at("nope", "slow", "none", "fast"), CheckError);
  EXPECT_THROW((void)results.at("terasort", "nope", "none", "fast"),
               CheckError);
  EXPECT_THROW((void)results.at("terasort", "slow", "nope", "fast"),
               CheckError);
  EXPECT_THROW((void)results.at("terasort", "slow", "none", "nope"),
               CheckError);
  // A populated axis has no "" entry.
  EXPECT_THROW((void)results.at("terasort"), CheckError);

  // Collapsed axes resolve through "" (the bench_table2 style).
  JobMatrix flat;
  flat.backend = Backend::kPriced;
  flat.algos = m.algos;
  const MatrixResults priced = RunMatrix(flat, cache);
  ASSERT_EQ(priced.cells().size(), 2u);
  EXPECT_EQ(&priced.at("terasort"), &priced.cells()[0].result);
  EXPECT_EQ(&priced.at("coded_r2"), &priced.cells()[1].result);
  EXPECT_THROW((void)priced.at("coded_r3"), CheckError);
  EXPECT_THROW((void)priced.at("terasort", "healthy"), CheckError);
}

TEST(Parse, StragglerSpecs) {
  std::string error;
  const auto slow = ParseStraggler("slow:0:4", 8, &error);
  ASSERT_TRUE(slow.has_value()) << error;
  EXPECT_EQ(slow->kind, simscen::StragglerKind::kSlowNode);
  EXPECT_EQ(slow->node, 0);
  EXPECT_DOUBLE_EQ(slow->slowdown, 4.0);

  const auto exp = ParseStraggler("exp:1:0.5:7", 8, &error);
  ASSERT_TRUE(exp.has_value()) << error;
  EXPECT_EQ(exp->kind, simscen::StragglerKind::kShiftedExp);
  EXPECT_EQ(exp->seed, 7u);

  // Seeds are full-range uint64 (beyond int), and overflow is rejected
  // rather than clamped.
  const auto big = ParseStraggler("exp:1:0.5:3000000000", 8, &error);
  ASSERT_TRUE(big.has_value()) << error;
  EXPECT_EQ(big->seed, 3000000000u);
  EXPECT_FALSE(
      ParseStraggler("exp:1:0.5:99999999999999999999999", 8, &error)
          .has_value());

  const auto fail = ParseStraggler("failstop:2:8:3", 8, &error);
  ASSERT_TRUE(fail.has_value()) << error;
  EXPECT_EQ(fail->kind, simscen::StragglerKind::kFailStop);
  EXPECT_EQ(fail->node, 3);

  EXPECT_FALSE(ParseStraggler("slow:9:4", 8, &error).has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  EXPECT_FALSE(ParseStraggler("slow:0:0.5", 8, &error).has_value());
  EXPECT_FALSE(ParseStraggler("warp:0:2", 8, &error).has_value());
  EXPECT_FALSE(ParseStraggler("slow:1.5:2", 8, &error).has_value());
  // Non-finite fields would evade one-sided range checks and poison
  // the replay; the parser rejects them outright.
  EXPECT_FALSE(ParseStraggler("slow:0:inf", 8, &error).has_value());
  EXPECT_FALSE(ParseStraggler("slow:nan:4", 8, &error).has_value());
  EXPECT_FALSE(ParseStraggler("exp:nan:0.5", 8, &error).has_value());
}

TEST(Parse, TopologyAndScenario) {
  std::string error;
  const auto topo = ParseTopology("2:16", 8, &error);
  ASSERT_TRUE(topo.has_value()) << error;
  EXPECT_EQ(topo->nodes_per_rack, 2);
  EXPECT_TRUE(topo->core_is_finite());
  EXPECT_FALSE(ParseTopology("2", 8, &error).has_value());
  EXPECT_FALSE(ParseTopology("0:16", 8, &error).has_value());

  ScenarioSpec spec;
  spec.topology = "2:16";
  spec.straggler = "slow:0:4";
  spec.mitigate = "spec:0.5:2";
  spec.discipline = "full";
  spec.order = "per-sender";
  const auto scenario = ParseScenario(spec, 8, &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  EXPECT_EQ(scenario->discipline, simnet::Discipline::kParallelFullDuplex);
  EXPECT_EQ(scenario->order, simnet::ReplayOrder::kPerSender);
  EXPECT_EQ(scenario->mitigation.kind, mitigate::PolicyKind::kSpeculative);
  EXPECT_DOUBLE_EQ(scenario->mitigation.trigger, 2.0);
  EXPECT_EQ(scenario->cluster.straggler.kind,
            simscen::StragglerKind::kSlowNode);

  spec.mitigate = "bogus";
  EXPECT_FALSE(ParseScenario(spec, 8, &error).has_value());
}

TEST(Parse, InjectDelay) {
  std::string error;
  const auto d = ParseInjectDelay("Map:1:0.25", 8, &error);
  ASSERT_TRUE(d.has_value()) << error;
  EXPECT_EQ(d->stage, stage::kMap);
  EXPECT_EQ(d->node, 1);
  EXPECT_DOUBLE_EQ(d->seconds, 0.25);
  EXPECT_FALSE(ParseInjectDelay("Mapp:1:0.25", 8, &error).has_value());
  EXPECT_FALSE(ParseInjectDelay("Map:8:0.25", 8, &error).has_value());
  EXPECT_FALSE(ParseInjectDelay("Map:1", 8, &error).has_value());
}

// JobResult::metrics must flatten into the bench JSON schema
// (bench/bench_common.h) — the contract the ctsort --json artifact
// and the CI job-smoke validation rely on.
TEST(JobJson, MetricsSatisfyBenchSchema) {
  const SortConfig config = SmallConfig(2);
  JobSpec spec;
  spec.algorithm = "coded";
  spec.config = config;
  spec.backend = Backend::kReplay;
  simscen::Scenario scenario = simscen::Scenario::Baseline(4);
  scenario.cluster.straggler.kind = simscen::StragglerKind::kSlowNode;
  scenario.cluster.straggler.node = 0;
  scenario.cluster.straggler.slowdown = 4.0;
  scenario.mitigation = mitigate::MitigationPolicy::CodedMap();
  spec.scenario = scenario;
  const JobResult result = RunJob(spec);

  const std::string path =
      ::testing::TempDir() + "/job_metrics_schema.json";
  bench::JsonReport json("job_smoke", path);
  for (const auto& [key, value] : result.metrics("coded_r2")) {
    json.add(key, value);
  }
  ASSERT_TRUE(json.write());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(bench::CheckBenchJsonSchema(
                content.str(),
                {"coded_r2/total_s", "coded_r2/wasted_s"}),
            "");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cts::job
