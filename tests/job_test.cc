// The unified Job API (src/job): registry round-trip against the
// direct Run* entry points, the cluster-shape bounds (also through the
// built ctsort and ctcheck), ctsort's replay table against its scenario
// projection, JobMatrix memoization (one live execution per distinct
// (algorithm, SortConfig) key), the shared scenario-spec parser, the
// bench-JSON schema of JobResult::metrics, and bench_paper's exit
// status and pinned preset output.
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "cmr/cmr.h"
#include "codedterasort/coded_terasort.h"
#include "job/job.h"
#include "job/matrix.h"
#include "job/parse.h"
#include "job/registry.h"
#include "obs/ledger.h"
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
    // CMR: the registry entry runs exactly the direct RunCmr call it
    // documents (WordCount app sized by CmrRecordsPerFile, coded at
    // r > 1) and returns its run.
    const SortConfig config = SmallConfig(2);
    JobSpec spec;
    spec.algorithm = "cmr";
    spec.config = config;
    spec.backend = Backend::kLive;
    const JobResult via_job = RunJob(spec);
    const auto app = cmr::MakeWordCountApp(CmrRecordsPerFile(config));
    const AlgorithmResult direct =
        cmr::RunCmr(*app, config, cmr::ShuffleMode::kCoded).run;
    EXPECT_EQ(direct.algorithm, "CMR-WordCount");
    EXPECT_EQ(via_job.execution->algorithm, direct.algorithm);
    EXPECT_EQ(via_job.execution->traffic, direct.traffic);
    EXPECT_EQ(via_job.execution->shuffle_log.size(),
              direct.shuffle_log.size());
    EXPECT_EQ(via_job.execution->stage_order, direct.stage_order);
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

  // Nor can a sampled partitioner split the key domain on an empty
  // sample.
  for (const Backend backend : {Backend::kLive, Backend::kPriced,
                                Backend::kReplay, Backend::kSimulated}) {
    for (const char* algorithm : {"terasort", "coded"}) {
      SCOPED_TRACE(std::string(BackendName(backend)) + " " + algorithm);
      RunCache cache;
      JobSpec spec;
      spec.algorithm = algorithm;
      spec.config = SmallConfig(2);
      spec.config.partitioner = PartitionerKind::kSampled;
      spec.config.sample_size = 0;
      spec.backend = backend;
      const JobResult result = RunJob(spec, cache);
      EXPECT_NE(result.error.find("sample_size = 0"), std::string::npos)
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

// RunJob fails a job whose injected delay the run cannot honour
// instead of running it unperturbed: a node outside [0, K), a delay
// that is negative, not finite or too long for sleep_for's nanoseconds,
// or any delay on kSimulated, before anything executes; a stage the
// run does not have once the run is known, naming the stages it has.
TEST(Job, RunJobRejectsDelaysItCannotInject) {
  const auto run = [](const char* algorithm, Backend backend,
                      InjectedDelay delay, RunCache& cache) {
    JobSpec spec;
    spec.algorithm = algorithm;
    spec.config = SmallConfig(2);
    spec.config.injected_delays.push_back(std::move(delay));
    spec.backend = backend;
    return RunJob(spec, cache);
  };
  for (const Backend backend :
       {Backend::kLive, Backend::kPriced, Backend::kReplay}) {
    SCOPED_TRACE(BackendName(backend));
    RunCache cache;
    for (const NodeId node : {-1, 4, 9}) {
      const JobResult result =
          run("coded", backend, {stage::kMap, node, 0.2}, cache);
      EXPECT_NE(result.error.find("node " + std::to_string(node) +
                                  " out of range for 4 nodes"),
                std::string::npos)
          << result.error;
      EXPECT_EQ(result.execution, nullptr);
    }
    for (const double seconds :
         {-1.0, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(), 1e300}) {
      SCOPED_TRACE(seconds);
      const JobResult result =
          run("coded", backend, {stage::kMap, 0, seconds}, cache);
      EXPECT_NE(result.error.find("need a finite delay >= 0"),
                std::string::npos)
          << result.error;
      EXPECT_EQ(result.execution, nullptr);
    }
    EXPECT_EQ(cache.executions(), 0);
  }

  RunCache cache;
  const JobResult simulated =
      run("coded", Backend::kSimulated, {stage::kMap, 0, 0.2}, cache);
  EXPECT_NE(simulated.error.find("cannot inject a delay"), std::string::npos)
      << simulated.error;
  EXPECT_EQ(simulated.execution, nullptr);

  const JobResult terasort =
      run("terasort", Backend::kLive, {stage::kEncode, 0, 0.2}, cache);
  EXPECT_EQ(terasort.error,
            "injected delay stage 'Encode' is not a stage of TeraSort "
            "(Map, Pack, Shuffle, Unpack, Reduce)");
  EXPECT_EQ(terasort.execution, nullptr);
  EXPECT_EQ(terasort.makespan, 0.0);

  const JobResult coded =
      run("coded", Backend::kLive, {stage::kEncode, 0, 0}, cache);
  EXPECT_EQ(coded.error, "");
  EXPECT_GT(coded.makespan, 0.0);
}

// Runs `command` through the shell and returns its stdout and stderr;
// *status gets pclose's status (0 on a clean exit, -1 when popen
// fails).
std::string Capture(const std::string& command, int* status) {
  std::string out;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    *status = -1;
    return out;
  }
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) {
    out.append(buf, n);
  }
  *status = pclose(pipe);
  return out;
}

// The built ctsort / ctcheck / ctplan / bench_paper and the
// terasort_comparison / coded_text_analytics / cluster_planner
// examples (CMake sets CTSORT_BIN, CTCHECK_BIN, CTPLAN_BIN,
// BENCH_PAPER_BIN, TERASORT_COMPARISON_BIN, CODED_TEXT_ANALYTICS_BIN
// and CLUSTER_PLANNER_BIN) exit 2 with a message on an out-of-range
// shape, an impossible axis, a mistyped enumerated flag, a missing or
// unknown preset, a CTS_* knob or an example argument that is not a
// whole base-10 number, instead of aborting or running the default.
TEST(Cli, BadShapesAndTyposExitTwo) {
  const char* ctsort = std::getenv("CTSORT_BIN");
  const char* ctcheck = std::getenv("CTCHECK_BIN");
  const char* ctplan = std::getenv("CTPLAN_BIN");
  const char* bench_paper = std::getenv("BENCH_PAPER_BIN");
  const char* terasort_comparison = std::getenv("TERASORT_COMPARISON_BIN");
  const char* coded_text_analytics = std::getenv("CODED_TEXT_ANALYTICS_BIN");
  const char* cluster_planner = std::getenv("CLUSTER_PLANNER_BIN");
  if (ctsort == nullptr || ctcheck == nullptr || ctplan == nullptr ||
      bench_paper == nullptr || terasort_comparison == nullptr ||
      coded_text_analytics == nullptr || cluster_planner == nullptr) {
    GTEST_SKIP() << "the tool and example *_BIN variables are not set "
                    "(run through ctest)";
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
        "--schedule=paralel-full", "--mitigate=spec:nan:1.5",
        "--mitigate=spec:0.5:nan", "--mitigate=spec:0.5:inf",
        "--scenario --straggler=slow:0:0x2", "--scenario --topology=' 2:2'",
        "--inject-delay='Map:0: 0.01'", "--shuffle-sync=bogus",
        "--inject-delay=Encode:0:0.5 --algo=terasort",
        "--inject-delay=Map:0:1e300"}) {
    EXPECT_EQ(status(ctsort, std::string(args) + " --records=2000"), 2)
        << "ctsort " << args;
  }
  // An empty numeric value is a bad number, not an absent flag, and a
  // number takes no leading space or '+'.
  for (const char* args :
       {"--records=0", "--records=0 --backend=priced", "--records=",
        "--nodes= --records=2000", "--seed= --records=2000",
        "--redundancy= --records=2000", "--records=' 4000'",
        "--records=+4000"}) {
    EXPECT_EQ(status(ctsort, args), 2) << "ctsort " << args;
  }
  // Every double flag, --instances field and --policies number must be
  // a whole, finite decimal (no hex), an egress rate must not be
  // negative, and one instance name must not carry two prices.
  for (const char* args :
       {"--records=0", "--quantile=2", "--quantile=-0.5", "--quantile=nan",
        "--algos=terasort,coded --redundancies=0", "--records=",
        "--quantile=", "--slo=", "--slo=nan", "--slo=inf", "--slo=1e999",
        "--max-usd=nan", "--egress-usd-per-gb=-1",
        "--egress-usd-per-gb=inf", "--instances=m3.large:1x:0.133",
        "--instances=m3.large:nan:0.133", "--instances=m3.large:1:inf",
        "--instances=m3.large:1e999:0.133", "--policies=spec:nan:1.5",
        "--slo=0x10", "--instances=m3:0x1:0.1",
        "--instances=m3.large:1:0.133,m3.large:2:0.3"}) {
    EXPECT_EQ(status(ctplan, std::string(args) + " --nodes=4"), 2)
        << "ctplan " << args;
  }
  // So must every --outages field, and its node must exist at each K.
  for (const char* args :
       {"--nodes=0", "--redundancies=0", "--nodes=4 --redundancies=5",
        "--algos=coded --nodes=65", "--algos=terasrt",
        "--outages=0:0.25:inf", "--outages=0:nan:0.25",
        "--outages=0x:0.25:0.25", "--outages=0:0.25x:0.25",
        "--outages=99999999999:0.25:0.25", "--nodes=4 --outages=99:0.25:0.25",
        "--nodes=8,4 --outages=4:0.25:0.25"}) {
    EXPECT_EQ(status(ctcheck, std::string(args) + " --quiet"), 2)
        << "ctcheck " << args;
  }
  // An empty grid axis would certify zero cells; an empty --outages
  // only asks for no outage cells.
  for (const char* args :
       {"--algos= --nodes=4", "--redundancies= --nodes=4", "--nodes=",
        "--topologies= --nodes=4", "--disciplines= --nodes=4",
        "--orders= --nodes=4"}) {
    EXPECT_EQ(status(ctcheck, std::string(args) + " --records=4000 --quiet"),
              2)
        << "ctcheck " << args;
  }
  EXPECT_EQ(status(ctcheck,
                   "--algos=terasort --nodes=4 --records=4000 "
                   "--topologies=flat --disciplines=full --orders=log "
                   "--outages= --quiet"),
            0);
  // Each knob is set through the shell's environment prefix.
  for (const char* env :
       {"CTS_RECORDS=0", "CTS_RECORDS=abc", "CTS_RECORDS=-5",
        "CTS_RECORDS=1e3", "CTS_RECORDS=99999999999999999999",
        "CTS_SEED=x"}) {
    EXPECT_EQ(status((std::string(env) + " " + bench_paper).c_str(),
                     "table1"),
              2)
        << env << " bench_paper table1";
  }
  for (const char* args : {"", "tabel1", "table1 --bogus"}) {
    EXPECT_EQ(status(bench_paper, args), 2) << "bench_paper " << args;
  }
  // Example positionals: a non-number, trailing junk, a shape the
  // engine cannot run, or a size that is not positive.
  for (const auto& [bin, args] :
       std::vector<std::pair<const char*, const char*>>{
           {terasort_comparison, "abc"},
           {terasort_comparison, "4 2 12x"},
           {coded_text_analytics, "x"},
           {coded_text_analytics, "6 0"},
           {cluster_planner, "-3"},
           {cluster_planner, "16 x"},
           {cluster_planner, "100"}}) {
    EXPECT_EQ(status(bin, args), 2) << bin << " " << args;
  }
}

// --shuffle-sync=overlapped runs the nonblocking shuffle (the one
// ctbench's coded-k4-r3-skewed workload measures), and its sorted
// output passes TeraValidate.
TEST(Cli, OverlappedShuffleSorts) {
  const char* ctsort = std::getenv("CTSORT_BIN");
  if (ctsort == nullptr) {
    GTEST_SKIP() << "CTSORT_BIN not set (run through ctest)";
  }
  int status = -1;
  const std::string out =
      Capture(std::string(ctsort) +
                  " --algo=coded --nodes=4 --redundancy=3 --dist=skewed"
                  " --shuffle-sync=overlapped --records=4000",
              &status);
  ASSERT_EQ(status, 0) << out;
  EXPECT_NE(out.find("teravalidate: OK"), std::string::npos) << out;
}

// bench_paper's four fast presets and its two replay sweeps at 20 000
// records print the flat JSON values below, which were recorded from
// the per-result bench binaries the driver replaced (one per preset,
// same names and knobs). The priced values are a function of the
// measured counters, so they pin the whole execute-and-price path;
// EXPECT_DOUBLE_EQ leaves room for last-ulp drift in sums taken in the
// shuffle log's order, which is a thread race. The sweeps replay in
// per-sender order, which reproduces exactly, so each of their 66 and
// 110 values is pinned bit for bit through one FNV digest of the
// sorted "key=%.17g" lines.
TEST(Cli, PaperPresetsArePinned) {
  const char* bench_paper = std::getenv("BENCH_PAPER_BIN");
  if (bench_paper == nullptr) {
    GTEST_SKIP() << "BENCH_PAPER_BIN not set (run through ctest)";
  }
  const std::map<std::string, std::map<std::string, double>> pinned = {
      {"table1",
       {{"terasort/Map_s", 1.8615421836228287},
        {"terasort/Pack_s", 2.3484},
        {"terasort/Reduce_s", 10.483240223463687},
        {"terasort/Shuffle_s", 948.3385263157895},
        {"terasort/Unpack_s", 0.8495421686746988},
        {"terasort/shuffle_share", 0.9838748553710482},
        {"terasort/total_s", 963.8812508915507}}},
      {"model",
       {{"ideal_r", 23},
        {"promised_speedup", 10.164250267283098},
        {"shuffle_over_map", 509.4370327242257},
        {"shuffle_share", 0.9871499980326528}}},
      {"ablation_codegen",
       {{"K16_r1/codegen_s", 0.42},
        {"K16_r1/net_benefit_s", -0.42},
        {"K16_r2/codegen_s", 1.96},
        {"K16_r2/net_benefit_s", 361.82947368421054},
        {"K16_r3/codegen_s", 6.37},
        {"K16_r3/net_benefit_s", 528.5048630947366},
        {"K16_r4/codegen_s", 15.288},
        {"K16_r4/net_benefit_s", 621.3435789473683},
        {"K16_r5/codegen_s", 28.028000000000002},
        {"K16_r5/net_benefit_s", 677.1527971283765},
        {"K16_r6/codegen_s", 40.04},
        {"K16_r6/net_benefit_s", 714.9928420809716},
        {"K16_r7/codegen_s", 45.045},
        {"K16_r7/net_benefit_s", 748.1714014238265},
        {"K16_r8/codegen_s", 40.04},
        {"K16_r8/net_benefit_s", 783.5389473684211},
        {"K20_r1/codegen_s", 0.665},
        {"K20_r1/net_benefit_s", -0.665},
        {"K20_r2/codegen_s", 3.99},
        {"K20_r2/net_benefit_s", 355.75736842105255},
        {"K20_r3/codegen_s", 16.9575},
        {"K20_r3/net_benefit_s", 511.5107778286638},
        {"K20_r4/codegen_s", 54.264},
        {"K20_r4/net_benefit_s", 574.2833684210526},
        {"K20_r5/codegen_s", 135.66},
        {"K20_r5/net_benefit_s", 560.1353193553583},
        {"K20_r6/codegen_s", 271.32},
        {"K20_r6/net_benefit_s", 473.2641515517409},
        {"K20_r7/codegen_s", 440.895},
        {"K20_r7/net_benefit_s", 340.97377731782524},
        {"K20_r8/codegen_s", 587.86},
        {"K20_r8/net_benefit_s", 223.59263157894736}}},
      {"ablation_straggler",
       {{"s1.0/coded_total_s", 461.0159217423528},
        {"s1.0/speedup", 2.0907764904272295},
        {"s1.0/terasort_total_s", 963.8812508915507},
        {"s1.5/coded_total_s", 474.68911006418176},
        {"s1.5/speedup", 2.0469155669290737},
        {"s1.5/terasort_total_s", 971.648528842082},
        {"s2.0/coded_total_s", 488.44763493321807},
        {"s2.0/speedup", 2.0051658758017905},
        {"s2.0/terasort_total_s", 979.4185296841794},
        {"s4.0/coded_total_s", 543.4817344093636},
        {"s4.0/speedup", 1.8593054174134165},
        {"s4.0/terasort_total_s", 1010.4985330525694},
        {"s8.0/coded_total_s", 653.5499333616548},
        {"s8.0/speedup", 1.641280160908183},
        {"s8.0/terasort_total_s", 1072.658539789349}}},
  };
  const std::map<std::string, std::pair<std::size_t, std::string>>
      digests = {
          {"scenarios", {66, "5723eee42a8881fb"}},
          {"mitigation", {110, "9573b2aceb21766a"}},
      };
  // Runs `preset` at the pinned knobs and returns its artifact's flat
  // keys (everything but the registry and timeline blocks), checking
  // the schema and that `required` are among them.
  const auto flat_values = [bench_paper](
                               const std::string& preset,
                               const std::vector<std::string>& required) {
    const std::string path =
        ::testing::TempDir() + "/bench_paper_" + preset + ".json";
    const int s = std::system(
        ("CTS_RECORDS=20000 CTS_SEED=2017 CTS_UNIFORM=0 CTS_TRIALS=1 " +
         std::string(bench_paper) + " " + preset + " --json=" + path +
         " > /dev/null 2>&1")
            .c_str());
    EXPECT_TRUE(WIFEXITED(s) && WEXITSTATUS(s) == 0) << preset;
    std::ifstream in(path);
    std::ostringstream content;
    content << in.rdbuf();
    std::remove(path.c_str());
    EXPECT_EQ(bench::CheckBenchJsonSchema(content.str(), required), "")
        << preset;
    obs::LedgerEntry entry;
    std::string error;
    EXPECT_TRUE(obs::ParseBenchJson(content.str(), &entry, &error))
        << preset << ": " << error;
    EXPECT_EQ(entry.bench, preset);
    std::map<std::string, double> flat;
    for (const auto& [key, value] : entry.values) {
      if (key.rfind("metrics/", 0) != 0 && key.rfind("timeline/", 0) != 0) {
        flat[key] = value;
      }
    }
    return flat;
  };
  for (const auto& [preset, values] : pinned) {
    std::vector<std::string> required;
    for (const auto& [key, value] : values) required.push_back(key);
    std::map<std::string, double> flat = flat_values(preset, required);
    EXPECT_EQ(flat.size(), values.size()) << preset;
    for (const auto& [key, value] : values) {
      EXPECT_DOUBLE_EQ(flat[key], value) << preset << " " << key;
    }
  }
  for (const auto& [preset, pin] : digests) {
    const std::map<std::string, double> flat = flat_values(preset, {});
    std::string lines;
    for (const auto& [key, value] : flat) {
      char text[32];
      std::snprintf(text, sizeof text, "%.17g", value);
      lines += key + "=" + text + "\n";
    }
    EXPECT_EQ(flat.size(), pin.first) << preset;
    EXPECT_EQ(obs::HexDigest(obs::Fingerprint64(lines)), pin.second)
        << preset << " flat values:\n"
        << lines;
  }
}

// ctsort's --discipline/--order table and its --scenario projection
// price one measured log through one replay, so they print the same
// shuffle seconds. This shape's per-sender replay sits on an ulp-level
// near-tie, where two different schedulers disagree.
TEST(Cli, ReplayTableMatchesScenarioShuffle) {
  const char* ctsort = std::getenv("CTSORT_BIN");
  if (ctsort == nullptr) {
    GTEST_SKIP() << "CTSORT_BIN not set (run through ctest)";
  }
  // At the paper's 12 GB, and at executed scale (--paper-records=0),
  // which the replay table must accept as the projection does, and
  // which the projection's title names as the executed 1.20 MB.
  for (const auto& [paper_records, scale] :
       {std::pair{"120000000", "12.00 GB"}, std::pair{"0", "1.20 MB"}}) {
    int status = -1;
    const std::string out =
        Capture(std::string(ctsort) +
                    " --algo=coded --nodes=12 --redundancy=3 --records=12000"
                    " --dist=balanced --paper-records=" + paper_records +
                    " --no-verify --discipline=full --order=per-sender"
                    " --scenario",
                &status);
    ASSERT_EQ(status, 0) << out;
    // Cell `index` of the CodedTeraSort row in the table titled `title`
    // (cell 0 is the empty text before the first bar).
    const auto cell = [&out](const std::string& title, int index) {
      std::istringstream in(
          out.substr(std::min(out.find(title), out.size())));
      std::string line;
      while (std::getline(in, line) &&
             line.rfind("| CodedTeraSort |", 0) != 0) {
      }
      std::istringstream row(line);
      std::string text;
      for (int i = 0; i <= index; ++i) std::getline(row, text, '|');
      std::string word;
      std::istringstream(text) >> word;
      return word;
    };
    // | algorithm | discipline | order | seconds | against the
    // projection's | Algorithm | CodeGen | Map | Pack/Encode | Shuffle |.
    const std::string replayed = cell("shuffle makespan", 4);
    ASSERT_FALSE(replayed.empty()) << out;
    EXPECT_EQ(replayed, cell("scenario projection", 5)) << out;
    EXPECT_NE(out.find(std::string("EC2-calibrated projection at ") + scale +
                       " (100 Mbps)"),
              std::string::npos)
        << out;
  }
  // The synthesized projection titles its scale the same way.
  int status = -1;
  const std::string out = Capture(
      std::string(ctsort) +
          " --algo=coded --backend=simulated --nodes=12 --redundancy=3"
          " --records=12000 --paper-records=0",
      &status);
  ASSERT_EQ(status, 0) << out;
  EXPECT_NE(out.find("synthesized EC2-calibrated projection at 1.20 MB "
                     "(100 Mbps)"),
            std::string::npos)
      << out;
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

  // RunPlan's positional lookup finds the cell the labels find, and
  // dies one past the end of any axis.
  for (std::size_t i = 0; i < m.instances.size(); ++i) {
    for (std::size_t s = 0; s < m.scenarios.size(); ++s) {
      for (std::size_t p = 0; p < m.policies.size(); ++p) {
        for (std::size_t a = 0; a < m.algos.size(); ++a) {
          EXPECT_EQ(&results.at_position(a, s, p, i),
                    &results.at(m.algos[a].label, m.scenarios[s].label,
                                m.policies[p].label, m.instances[i].label))
              << a << s << p << i;
        }
      }
    }
  }
  EXPECT_THROW((void)results.at_position(2, 0, 0, 0), CheckError);
  EXPECT_THROW((void)results.at_position(0, 3, 0, 0), CheckError);
  EXPECT_THROW((void)results.at_position(0, 0, 2, 0), CheckError);
  EXPECT_THROW((void)results.at_position(0, 0, 0, 2), CheckError);

  // Collapsed axes resolve through "" (the bench_paper table style).
  JobMatrix flat;
  flat.backend = Backend::kPriced;
  flat.algos = m.algos;
  const MatrixResults priced = RunMatrix(flat, cache);
  ASSERT_EQ(priced.cells().size(), 2u);
  EXPECT_EQ(&priced.at("terasort"), &priced.cells()[0].result);
  EXPECT_EQ(&priced.at("coded_r2"), &priced.cells()[1].result);
  EXPECT_THROW((void)priced.at("coded_r3"), CheckError);
  EXPECT_THROW((void)priced.at("terasort", "healthy"), CheckError);
  EXPECT_EQ(&priced.at_position(1), &priced.cells()[1].result);
  EXPECT_THROW((void)priced.at_position(0, 1), CheckError);
}

// A failing cell fails the sweep on the calling thread: RunMatrix joins
// its workers, then rethrows the exception of the lowest failing cell,
// the one a loop of RunJob calls over the cells meets first. The cache
// keeps the runs it executed.
TEST(Matrix, FailingCellRethrowsOnTheCaller) {
  JobMatrix m;
  m.backend = Backend::kReplay;
  m.algos.push_back({"terasort", "terasort", SmallConfig(1)});
  m.algos.push_back({"coded_r2", "coded", SmallConfig(2)});
  simscen::Scenario slow = simscen::Scenario::Baseline(4);
  slow.cluster.straggler.kind = simscen::StragglerKind::kSlowNode;
  slow.cluster.straggler.slowdown = 3.0;
  // Scenarios 1 and 3 name 5- and 6-node clusters for 4-node runs.
  m.scenarios.push_back({"healthy", simscen::Scenario::Baseline(4)});
  m.scenarios.push_back({"five", simscen::Scenario::Baseline(5)});
  m.scenarios.push_back({"slow", slow});
  m.scenarios.push_back({"six", simscen::Scenario::Baseline(6)});
  m.policies.push_back({"none", mitigate::MitigationPolicy::None()});
  m.policies.push_back({"spec", mitigate::MitigationPolicy::Speculative()});

  RunCache cache;
  std::string error;
  try {
    (void)RunMatrix(m, cache);
  } catch (const CheckError& e) {
    error = e.what();
  }
  EXPECT_NE(error.find("lhs=5 rhs=4"), std::string::npos) << error;
  // No worker outlives the throw: nothing replays after it.
  auto& registry = obs::MetricRegistry::Global();
  const auto replays = [&registry] {
    return std::make_pair(
        registry.counter("simscen/flows_started").value(),
        registry.counter("simscen/network_memo_hits").value());
  };
  const auto at_throw = replays();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(replays(), at_throw);

  // The serial loop's first failing cell is (five, none, terasort).
  JobSpec first_bad;
  first_bad.algorithm = "terasort";
  first_bad.config = SmallConfig(1);
  first_bad.backend = Backend::kReplay;
  first_bad.scenario = simscen::Scenario::Baseline(5);
  std::string serial_error;
  try {
    (void)RunJob(first_bad, cache);
  } catch (const CheckError& e) {
    serial_error = e.what();
  }
  EXPECT_EQ(error, serial_error);

  // Both runs executed before the cells; a good sweep replays them.
  EXPECT_EQ(cache.executions(), 2);
  JobMatrix good = m;
  good.scenarios = {m.scenarios[0], m.scenarios[2]};
  const MatrixResults results = RunMatrix(good, cache);
  EXPECT_EQ(results.executions(), 0);
  ASSERT_EQ(results.cells().size(), 8u);
  for (const MatrixCell& cell : results.cells()) {
    EXPECT_GT(cell.result.makespan, 0.0) << cell.algo << cell.scenario;
  }
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
  // Every field is a plain decimal: no hex, no leading space or '+'.
  EXPECT_FALSE(ParseStraggler("slow:0:0x2", 8, &error).has_value());
  EXPECT_FALSE(ParseTopology(" 2:2", 8, &error).has_value());
  EXPECT_FALSE(ParseInjectDelay("Map:0: 0.01", 8, &error).has_value());
  // ...but an exponent is fine, as %g prints it.
  const auto tiny = ParseStraggler("failstop:1e-05:1.5e+2:1", 8, &error);
  ASSERT_TRUE(tiny.has_value()) << error;
  EXPECT_DOUBLE_EQ(tiny->fail_at, 1e-05);
  EXPECT_DOUBLE_EQ(tiny->recovery, 150.0);
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
