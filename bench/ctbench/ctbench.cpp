// ctbench — the repository's benchmark: end-to-end job metrics on five
// workloads, and a per-layer profile taken from outside the library.
//
//   ctbench --workload=NAME [--seed=2017] [--jobs=40] [--seconds=T]
//           [--trace=FILE]
//   ctbench --workload=NAME --setup-only [--seed=S]
//   ctbench --self-check [--trace-dir=DIR]
//
// Run shape: a closed loop with one client. It submits a job, waits for
// it, checks it, then submits the next. One process runs one workload:
// a cold first job on seed S (setup_s), then timed jobs on seeds S+1,
// S+2, ... until --jobs jobs ran or, with --seconds, until the loop
// has run that long (at least 5 jobs). Every measured wall is paired
// with a reference kernel run just before it (ReferenceSeconds). Only
// the call into the library is timed (job::RunJob, plan::RunPlan);
// every check runs outside the timed region and a failed check counts
// in error_rate.
//
// --trace=FILE makes the run traced: after the loop, ctbench calls each
// layer itself on the first timed job's seed (layers.h) and writes one
// Chrome trace — pid 0 the live job's stage spans, pid 1 the layer
// spans — and reports the per-layer metrics. End-to-end metrics are
// meant to be read from untraced runs.
//
// The last line of stdout is one JSON object with every metric, its
// unit, sample count and quartiles (bench/ctbench/README.md lists them;
// bench/ctbench/compare.py compares sets of these files). The exit
// status is nonzero when any job failed.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/loads.h"
#include "analytics/report.h"
#include "bench/ctbench/layers.h"
#include "combinatorics/subsets.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "job/job.h"
#include "keyvalue/teragen.h"
#include "keyvalue/teravalidate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/planner.h"
#include "simulate/simulate.h"

namespace ctbench {
namespace {

using namespace cts;

constexpr std::uint64_t kPaperRecords = 120000000;  // the paper's 12 GB
constexpr int kMinTimedJobs = 5;
constexpr std::uint64_t kDefaultSeed = 2017;

// ---- Metric catalogue ----

enum class Kind { kEndToEnd, kLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  Kind kind;
  const char* better;  // "lower" | "higher"
  // End-to-end metrics: the share of the baseline median by which the
  // metric may worsen before a change counts as a regression; 0 means
  // the value must repeat exactly, kUnbounded that it is reported
  // only. Unused for layer metrics.
  double bound;
};

// Raw wall-clock rates move with the host's speed (ReferenceSeconds),
// and the p75 of job_ref spreads too widely across runs on a shared
// host, so they are reported but not bounded; job_ref carries the
// bound.
constexpr double kUnbounded = -1;

constexpr MetricDef kMetrics[] = {
    {"job_ref", "ref", Kind::kEndToEnd, "lower", 0.24},
    {"job_ref_p75", "ref", Kind::kEndToEnd, "lower", kUnbounded},
    {"job_s", "s", Kind::kEndToEnd, "lower", kUnbounded},
    {"job_s_p75", "s", Kind::kEndToEnd, "lower", kUnbounded},
    {"sort_MBps", "MB/s", Kind::kEndToEnd, "higher", kUnbounded},
    {"cells_per_s", "cells/s", Kind::kEndToEnd, "higher", kUnbounded},
    {"setup_s", "s", Kind::kEndToEnd, "lower", 0.25},
    {"setup_wall_s", "s", Kind::kEndToEnd, "lower", kUnbounded},
    {"peak_rss_MB", "MB", Kind::kEndToEnd, "lower", 0.25},
    {"shuffle_MB", "MB", Kind::kEndToEnd, "lower", 0},
    {"paper_makespan_s", "s", Kind::kEndToEnd, "lower", 0},
    {"error_rate", "ratio", Kind::kEndToEnd, "lower", 0},
    {"bench.ref_s", "s", Kind::kLayer, "lower", 0},
    {"stage.CodeGen_s", "s", Kind::kLayer, "lower", 0},
    {"stage.Map_s", "s", Kind::kLayer, "lower", 0},
    {"stage.Pack_s", "s", Kind::kLayer, "lower", 0},
    {"stage.Encode_s", "s", Kind::kLayer, "lower", 0},
    {"stage.Shuffle_s", "s", Kind::kLayer, "lower", 0},
    {"stage.Decode_s", "s", Kind::kLayer, "lower", 0},
    {"stage.Unpack_s", "s", Kind::kLayer, "lower", 0},
    {"stage.Reduce_s", "s", Kind::kLayer, "lower", 0},
    {"driver.barrier_wait_s", "s", Kind::kLayer, "lower", 0},
    {"driver.residual_s", "s", Kind::kLayer, "lower", 0},
    {"keyvalue.gen_MBps", "MB/s", Kind::kLayer, "higher", 0},
    {"keyvalue.partition_MBps", "MB/s", Kind::kLayer, "higher", 0},
    {"keyvalue.pack_MBps", "MB/s", Kind::kLayer, "higher", 0},
    {"keyvalue.unpack_MBps", "MB/s", Kind::kLayer, "higher", 0},
    {"keyvalue.sort_MBps", "MB/s", Kind::kLayer, "higher", 0},
    {"keyvalue.validate_s", "s", Kind::kLayer, "lower", 0},
    {"coding.encode_MBps", "MB/s", Kind::kLayer, "higher", 0},
    {"coding.decode_MBps", "MB/s", Kind::kLayer, "higher", 0},
    {"coding.merge_MBps", "MB/s", Kind::kLayer, "higher", 0},
    {"coding.xor_MB", "MB", Kind::kLayer, "lower", 0},
    {"coding.useful_ratio", "ratio", Kind::kLayer, "higher", 0},
    {"coding.groups", "count", Kind::kLayer, "lower", 0},
    {"simmpi.deliver_MBps", "MB/s", Kind::kLayer, "higher", 0},
    {"simmpi.shuffle_msgs", "count", Kind::kLayer, "lower", 0},
    {"simmpi.arena_hit_ratio", "ratio", Kind::kLayer, "higher", 0},
    {"simmpi.stripe_contention", "count", Kind::kLayer, "lower", 0},
    {"job.cache_hit_ratio", "ratio", Kind::kLayer, "higher", 0},
    {"job.cell_us", "us", Kind::kLayer, "lower", 0},
    {"simscen.replay_us", "us", Kind::kLayer, "lower", 0},
    {"simscen.flows_started", "count", Kind::kLayer, "lower", 0},
    {"simscen.flows_requeued", "count", Kind::kLayer, "lower", 0},
    {"simscen.maxmin_recomputations", "count", Kind::kLayer, "lower", 0},
    {"simulate.synthesize_s", "s", Kind::kLayer, "lower", 0},
    {"analytics.price_s", "s", Kind::kLayer, "lower", 0},
    {"trace.overhead_s", "s", Kind::kLayer, "lower", 0},
};

constexpr const char* kStages[] = {stage::kCodeGen, stage::kMap,
                                   stage::kPack,    stage::kEncode,
                                   stage::kShuffle, stage::kDecode,
                                   stage::kUnpack,  stage::kReduce};

// ---- Workloads ----

enum class Shape { kLive, kSimulated, kPlan };

// The shape of a reference kernel (ReferenceSeconds): sort shares on
// `threads` threads, optionally followed by one more share on one
// thread; threads == 1 is the std::map kernel instead.
struct Reference {
  int threads = 1;
  bool serial_tail = false;
};

struct Workload {
  std::string name;
  Shape shape = Shape::kLive;
  std::string algorithm;  // registry name (live / simulated)
  SortConfig config;      // seed is set per job
  // coded-k4-r2 checks its shuffle against eq. (2).
  bool check_load_ratio = false;
  plan::PlanAxes axes;  // plan-k4 (straggler set is set per job)
  // The kernels timed jobs and the cold start are divided by, shaped
  // like what each keeps busy.
  Reference job_reference;
  Reference setup_reference;
};

// The five workloads (README.md records why each exists). `tiny`
// shrinks the inputs for --self-check.
std::vector<Workload> Workloads(bool tiny) {
  const auto records = [tiny](std::uint64_t n) { return tiny ? n / 25 : n; };
  // Live jobs keep their 4 node threads busy.
  const Reference four_threads{4, false};
  std::vector<Workload> out;

  Workload terasort;
  terasort.name = "terasort-k4";
  terasort.algorithm = "terasort";
  terasort.config.num_nodes = 4;
  terasort.config.num_records = records(250000);
  terasort.config.distribution = KeyDistribution::kBalanced;
  terasort.job_reference = terasort.setup_reference = four_threads;
  out.push_back(terasort);

  Workload coded;
  coded.name = "coded-k4-r2";
  coded.algorithm = "coded";
  coded.config.num_nodes = 4;
  coded.config.redundancy = 2;
  coded.config.num_records = records(250000);
  coded.config.distribution = KeyDistribution::kBalanced;
  coded.config.codegen_mode = CodeGenMode::kCommSplit;
  coded.check_load_ratio = true;
  coded.job_reference = coded.setup_reference = four_threads;
  out.push_back(coded);

  // Node 0 reduces ~71% of the skewed keys alone, about 40% of the job
  // wall, so its kernel ends with a one-thread share too.
  Workload skewed;
  skewed.name = "coded-k4-r3-skewed";
  skewed.algorithm = "coded";
  skewed.config.num_nodes = 4;
  skewed.config.redundancy = 3;
  skewed.config.num_records = records(250000);
  skewed.config.distribution = KeyDistribution::kSkewed;
  skewed.config.shuffle_sync = ShuffleSync::kOverlapped;
  skewed.job_reference = skewed.setup_reference = {4, true};
  out.push_back(skewed);

  Workload simulated;
  simulated.name = "simulated-k1000-r3";
  simulated.shape = Shape::kSimulated;
  simulated.algorithm = "coded";
  simulated.config.num_nodes = 1000;
  simulated.config.redundancy = 3;
  simulated.config.num_records = records(20000);
  out.push_back(simulated);

  Workload planner;
  planner.name = "plan-k4";
  planner.shape = Shape::kPlan;
  plan::PlanAxes& axes = planner.axes;
  axes.algorithms = {"terasort", "coded"};
  axes.redundancies = {2, 3};
  axes.node_counts = {4};
  axes.topologies = {"", "2:2", "2:2:1:1:aware"};
  axes.policies = {"none", "spec", "coded"};
  axes.instances = {{"m3.large", 1.0, 0.133}, {"c3.xlarge", 1.9, 0.21}};
  axes.records = records(200000);
  axes.paper_records = kPaperRecords;
  axes.discipline = "full";
  // The cold start executes the plan's live runs; the jobs only replay.
  planner.setup_reference = four_threads;
  out.push_back(planner);
  return out;
}

// ---- Small helpers ----

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Shortest text that reads back as exactly `v`.
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double PeakRssMB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

double ShuffleBytes(const AlgorithmResult& run) {
  const auto it = run.traffic.find(stage::kShuffle);
  return it == run.traffic.end()
             ? 0.0
             : static_cast<double>(it->second.transmitted_bytes());
}

// Histogram quantile and max entries do not add across jobs.
bool Additive(const std::string& key) {
  for (const char* suffix : {"/max", "/p50", "/p99"}) {
    const std::string s = suffix;
    if (key.size() >= s.size() &&
        key.compare(key.size() - s.size(), s.size(), s) == 0) {
      return false;
    }
  }
  return true;
}

std::map<std::string, double> Delta(const std::map<std::string, double>& before,
                                    const std::map<std::string, double>& after) {
  std::map<std::string, double> out;
  for (const auto& [key, value] : after) {
    const auto it = before.find(key);
    const double d = it == before.end() ? value : value - it->second;
    if (d != 0) out[key] = d;
  }
  return out;
}

double Get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---- Reference kernel ----

// On a shared host the speed one process gets drifts by tens of
// percent over minutes (co-tenants contend for the vCPUs and memory
// bandwidth), far more than a 10% bound allows on raw wall time. So
// every timed job, and every cold start, runs right after a fixed
// kernel that lives here, not in src/, shaped like the measured work
// (Workload::job_reference), and is divided by the kernel's wall:
// drift slows both, a change in src/ moves only the job. Contention
// slows work spread over all vCPUs more than one thread's, so the
// shape matters: K busy threads (record-heavy live runs) get a
// parallel sort of 64-bit keys, plus a one-thread share when one node
// works on alone; one thread (DES replay and closed-form pricing, both
// map- and branch-heavy) a std::map build and probe.
std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Keeps the kernel's results observable so the work is not elided.
std::atomic<std::uint64_t> g_reference_sink{0};

void SortShare(std::uint64_t salt) {
  std::vector<std::uint64_t> keys(400000);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = SplitMix64(i * 7919 + salt);
  }
  std::sort(keys.begin(), keys.end());
  g_reference_sink += keys[keys.size() / 2];
}

double ReferenceSeconds(const Reference& ref) {
  Stopwatch watch;
  if (ref.threads > 1) {
    std::vector<std::thread> workers;
    for (int t = 0; t < ref.threads; ++t) {
      workers.emplace_back([t] { SortShare(static_cast<std::uint64_t>(t)); });
    }
    for (std::thread& w : workers) w.join();
    if (ref.serial_tail) SortShare(static_cast<std::uint64_t>(ref.threads));
  } else {
    std::map<std::uint64_t, double> table;
    for (std::uint64_t i = 0; i < 60000; ++i) {
      table[SplitMix64(i)] = std::sqrt(static_cast<double>(i));
    }
    double acc = 0;
    for (std::uint64_t i = 0; i < 60000; ++i) {
      const auto it = table.lower_bound(SplitMix64(i * 3));
      if (it != table.end()) acc += it->second;
    }
    g_reference_sink += static_cast<std::uint64_t>(acc);
  }
  return watch.elapsed();
}

// Fixed scales near the kernels' median walls on the baseline machine
// (baseline/MACHINE.json). setup_s is a cold start divided by the
// kernel run just before it, times this: the cold start at about the
// baseline machine's speed, still in seconds.
double BaselineReferenceSeconds(const Reference& ref) {
  if (ref.threads == 1) return 0.0275;
  return ref.serial_tail ? 0.071 : 0.039;
}

double SetupSeconds(const Workload& w, double wall, double ref) {
  return Ratio(wall, ref) * BaselineReferenceSeconds(w.setup_reference);
}

// ---- One job ----

// What one job measured. Counts are exact functions of the seed; the
// wall clocks are not.
struct JobSample {
  std::uint64_t seed = 0;
  double wall = 0;          // the timed library call
  double ref = 0;           // the reference kernel run just before it
  double trace_extra = 0;   // traced runs: live trace built after the call
  double validate_s = 0;    // TeraValidate (outside the timed call)
  std::string error;        // empty when every check passed

  double input_bytes = 0;
  double shuffle_bytes = 0;
  double paper_makespan = 0;
  double xor_bytes = 0;
  double decoded_bytes = 0;
  double recipient_bytes = 0;
  double shuffle_msgs = 0;
  double cells = 0;
  std::map<std::string, double> stage_wall;  // AlgorithmResult walls
  std::map<std::string, double> stage_busy;  // summed node busy time
  double barrier_wait = 0;
  double residual = 0;
  std::map<std::string, double> registry;  // per-job registry delta

  // Traced runs keep the first job's live trace and shuffle log (for
  // the layer pass); the execution itself is dropped after each job.
  std::optional<obs::Trace> live_trace;
  simnet::TransmissionLog shuffle_log;
};

class Runner {
 public:
  explicit Runner(Workload workload) : w_(std::move(workload)) {}

  const Workload& workload() const { return w_; }
  job::RunCache& cache() { return cache_; }

  // The cold first job of the process: a live or synthesized job on
  // `seed`, or — on plan-k4 — the RunCache fill.
  JobSample Setup(std::uint64_t seed) {
    base_seed_ = seed;
    if (w_.shape != Shape::kPlan) return Job(seed);
    JobSample s;
    s.seed = seed;
    try {
      FillPlanCache(s);
    } catch (const std::exception& e) {
      s.error = e.what();
    }
    return s;
  }

  // `traced` also times building the live job's trace; `keep_trace`
  // keeps that trace and the shuffle log in the sample.
  JobSample Job(std::uint64_t seed, bool traced = false,
                bool keep_trace = false) {
    JobSample s;
    s.seed = seed;
    try {
      switch (w_.shape) {
        case Shape::kLive:
          LiveJob(s, traced, keep_trace);
          break;
        case Shape::kSimulated:
          SimulatedJob(s);
          break;
        case Shape::kPlan:
          PlanJob(s);
          break;
      }
    } catch (const std::exception& e) {
      s.error = e.what();
    }
    return s;
  }

  job::JobSpec SpecFor(std::uint64_t seed) const {
    job::JobSpec spec;
    spec.algorithm = w_.algorithm;
    spec.config = w_.config;
    spec.config.seed = seed;
    if (w_.shape == Shape::kSimulated) {
      spec.backend = job::Backend::kSimulated;
      spec.paper_records = kPaperRecords;
    } else {
      spec.backend = job::Backend::kLive;
    }
    return spec;
  }

  // The plan grid for job `seed`: the cache stays keyed by the setup
  // seed; the seed varies the sampled stragglers.
  plan::PlanAxes AxesFor(std::uint64_t seed) const {
    plan::PlanAxes axes = w_.axes;
    axes.seed = base_seed_;
    axes.stragglers.clear();
    for (std::uint64_t j = 0; j < 16; ++j) {
      axes.stragglers.push_back("exp:1:0.5:" + std::to_string(seed * 16 + j));
    }
    axes.stragglers.push_back("slow:" + std::to_string(seed % 4) + ":3");
    axes.stragglers.push_back(failstop_);
    return axes;
  }

 private:
  // Runs `call` as the timed region, bracketed by registry snapshots.
  template <typename Fn>
  void Timed(JobSample& s, Fn&& call) {
    auto& registry = obs::MetricRegistry::Global();
    const auto before = registry.Snapshot();
    Stopwatch watch;
    call();
    s.wall = watch.elapsed();
    s.registry = Delta(before, registry.Snapshot());
  }

  void LiveJob(JobSample& s, bool traced, bool keep_trace) {
    const job::JobSpec spec = SpecFor(s.seed);
    job::JobResult result;
    Timed(s, [&] { result = job::RunJob(spec); });
    if (!result.error.empty()) {
      s.error = result.error;
      return;
    }
    const AlgorithmResult& run = *result.execution;
    {
      Stopwatch watch;
      const ValidationReport report = ValidatePartitions(
          run.partitions,
          ChecksumOfInput(TeraGen(s.seed, spec.config.distribution),
                          spec.config.num_records));
      s.validate_s = watch.elapsed();
      if (!report.valid) s.error = "teravalidate: " + report.error;
    }
    RecordCounts(run, s);
    s.paper_makespan =
        SimulateRun(run, CostModel{},
                    PaperScale(spec.config.num_records, kPaperRecords))
            .total();
    StageAccounting(run, s);
    if (s.error.empty() && w_.check_load_ratio) CheckLoadRatio(spec, s);
    if (!traced) return;
    Stopwatch watch;
    obs::Trace trace = obs::BuildLiveTrace(run, 0, w_.algorithm);
    s.trace_extra = watch.elapsed();
    if (trace.events().empty()) s.error = "empty live trace";
    if (!keep_trace) return;
    trace.set_meta(w_.algorithm + "/shuffle_payload_bytes", s.shuffle_bytes);
    s.live_trace = std::move(trace);
    s.shuffle_log = run.shuffle_log;
  }

  // The run's exact counters: input, shuffle and codec bytes, messages.
  static void RecordCounts(const AlgorithmResult& run, JobSample& s) {
    const NodeWork work = run.total_work();
    s.input_bytes = static_cast<double>(run.config.total_bytes());
    s.shuffle_bytes = ShuffleBytes(run);
    s.xor_bytes = static_cast<double>(work.codec.encode_xor_bytes +
                                      work.codec.decode_xor_bytes);
    s.decoded_bytes = static_cast<double>(work.codec.decoded_bytes);
    if (const auto it = run.traffic.find(stage::kShuffle);
        it != run.traffic.end()) {
      s.recipient_bytes =
          static_cast<double>(it->second.mcast_recipient_bytes);
      s.shuffle_msgs =
          static_cast<double>(it->second.unicast_msgs + it->second.mcast_msgs);
    }
  }

  // Stage walls, node busy time, barrier wait and the residual the
  // stages leave of the job wall. Stages are barrier-delimited, so the
  // job wall bounds the sum of per-stage maxima from above. Every node
  // runs every stage once, so the mean per-node wait is
  // sum(stage walls) - sum(busy) / K.
  static void StageAccounting(const AlgorithmResult& run, JobSample& s) {
    double stages = 0;
    for (const auto& [name, seconds] : run.wall_seconds) {
      s.stage_wall[name] = seconds;
      stages += seconds;
    }
    double busy = 0;
    for (const ComputeEvent& e : run.compute_events) {
      s.stage_busy[e.stage] += e.seconds();
      busy += e.seconds();
    }
    s.barrier_wait = stages - busy / run.config.num_nodes;
    s.residual = s.wall - stages;
    if (s.residual < 0 && s.error.empty()) {
      s.error = "stage walls exceed the job wall by " + Num(-s.residual) + " s";
    }
  }

  // eq. (2): on balanced keys the coded shuffle carries
  // CodedLoad(K, r) / TeraSortLoad(K) of TeraSort's bytes on the same
  // input (TeraSort's exact bytes come from the synthesizer).
  void CheckLoadRatio(const job::JobSpec& spec, JobSample& s) const {
    const simulate::SynthesisResult terasort =
        simulate::SynthesizeRun("terasort", spec.config);
    if (!terasort.ok()) {
      s.error = "terasort synthesis: " + terasort.error;
      return;
    }
    const int K = spec.config.num_nodes;
    const double expected =
        CodedLoad(K, spec.config.redundancy) / TeraSortLoad(K);
    const double ratio = s.shuffle_bytes / ShuffleBytes(*terasort.run);
    if (std::fabs(ratio / expected - 1) > 0.05) {
      s.error = "coded/terasort shuffle ratio " + Num(ratio) +
                " is not within 5% of eq. (2)'s " + Num(expected);
    }
  }

  void SimulatedJob(JobSample& s) {
    const job::JobSpec spec = SpecFor(s.seed);
    job::JobResult result;
    Timed(s, [&] { result = job::RunJob(spec); });
    if (!result.error.empty()) {
      s.error = result.error;
      return;
    }
    const AlgorithmResult& run = *result.execution;
    const NodeWork work = run.total_work();
    const std::uint64_t input = spec.config.total_bytes();
    if (work.map_bytes !=
            input * static_cast<std::uint64_t>(spec.config.redundancy) ||
        work.reduce_bytes != input) {
      s.error = "synthesized run maps or reduces the wrong byte count";
    } else if (!(result.makespan > 0) || !std::isfinite(result.makespan)) {
      s.error = "synthesized makespan is not a positive number";
    }
    RecordCounts(run, s);
    s.paper_makespan = result.makespan;
  }

  // Every (algorithm, r) the plan prices, as RunPlan keys them.
  std::vector<std::pair<std::string, SortConfig>> PlanRuns() const {
    std::vector<std::pair<std::string, SortConfig>> runs;
    for (const std::string& algorithm : w_.axes.algorithms) {
      const bool coded = algorithm == "coded";
      for (const int r : coded ? w_.axes.redundancies : std::vector<int>{1}) {
        SortConfig config;
        config.num_nodes = w_.axes.node_counts.front();
        config.redundancy = r;
        config.num_records = w_.axes.records;
        config.seed = base_seed_;
        runs.emplace_back(algorithm, config);
      }
    }
    return runs;
  }

  // plan-k4 setup: execute and validate the plan's live runs, build
  // their paper-scale replay inputs, and place the fail-stop outage
  // inside the Shuffle every run's baseline replay shares, so the
  // fail-stop cells requeue in-flight flows.
  void FillPlanCache(JobSample& s) {
    Stopwatch watch;
    std::vector<std::shared_ptr<const simscen::ScenarioRun>> replays;
    for (const auto& [algorithm, config] : PlanRuns()) {
      (void)cache_.Get(algorithm, config);
      replays.push_back(cache_.GetScenarioRun(algorithm, config,
                                              w_.axes.paper_records, false));
    }
    s.wall = watch.elapsed();
    for (const auto& [algorithm, config] : PlanRuns()) {
      const auto run = cache_.Get(algorithm, config);
      const ValidationReport report = ValidatePartitions(
          run->partitions,
          ChecksumOfInput(TeraGen(config.seed, config.distribution),
                          config.num_records));
      if (!report.valid) s.error = "teravalidate: " + report.error;
      cache_.ReleasePartitions(algorithm, config);
      s.shuffle_bytes += ShuffleBytes(*run);
    }
    double lo = 0, hi = std::numeric_limits<double>::infinity();
    for (const auto& replay : replays) {
      const simscen::ScenarioOutcome baseline = simscen::ReplayScenario(
          *replay, simscen::Scenario::Baseline(replay->num_nodes));
      for (const simscen::StageSpan& span : baseline.spans) {
        if (span.name != stage::kShuffle) continue;
        lo = std::max(lo, span.start);
        hi = std::min(hi, span.end);
      }
    }
    if (!(hi > lo)) {
      s.error = "the plan's runs share no Shuffle window for the outage";
      return;
    }
    char spec[96];
    std::snprintf(spec, sizeof(spec), "failstop:%.9g:%.9g:1",
                  lo + 0.25 * (hi - lo), 0.25 * (hi - lo));
    failstop_ = spec;
    plan_shuffle_bytes_ = s.shuffle_bytes;
  }

  void PlanJob(JobSample& s) {
    const plan::PlanAxes axes = AxesFor(s.seed);
    plan::PlanResult result;
    Timed(s, [&] { result = plan::RunPlan(axes, plan::PlanQuery{}, cache_); });
    const std::size_t expected_cells =
        PlanRuns().size() * axes.topologies.size() * axes.stragglers.size() *
        axes.policies.size() * axes.instances.size();
    const plan::PlanRow* winner = result.winner_row();
    if (!result.error.empty()) {
      s.error = result.error;
    } else if (cache_.executions() != static_cast<int>(PlanRuns().size()) ||
               Get(s.registry, "job/cache_misses") != 0) {
      s.error = "warm plan executed live runs";
    } else if (static_cast<std::size_t>(result.cells) != expected_cells) {
      s.error = "plan evaluated " + std::to_string(result.cells) +
                " cells, expected " + std::to_string(expected_cells);
    } else if (winner == nullptr || !(winner->quantile_makespan > 0)) {
      s.error = "plan has no winner";
    } else if (Get(s.registry, "simscen/flows_requeued") <= 0) {
      s.error = "no fail-stop cell requeued a flow";
    }
    s.cells = result.cells;
    s.shuffle_bytes = plan_shuffle_bytes_;
    s.paper_makespan = winner == nullptr ? 0 : winner->quantile_makespan;
  }

  Workload w_;
  job::RunCache cache_;
  std::uint64_t base_seed_ = kDefaultSeed;
  std::string failstop_ = "none";
  double plan_shuffle_bytes_ = 0;
};

// ---- A whole run ----

struct MetricValue {
  double value = 0;
  int n = 1;
  double q1 = std::numeric_limits<double>::quiet_NaN();
  double q3 = std::numeric_limits<double>::quiet_NaN();
};

struct RunResult {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  int jobs = 0;  // timed jobs
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;  // job and run-level check failures
  std::map<std::string, MetricValue> metrics;
  std::map<std::string, std::pair<double, double>> layer_vs_busy;
  std::map<std::string, double> layer_self;
  std::vector<JobSample> samples;  // timed jobs
  bool correct() const { return failed == 0 && errors.empty(); }
};

MetricValue Summary(const std::vector<double>& v) {
  return {Median(v), static_cast<int>(v.size()), Quantile(v, 0.25),
          Quantile(v, 0.75)};
}

template <typename Fn>
std::vector<double> Collect(std::span<const JobSample> samples, Fn&& f) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const JobSample& s : samples) v.push_back(f(s));
  return v;
}

// Fills every catalogue metric the run can know; layer-pass metrics
// stay zero unless `pass` is given.
void ComputeMetrics(const Runner& runner, const JobSample& setup,
                    const LayerPass* pass, RunResult& out) {
  const std::vector<JobSample>& js = out.samples;
  // Counts are exact functions of the job seed. They are summarized over
  // the first kMinTimedJobs jobs, which every run executes whatever its
  // length, so that they repeat exactly for a given --seed.
  const std::span<const JobSample> first(
      js.data(), std::min(js.size(), static_cast<std::size_t>(kMinTimedJobs)));
  auto& m = out.metrics;
  for (const MetricDef& def : kMetrics) m[def.name] = {};
  const Workload& w = runner.workload();

  const std::vector<double> walls = Collect(js, [](auto& s) { return s.wall; });
  const std::vector<double> relative =
      Collect(js, [](auto& s) { return Ratio(s.wall, s.ref); });
  m["job_ref"] = Summary(relative);
  m["job_ref_p75"] = {Quantile(relative, 0.75),
                      static_cast<int>(relative.size())};
  m["bench.ref_s"] = Summary(Collect(js, [](auto& s) { return s.ref; }));
  m["job_s"] = Summary(walls);
  m["job_s_p75"] = {Quantile(walls, 0.75), static_cast<int>(walls.size())};
  const double job_s = m["job_s"].value;
  if (w.shape == Shape::kLive) {
    m["sort_MBps"] = {Ratio(js.empty() ? 0 : js.front().input_bytes / 1e6,
                            job_s),
                      static_cast<int>(js.size())};
  }
  if (w.shape == Shape::kPlan) {
    m["cells_per_s"] = {
        Ratio(Median(Collect(js, [](auto& s) { return s.cells; })), job_s),
        static_cast<int>(js.size())};
  }
  m["setup_s"] = {SetupSeconds(w, setup.wall, setup.ref), 1};
  m["setup_wall_s"] = {setup.wall, 1};
  m["peak_rss_MB"] = {PeakRssMB(), 1};
  m["shuffle_MB"] =
      Summary(Collect(first, [](auto& s) { return s.shuffle_bytes / 1e6; }));
  m["paper_makespan_s"] =
      Summary(Collect(first, [](auto& s) { return s.paper_makespan; }));
  m["error_rate"] = {Ratio(out.failed, out.attempted), out.attempted};

  if (w.shape == Shape::kLive) {
    for (const char* stage : kStages) {
      m[std::string("stage.") + stage + "_s"] = Summary(
          Collect(js, [&](auto& s) { return Get(s.stage_wall, stage); }));
    }
    m["driver.barrier_wait_s"] =
        Summary(Collect(js, [](auto& s) { return s.barrier_wait; }));
    m["driver.residual_s"] =
        Summary(Collect(js, [](auto& s) { return s.residual; }));
    m["keyvalue.validate_s"] =
        Summary(Collect(js, [](auto& s) { return s.validate_s; }));
    m["simmpi.arena_hit_ratio"] = Summary(Collect(js, [](auto& s) {
      const double hits = Get(s.registry, "simmpi/arena_hits");
      return Ratio(hits, hits + Get(s.registry, "simmpi/arena_misses"));
    }));
    m["simmpi.stripe_contention"] = Summary(Collect(js, [](auto& s) {
      return Get(s.registry, "simmpi/stripe_lock_contention");
    }));
  }
  if (w.algorithm == "coded") {
    m["coding.xor_MB"] =
        Summary(Collect(first, [](auto& s) { return s.xor_bytes / 1e6; }));
    m["coding.useful_ratio"] = Summary(Collect(first, [](auto& s) {
      return Ratio(s.decoded_bytes, s.recipient_bytes);
    }));
    std::uint64_t groups = 0;
    if (BinomialOr(w.config.num_nodes, w.config.redundancy + 1, &groups)) {
      m["coding.groups"] = {static_cast<double>(groups), 1};
    }
  }
  if (w.shape != Shape::kPlan) {
    m["simmpi.shuffle_msgs"] =
        Summary(Collect(first, [](auto& s) { return s.shuffle_msgs; }));
  }
  m["job.cache_hit_ratio"] = Summary(Collect(js, [](auto& s) {
    const double hits = Get(s.registry, "job/cache_hits");
    return Ratio(hits, hits + Get(s.registry, "job/cache_misses"));
  }));
  for (const char* counter :
       {"flows_started", "flows_requeued", "maxmin_recomputations"}) {
    m[std::string("simscen.") + counter] = Summary(Collect(first, [&](auto& s) {
      return Get(s.registry, std::string("simscen/") + counter);
    }));
  }

  if (pass == nullptr) return;
  for (const auto& [name, value] : pass->metrics) m[name] = {value, 1};
  const std::vector<double> traced =
      Collect(js, [](auto& s) { return s.wall + s.trace_extra; });
  m["trace.overhead_s"] = {Median(traced) - job_s,
                           static_cast<int>(traced.size())};
  for (const auto& [stage, seconds] : pass->stage_seconds) {
    out.layer_vs_busy[stage] = {
        seconds, Median(Collect(js, [&](auto& s) {
          return Get(s.stage_busy, stage);
        }))};
  }
  out.layer_self = pass->spans.SelfSeconds();
}

// Per-job registry deltas must add up to the registry's movement over
// the whole loop: nothing outside a job's bracket touched it.
std::string CheckRegistryDeltas(const std::map<std::string, double>& initial,
                                const std::map<std::string, double>& final_,
                                const std::vector<JobSample>& samples) {
  std::map<std::string, double> summed;
  for (const JobSample& s : samples) {
    for (const auto& [key, value] : s.registry) summed[key] += value;
  }
  const std::map<std::string, double> moved = Delta(initial, final_);
  std::map<std::string, double> keys = moved;
  keys.insert(summed.begin(), summed.end());
  for (const auto& [key, unused] : keys) {
    if (!Additive(key)) continue;
    const double got = Get(summed, key);
    const double want = Get(moved, key);
    if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
      return "registry key " + key + ": per-job deltas sum to " + Num(got) +
             ", the loop moved it by " + Num(want);
    }
  }
  return "";
}

obs::Trace BuildTrace(const Runner& runner, const RunResult& result,
                      const LayerPass& pass) {
  obs::Trace trace;
  const Workload& w = runner.workload();
  if (!result.samples.empty() && result.samples.front().live_trace) {
    trace.Merge(*result.samples.front().live_trace);
  }
  trace.set_process_name(1, "ctbench layer pass");
  const int K = w.shape == Shape::kLive ? w.config.num_nodes : 0;
  for (int k = 0; k < K; ++k) {
    trace.set_track_name(1, k, "node " + std::to_string(k));
  }
  trace.set_track_name(1, K, "bench");
  pass.spans.AppendTo(trace, 1);
  for (const auto& [stage, pair] : result.layer_vs_busy) {
    trace.set_meta("layer_pass/" + stage + "_s", pair.first);
    trace.set_meta("live_busy/" + stage + "_s", pair.second);
  }
  return trace;
}

struct RunOptions {
  std::uint64_t seed = kDefaultSeed;
  int jobs = 40;
  double seconds = 0;  // > 0: run the loop this long instead of `jobs`
  std::string trace_path;
};

RunResult RunWorkload(Runner& runner, const RunOptions& opt) {
  const Workload& w = runner.workload();
  RunResult out;
  out.workload = w.name;
  out.seed = opt.seed;
  out.traced = !opt.trace_path.empty();
  const double setup_ref = ReferenceSeconds(w.setup_reference);
  JobSample setup = runner.Setup(opt.seed);
  setup.ref = setup_ref;
  ++out.attempted;
  if (!setup.error.empty()) {
    ++out.failed;
    out.errors.push_back("setup: " + setup.error);
  }

  auto& registry = obs::MetricRegistry::Global();
  const auto initial = registry.Snapshot();
  Stopwatch loop;
  for (std::uint64_t i = 1;; ++i) {
    const int done = static_cast<int>(out.samples.size());
    if (opt.seconds > 0 ? (done >= kMinTimedJobs && loop.elapsed() >= opt.seconds)
                        : done >= opt.jobs) {
      break;
    }
    const double ref = ReferenceSeconds(w.job_reference);
    JobSample s = runner.Job(opt.seed + i, out.traced, out.traced && done == 0);
    s.ref = ref;
    ++out.attempted;
    if (!s.error.empty()) {
      ++out.failed;
      out.errors.push_back("seed " + std::to_string(s.seed) + ": " + s.error);
    }
    out.samples.push_back(std::move(s));
  }
  out.jobs = static_cast<int>(out.samples.size());
  const std::string registry_error =
      CheckRegistryDeltas(initial, registry.Snapshot(), out.samples);
  if (!registry_error.empty()) out.errors.push_back(registry_error);

  if (!out.traced) {
    ComputeMetrics(runner, setup, nullptr, out);
    return out;
  }
  const std::uint64_t pass_seed = opt.seed + 1;
  LayerPass pass;
  switch (w.shape) {
    case Shape::kLive:
      if (!out.samples.front().live_trace) {
        pass.error = "the first timed job failed; no layer pass";
        break;
      }
      pass = RunLivePass(w.algorithm, runner.SpecFor(pass_seed).config,
                         out.samples.front().shuffle_log);
      break;
    case Shape::kSimulated:
      pass = RunSimulatedPass(runner.SpecFor(pass_seed), 3);
      break;
    case Shape::kPlan:
      pass = RunPlanPass(runner.AxesFor(pass_seed), runner.cache());
      break;
  }
  if (!pass.error.empty()) out.errors.push_back(pass.error);
  ComputeMetrics(runner, setup, &pass, out);
  const obs::Trace trace = BuildTrace(runner, out, pass);
  const std::string invalid = obs::ValidateTrace(trace);
  if (!invalid.empty()) out.errors.push_back("invalid trace: " + invalid);
  std::ofstream file(opt.trace_path);
  trace.WriteJson(file);
  if (!file) out.errors.push_back("cannot write " + opt.trace_path);
  return out;
}

// ---- Output ----

std::string ToJson(const RunResult& r) {
  std::ostringstream os;
  os << "{\"bench\":\"ctbench\",\"workload\":" << Quote(r.workload)
     << ",\"seed\":" << r.seed << ",\"traced\":" << (r.traced ? "true" : "false")
     << ",\"jobs\":" << r.jobs << ",\"attempted\":" << r.attempted
     << ",\"failed\":" << r.failed
     << ",\"correct\":" << (r.correct() ? "true" : "false") << ",\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    os << (i ? "," : "") << Quote(r.errors[i]);
  }
  os << "],\"metrics\":{";
  bool first = true;
  for (const MetricDef& def : kMetrics) {
    const MetricValue& v = r.metrics.at(def.name);
    os << (first ? "" : ",") << Quote(def.name) << ":{\"value\":" << Num(v.value)
       << ",\"unit\":" << Quote(def.unit) << ",\"kind\":"
       << (def.kind == Kind::kEndToEnd ? "\"end_to_end\"" : "\"layer\"")
       << ",\"better\":" << Quote(def.better);
    if (def.kind == Kind::kEndToEnd) {
      os << ",\"bound\":" << (def.bound < 0 ? "null" : Num(def.bound));
    }
    os << ",\"n\":" << v.n;
    if (std::isfinite(v.q1)) {
      os << ",\"q1\":" << Num(v.q1) << ",\"q3\":" << Num(v.q3);
    }
    os << "}";
    first = false;
  }
  os << "},\"layer_vs_busy\":{";
  first = true;
  for (const auto& [stage, pair] : r.layer_vs_busy) {
    os << (first ? "" : ",") << Quote(stage) << ":{\"layer_pass_s\":"
       << Num(pair.first) << ",\"live_busy_s\":" << Num(pair.second) << "}";
    first = false;
  }
  os << "},\"layer_self_s\":{";
  first = true;
  for (const auto& [name, seconds] : r.layer_self) {
    os << (first ? "" : ",") << Quote(name) << ":" << Num(seconds);
    first = false;
  }
  os << "}}";
  return os.str();
}

void PrintTables(const RunResult& r, std::ostream& os) {
  TextTable table("ctbench " + r.workload + " (seed " + std::to_string(r.seed) +
                  ", " + std::to_string(r.jobs) + " timed jobs" +
                  (r.traced ? ", traced" : "") + ")");
  table.set_header({"metric", "value", "unit", "n", "q1", "q3"});
  for (const MetricDef& def : kMetrics) {
    if (def.kind == Kind::kLayer && !r.traced) continue;
    const MetricValue& v = r.metrics.at(def.name);
    table.add_row({def.name, TextTable::Num(v.value, 6), def.unit,
                   std::to_string(v.n),
                   std::isfinite(v.q1) ? TextTable::Num(v.q1, 6) : "-",
                   std::isfinite(v.q3) ? TextTable::Num(v.q3, 6) : "-"});
  }
  table.render(os);
  if (!r.layer_vs_busy.empty()) {
    TextTable cmp("per stage: layer pass (node by node) vs live summed busy");
    cmp.set_header({"stage", "layer_pass_s", "live_busy_s"});
    for (const auto& [stage, pair] : r.layer_vs_busy) {
      cmp.add_row({stage, TextTable::Num(pair.first, 6),
                   TextTable::Num(pair.second, 6)});
    }
    cmp.render(os);
  }
  for (const std::string& e : r.errors) os << "FAILED: " << e << "\n";
}

// ---- Self-check ----

// Tiny-scale run of every workload: every metric is printed with its
// unit, stage walls + residual equal the job wall, the traces validate,
// and two in-process repeats of one seed give identical counts.
int SelfCheck(const std::string& trace_dir) {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::cout << "self-check FAILED: " << what << "\n";
    }
  };
  for (const Workload& w : Workloads(/*tiny=*/true)) {
    Runner runner(w);
    RunOptions opt;
    opt.jobs = 3;
    opt.trace_path = trace_dir + "/" + w.name + ".json";
    const RunResult r = RunWorkload(runner, opt);
    expect(r.correct(), w.name + " ran clean");
    for (const std::string& e : r.errors) std::cout << "  " << e << "\n";
    // Table cells are right-aligned: each reads " <text> |".
    std::ostringstream printed;
    PrintTables(r, printed);
    const std::string text = printed.str();
    for (const MetricDef& def : kMetrics) {
      const std::size_t row = text.find(std::string(" ") + def.name + " |");
      const std::size_t eol = text.find('\n', row);
      const std::size_t unit =
          text.find(std::string(" ") + def.unit + " |", row);
      expect(row != std::string::npos && unit < eol,
             w.name + " prints " + def.name + " in " + def.unit);
    }
    for (const JobSample& s : r.samples) {
      if (w.shape != Shape::kLive) break;
      double stages = 0;
      for (const auto& [name, seconds] : s.stage_wall) stages += seconds;
      expect(s.residual >= 0 &&
                 std::fabs(stages + s.residual - s.wall) <= 1e-9 * s.wall,
             w.name + " stage walls + residual == job wall");
    }
    const JobSample a = runner.Job(opt.seed + 1);
    const JobSample b = runner.Job(opt.seed + 1);
    const auto counts = [](const JobSample& s) {
      return std::vector<double>{
          s.shuffle_bytes, s.paper_makespan, s.xor_bytes, s.decoded_bytes,
          s.recipient_bytes, s.shuffle_msgs, s.cells,
          Get(s.registry, "simscen/flows_started"),
          Get(s.registry, "simscen/flows_requeued"),
          Get(s.registry, "simscen/maxmin_recomputations")};
    };
    expect(a.error.empty() && b.error.empty() && counts(a) == counts(b),
           w.name + " counts repeat exactly");
    std::cout << "self-check " << w.name << ": " << r.jobs << " jobs, trace "
              << opt.trace_path << "\n";
  }
  std::cout << "ctbench self-check: " << (failures == 0 ? "PASS" : "FAIL")
            << "\n";
  return failures == 0 ? 0 : 1;
}

// ---- CLI ----

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "ctbench: " << error
            << "\nusage: ctbench --workload=NAME [--seed=S] [--jobs=N] "
               "[--seconds=T] [--trace=FILE] [--setup-only]\n"
               "       ctbench --self-check [--trace-dir=DIR]\n";
  std::exit(2);
}

std::uint64_t ParseU64(const std::string& flag, const std::string& text) {
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(text, &pos);
    if (pos == text.size() && text.find('-') == std::string::npos) return v;
  } catch (const std::exception&) {
  }
  Usage("bad --" + flag + "=" + text);
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Usage("unexpected argument " + arg);
    const std::size_t eq = arg.find('=');
    flags[arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2)] =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
  }
  const auto take = [&](const std::string& key, const std::string& fallback) {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    std::string v = it->second;
    flags.erase(it);
    return v;
  };

  if (flags.count("self-check")) {
    flags.erase("self-check");
    const std::string dir = take("trace-dir", ".");
    if (!flags.empty()) Usage("unknown flag --" + flags.begin()->first);
    return SelfCheck(dir);
  }

  const std::string name = take("workload", "");
  RunOptions opt;
  opt.seed = ParseU64("seed", take("seed", std::to_string(kDefaultSeed)));
  opt.jobs = static_cast<int>(ParseU64("jobs", take("jobs", "40")));
  opt.seconds = static_cast<double>(ParseU64("seconds", take("seconds", "0")));
  opt.trace_path = take("trace", "");
  const bool setup_only = flags.count("setup-only") > 0;
  flags.erase("setup-only");
  if (!flags.empty()) Usage("unknown flag --" + flags.begin()->first);
  if (opt.jobs < 1) Usage("--jobs must be >= 1");

  std::optional<Workload> workload;
  for (const Workload& w : Workloads(/*tiny=*/false)) {
    if (w.name == name) workload = w;
  }
  if (!workload) Usage("unknown --workload=" + name);
  Runner runner(*workload);

  if (setup_only) {
    const double ref = ReferenceSeconds(workload->setup_reference);
    const JobSample setup = runner.Setup(opt.seed);
    std::cout << "{\"workload\":" << Quote(name) << ",\"seed\":" << opt.seed
              << ",\"setup_s\":" << Num(SetupSeconds(*workload, setup.wall, ref))
              << ",\"setup_wall_s\":" << Num(setup.wall)
              << ",\"correct\":" << (setup.error.empty() ? "true" : "false")
              << "}\n";
    if (!setup.error.empty()) std::cerr << "FAILED: " << setup.error << "\n";
    return setup.error.empty() ? 0 : 1;
  }

  const RunResult result = RunWorkload(runner, opt);
  PrintTables(result, std::cout);
  std::cout << ToJson(result) << std::endl;
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace ctbench

int main(int argc, char** argv) { return ctbench::Main(argc, argv); }
