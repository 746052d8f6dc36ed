// ctsort — command-line driver for the coded-terasort library.
//
// A thin shell over the unified Job API (src/job): every invocation
// builds JobSpecs — algorithm registry name × SortConfig × evaluation
// backend × optional scenario — runs them through one RunCache (each
// algorithm executes on the simulated cluster exactly once, every
// other view is a replay of that measured run), verifies the output,
// and reports executed wall times, transport traffic and the
// EC2-calibrated paper-scale projection.
//
//   ctsort --algo=both --nodes=16 --redundancy=3 --records=1200000
//   ctsort --algo=coded --nodes=20 --redundancy=5 --codegen=batched
//   ctsort --algo=each --scenario --straggler=slow:0:4 --json
//   ctsort --list-algos
//
// Flags (all optional):
//   --algo=NAME|both|each             registry name, or: both =
//                                     terasort+coded, each = every
//                                     registered algorithm     [both]
//   --backend=live|priced|simulated   live executes on the thread
//                                     harness; priced is live whose
//                                     --trace comes from the paper-
//                                     scale DES replay instead of the
//                                     measured run; simulated
//                                     synthesizes the counters
//                                     arithmetically
//                                     (Backend::kSimulated) — no
//                                     execution, so K can reach ~1000;
//                                     prints the projection only [live]
//   --list-algos                      print the registry and exit
//   --nodes=K                         worker count           [8]
//   --redundancy=r                    computation load       [3]
//   --records=N                       records to sort        [200000]
//   --seed=S                          workload seed          [2017]
//   --dist=uniform|sorted|reverse|skewed|fewdistinct|balanced [uniform]
//   --partitioner=range|sampled       key partitioner        [range]
//   --codegen=split|batched           group creation mode    [split]
//   --shuffle-sync=barrier|overlapped shuffle synchronization: the
//                                     paper's barrier and ordered
//                                     blocking sends, or nonblocking
//                                     sends posted up front [barrier]
//   --schedule=serial|parallel-full|parallel-half            [serial]
//                                     closed-form shuffle pricing of
//                                     the projection (parallel forms
//                                     assume perfect overlap)
//   --paper-records=N                 report at this scale   [=records]
//   --no-verify                       skip output validation
//   --json[=path]                     bench-schema JSON of every job's
//                                     metrics [off; default path
//                                     BENCH_ctsort.json]
//   --ledger[=path]                   append one run-ledger entry
//                                     (obs/ledger.h) per evaluated
//                                     algorithm — fingerprinted by the
//                                     RunCache key plus the backend and
//                                     scenario axes, queried by
//                                     tools/ctstat [off; default path
//                                     LEDGER_ctsort.jsonl]
//
// Observability (src/obs):
//   --trace=FILE                      write a Chrome trace_event JSON
//                                     of the run (load in Perfetto /
//                                     chrome://tracing): one process
//                                     per algorithm, one track per
//                                     node, shuffle slices + flow
//                                     arrows, outage/speculation
//                                     marks. --backend=live traces the
//                                     measured run; --backend=priced
//                                     traces the DES scenario replay
//                                     (baseline scenario when
//                                     --scenario is absent). Rejected
//                                     under --backend=simulated
//                                     (nothing executes).
//   --metrics                         print the process-wide
//                                     MetricRegistry snapshot after
//                                     the run
//
// Transmission-log replay (the flow DES, simscen::NetMakespan: prints
// the Shuffle stage of the baseline scenario replay, i.e. the measured
// log's makespan under a network discipline at paper scale):
//   --discipline=serial|half|full     replay discipline
//   --order=log|per-sender            initiation-order constraint [log]
//
// Scenario replay (src/simscen; discrete-event replay of the whole run
// under a cluster profile and topology — flag syntax is shared with
// the bench sweeps via job::ParseScenario):
//   --scenario                        enable the scenario projection
//   --topology=R:F                    R nodes per rack behind a core
//                                     oversubscribed F:1  [single rack]
//   --straggler=slow:NODE:FACTOR      one node FACTOR x slower
//   --straggler=exp:SHIFT:MEAN[:SEED] shifted-exp factor per node/stage
//   --straggler=failstop:T:REC[:NODE] node offline [T, T+REC); during
//                                     the window the node's links are
//                                     frozen and its in-flight shuffle
//                                     transfers re-queue
// The scenario network uses --discipline/--order (default serial/log).
//
// Straggler mitigation (src/mitigate):
//   --mitigate=none|spec[:Q:T]|coded  policy: speculative re-execution
//                                     (backups once a node runs past
//                                     T x the Q-quantile completion;
//                                     default 0.5:1.5) or K-of-N coded
//                                     Map completion (exploits the r-
//                                     replicated placement)
//   --inject-delay=STAGE:NODE:SEC     live fault injection: that node
//                                     really sleeps SEC inside STAGE
// --mitigate evaluates the policy on the measured run's recorded stage
// boundaries (a kLive job replayed under the baseline scenario) and,
// with --scenario, inside the scenario replay — the same policy
// arithmetic either way.
#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analytics/report.h"
#include "bench/bench_common.h"
#include "common/table.h"
#include "common/units.h"
#include "job/job.h"
#include "job/parse.h"
#include "job/registry.h"
#include "keyvalue/teragen.h"
#include "keyvalue/teravalidate.h"
#include "mitigate/policy.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "tools/flag_parser.h"

namespace {

using namespace cts;

using cts::tools::Flags;

// The registry printout behind --list-algos.
void ListAlgorithms() {
  TextTable table("registered algorithms (ctsort --algo=NAME)");
  table.set_header({"name", "priced", "sorts", "knobs", "description"});
  for (const std::string& name : job::Names()) {
    const job::AlgorithmInfo* info = job::Find(name);
    std::string knobs;
    for (const std::string& knob : info->knobs) {
      knobs += (knobs.empty() ? "" : ",") + knob;
    }
    table.add_row({name, info->priced ? "yes" : "no",
                   info->sorts ? "yes" : "no", knobs, info->description});
  }
  table.render(std::cout);
}

// Resolves --algo into registry names; dies with a did-you-mean
// suggestion on an unknown name.
std::vector<std::string> ResolveAlgos(const std::string& spec) {
  if (spec == "both") return {"terasort", "coded"};
  if (spec == "each") {
    // The registry is alphabetical; the report tables compute speedup
    // against their first row, so keep the paper's baseline first:
    // terasort, then the other priced sorters, then unpriced engines.
    std::vector<std::string> names = job::Names();
    std::stable_sort(names.begin(), names.end(),
                     [](const std::string& a, const std::string& b) {
                       const auto rank = [](const std::string& n) {
                         if (n == "terasort") return 0;
                         return job::Find(n)->priced ? 1 : 2;
                       };
                       return rank(a) < rank(b);
                     });
    return names;
  }
  if (job::Find(spec) != nullptr) return {spec};
  std::string msg = "unknown --algo=" + spec;
  const std::string suggestion = job::SuggestName(spec);
  if (!suggestion.empty()) {
    msg += " (did you mean --algo=" + suggestion + "?)";
  } else {
    msg += " (see --list-algos)";
  }
  Flags::Fail(msg);
}

// TeraValidate: global order + order-insensitive multiset checksum
// against the generated input.
ValidationReport Verify(const AlgorithmResult& result) {
  const RecordChecksum expected = ChecksumOfInput(
      TeraGen(result.config.seed, result.config.distribution),
      result.config.num_records);
  return ValidatePartitions(result.partitions, expected);
}

void Report(const AlgorithmResult& result, bool verify) {
  std::cout << "--- " << result.algorithm << " ---\n";
  if (verify) {
    const ValidationReport report = Verify(result);
    std::cout << "teravalidate: "
              << (report.valid ? "OK" : "FAILED — " + report.error) << "\n";
    if (!report.valid) std::exit(1);
  }
  TextTable wall(result.algorithm + " executed wall times");
  wall.set_header({"stage", "seconds"});
  for (const auto& [name, sec] : result.wall_seconds) {
    wall.add_row({name, HumanSeconds(sec)});
  }
  wall.render(std::cout);
  const auto it = result.traffic.find(stage::kShuffle);
  if (it != result.traffic.end()) {
    std::cout << "shuffle: "
              << HumanBytes(static_cast<double>(it->second.transmitted_bytes()))
              << " transmitted (" << it->second.unicast_msgs << " unicasts, "
              << it->second.mcast_msgs << " multicasts)\n";
  }
  std::cout << "\n";
}

// --ledger: one run-ledger entry per evaluated algorithm view, with
// the digests of the timeline RunJob recorded for it. The
// fingerprint hashes the RunCache key plus the evaluation axes, so
// the same cell fingerprints identically across invocations (and
// tools): appending two builds' runs to one ledger makes
// `ctstat --check` a regression gate over this exact spec.
void RecordLedger(const std::string& path, const std::string& run_name,
                  const job::JobResult& result, const obs::Timeline& timeline,
                  const std::map<std::string, std::string>& extra_axes) {
  if (path.empty()) return;
  obs::LedgerEntry entry;
  entry.bench = "ctsort";
  entry.run = run_name;
  entry.code_version = obs::CodeVersion();
  const job::JobSpec& spec = result.spec;
  entry.axes["algo"] = spec.algorithm;
  entry.axes["K"] = std::to_string(spec.config.num_nodes);
  entry.axes["r"] = std::to_string(spec.config.redundancy);
  entry.axes["records"] = std::to_string(spec.config.num_records);
  entry.axes["seed"] = std::to_string(spec.config.seed);
  entry.axes["backend"] = job::BackendName(spec.backend);
  for (const auto& [key, value] : extra_axes) entry.axes[key] = value;
  std::string identity =
      job::RunCache::Key(spec.algorithm, spec.config) +
      "|backend=" + job::BackendName(spec.backend) +
      "|paper=" + std::to_string(spec.paper_records);
  for (const auto& [key, value] : entry.axes) {
    identity += "|" + key + "=" + value;
  }
  entry.fingerprint = obs::HexDigest(obs::Fingerprint64(identity));
  entry.values = result.metrics(run_name);
  obs::DigestTimeline(timeline, entry);
  if (!obs::AppendEntry(path, entry)) {
    std::cerr << "ctsort: cannot append to ledger " << path << "\n";
    std::exit(1);
  }
  std::cout << "appended ledger entry " << entry.fingerprint << " ("
            << run_name << ") to " << path << "\n";
}

// --metrics: the process-wide obs::MetricRegistry, one row per entry
// (the same snapshot --json embeds under its "metrics" key).
void PrintRegistrySnapshot() {
  const std::map<std::string, double> snapshot =
      obs::MetricRegistry::Global().Snapshot();
  std::cout << '\n';
  TextTable table("metric registry (" + std::to_string(snapshot.size()) +
                  " entries)");
  table.set_header({"metric", "value"});
  for (const auto& [key, value] : snapshot) {
    table.add_row({key, TextTable::Num(value)});
  }
  table.render(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, "ctsort");

  if (flags.GetBool("list-algos")) {
    flags.CheckAllConsumed();
    ListAlgorithms();
    return 0;
  }

  SortConfig config;
  config.num_nodes = static_cast<int>(flags.GetU64("nodes", 8));
  config.redundancy = static_cast<int>(flags.GetU64("redundancy", 3));
  config.num_records = flags.GetU64("records", 200000);
  config.seed = flags.GetU64("seed", 2017);
  config.distribution = flags.GetChoice<KeyDistribution>(
      "dist", "uniform",
      {{"uniform", KeyDistribution::kUniform},
       {"sorted", KeyDistribution::kSorted},
       {"reverse", KeyDistribution::kReverseSorted},
       {"skewed", KeyDistribution::kSkewed},
       {"fewdistinct", KeyDistribution::kFewDistinct},
       {"balanced", KeyDistribution::kBalanced}});
  config.partitioner = flags.GetChoice<PartitionerKind>(
      "partitioner", "range",
      {{"range", PartitionerKind::kRange},
       {"sampled", PartitionerKind::kSampled}});
  config.codegen_mode = flags.GetChoice<CodeGenMode>(
      "codegen", "split",
      {{"split", CodeGenMode::kCommSplit}, {"batched", CodeGenMode::kBatched}});
  config.shuffle_sync = flags.GetChoice<ShuffleSync>(
      "shuffle-sync", "barrier",
      {{"barrier", ShuffleSync::kBarrier},
       {"overlapped", ShuffleSync::kOverlapped}});
  const std::vector<std::string> algos =
      ResolveAlgos(flags.Get("algo", "both"));
  const simnet::Discipline schedule = flags.GetChoice<simnet::Discipline>(
      "schedule", "serial",
      {{"serial", simnet::Discipline::kSerial},
       {"parallel-full", simnet::Discipline::kParallelFullDuplex},
       {"parallel-half", simnet::Discipline::kParallelHalfDuplex}});
  const std::uint64_t paper_records =
      flags.GetU64("paper-records", config.num_records);
  const bool verify = !flags.GetBool("no-verify");
  std::string parse_error;
  const std::string inject_spec = flags.Get("inject-delay", "");
  if (!inject_spec.empty()) {
    const auto delay =
        job::ParseInjectDelay(inject_spec, config.num_nodes, &parse_error);
    if (!delay.has_value()) Flags::Fail(parse_error);
    config.injected_delays.push_back(*delay);
  }
  const std::string mitigate_spec = flags.Get("mitigate", "none");
  const std::optional<mitigate::MitigationPolicy> mitigation =
      mitigate::ParsePolicy(mitigate_spec);
  if (!mitigation.has_value()) {
    Flags::Fail("unknown --mitigate=" + mitigate_spec +
                " (none | spec[:QUANTILE:TRIGGER] | coded)");
  }

  // Replay / scenario options (the spec strings feed the shared
  // job::ParseScenario, so they mean the same experiment here and in
  // the bench sweeps).
  job::ScenarioSpec scenario_spec;
  scenario_spec.discipline = flags.Get("discipline", "");
  scenario_spec.order = flags.Get("order", "");
  scenario_spec.topology = flags.Get("topology", "");
  scenario_spec.straggler = flags.Get("straggler", "none");
  scenario_spec.mitigate = mitigate_spec;
  const bool scenario_enabled = flags.GetBool("scenario");
  if (!scenario_spec.topology.empty() && !scenario_enabled) {
    Flags::Fail("--topology requires --scenario");
  }
  if (scenario_spec.straggler != "none" && !scenario_enabled) {
    Flags::Fail("--straggler requires --scenario");
  }
  std::optional<simscen::Scenario> scenario;
  if (scenario_enabled) {
    const auto parsed =
        job::ParseScenario(scenario_spec, config.num_nodes, &parse_error);
    if (!parsed.has_value()) Flags::Fail(parse_error);
    scenario = *parsed;
  }
  const auto discipline_parsed =
      job::ParseDiscipline(scenario_spec.discipline, &parse_error);
  if (!discipline_parsed.has_value()) Flags::Fail(parse_error);
  const simnet::Discipline discipline = *discipline_parsed;
  const auto order_parsed = job::ParseOrder(scenario_spec.order, &parse_error);
  if (!order_parsed.has_value()) Flags::Fail(parse_error);
  const simnet::ReplayOrder order = *order_parsed;
  std::string json_path = flags.Get("json", "");
  if (json_path == "true") json_path = "BENCH_ctsort.json";
  std::string ledger_path = flags.Get("ledger", "");
  if (ledger_path == "true") ledger_path = "LEDGER_ctsort.jsonl";
  const job::Backend backend = flags.GetChoice<job::Backend>(
      "backend", "live",
      {{"live", job::Backend::kLive},
       {"priced", job::Backend::kPriced},
       {"simulated", job::Backend::kSimulated}});
  const bool simulated = backend == job::Backend::kSimulated;
  const bool priced_trace = backend == job::Backend::kPriced;
  const std::string trace_path = flags.Get("trace", "");
  if (trace_path == "true") Flags::Fail("--trace needs a path: --trace=FILE");
  if (!trace_path.empty() && simulated) {
    Flags::Fail(
        "--backend=simulated never executes, so there is nothing to "
        "trace — use --backend=live or --backend=priced");
  }
  const bool print_metrics = flags.GetBool("metrics");
  flags.CheckAllConsumed();

  std::cout << "ctsort: K=" << config.num_nodes << " r=" << config.redundancy
            << " records=" << config.num_records << " ("
            << HumanBytes(static_cast<double>(config.total_bytes()))
            << ")\n\n";

  // One cache for every view below: each algorithm hits the simulated
  // cluster exactly once.
  job::RunCache cache;
  bench::JsonReport json("ctsort", json_path);

  // Ledger axes beyond the SortConfig: what the scenario flags add to
  // a cell's identity (all entries of one invocation share them).
  std::map<std::string, std::string> ledger_axes;
  if (scenario_enabled) {
    ledger_axes["straggler"] = scenario_spec.straggler;
    ledger_axes["topology"] =
        scenario_spec.topology.empty() ? "flat" : scenario_spec.topology;
    ledger_axes["mitigate"] = mitigate_spec;
  }

  // ---- Synthesized backend (--backend=simulated) ----
  // Closed forms only: no execution means nothing to verify, no
  // transmission log to replay, no measured events to run a scenario
  // or mitigation policy over.
  if (simulated) {
    if (scenario_enabled || !scenario_spec.discipline.empty() ||
        !scenario_spec.order.empty() ||
        mitigation->kind != mitigate::PolicyKind::kNone ||
        !config.injected_delays.empty()) {
      Flags::Fail(
          "--backend=simulated prices closed forms only — scenario, "
          "replay, mitigation and fault-injection flags need "
          "--backend=live");
    }
    std::vector<StageBreakdown> rows;
    for (const std::string& name : algos) {
      job::JobSpec spec;
      spec.algorithm = name;
      spec.config = config;
      spec.backend = job::Backend::kSimulated;
      spec.paper_records = paper_records;
      spec.schedule = schedule;
      obs::Timeline timeline;
      const job::JobResult sim = job::RunJob(spec, cache, &timeline);
      if (!sim.error.empty()) {
        std::cout << "--- " << name << " ---\nsimulated: skipped — "
                  << sim.error << "\n\n";
        continue;
      }
      rows.push_back(sim.breakdown);
      if (json.enabled()) {
        json.add_all(sim.metrics(name));
        json.add_timeline(name, timeline);
      }
      RecordLedger(ledger_path, name, sim, timeline, ledger_axes);
    }
    if (!rows.empty()) {
      BreakdownTable("synthesized EC2-calibrated projection at " +
                         HumanBytes(static_cast<double>(paper_records) *
                                    kRecordBytes) +
                         " (100 Mbps)",
                     rows)
          .render(std::cout);
    }
    json.write();
    if (print_metrics) PrintRegistrySnapshot();
    return rows.empty() ? 1 : 0;
  }

  struct AlgoRun {
    std::string name;  // registry name
    job::JobResult live;
    obs::Timeline timeline;  // the live series, for --json/--ledger/--trace
  };
  std::vector<AlgoRun> runs;
  for (const std::string& name : algos) {
    job::JobSpec spec;
    spec.algorithm = name;
    spec.config = config;
    spec.backend = job::Backend::kLive;
    AlgoRun& run = runs.emplace_back();
    run.name = name;
    run.live = job::RunJob(spec, cache, &run.timeline);
    if (!run.live.error.empty()) Flags::Fail(run.live.error);
    const job::AlgorithmInfo* info = job::Find(name);
    Report(*run.live.execution, verify && info->sorts);
    // The sections below only need counters, logs and events; drop the
    // sorted data so --algo=each doesn't hold every dataset through
    // the reporting phase.
    cache.ReleasePartitions(name, config);
  }

  // ---- EC2-calibrated projection (priced algorithms) ----
  std::vector<StageBreakdown> rows;
  for (const AlgoRun& run : runs) {
    if (!job::Find(run.name)->priced) continue;
    job::JobSpec spec;
    spec.algorithm = run.name;
    spec.config = config;
    spec.backend = job::Backend::kPriced;
    spec.paper_records = paper_records;
    spec.schedule = schedule;
    obs::Timeline timeline;
    const job::JobResult priced = job::RunJob(spec, cache, &timeline);
    rows.push_back(priced.breakdown);
    if (!scenario.has_value()) {
      if (json.enabled()) {
        json.add_all(priced.metrics(run.name));
        json.add_timeline(run.name, timeline);
      }
      RecordLedger(ledger_path, run.name, priced, timeline, ledger_axes);
    }
  }
  if (!rows.empty()) {
    BreakdownTable("EC2-calibrated projection at " +
                       HumanBytes(static_cast<double>(paper_records) *
                                  kRecordBytes) +
                       " (100 Mbps)",
                   rows)
        .render(std::cout);
  }
  // Unpriced algorithms (no NodeWork counters) report executed-scale
  // walls in the JSON instead of a paper-scale projection.
  if (!scenario.has_value()) {
    for (const AlgoRun& run : runs) {
      if (!job::Find(run.name)->priced) {
        if (json.enabled()) {
          json.add_all(run.live.metrics(run.name));
          json.add_timeline(run.name, run.timeline);
        }
        RecordLedger(ledger_path, run.name, run.live, run.timeline,
                     ledger_axes);
      }
    }
  }

  // The baseline cluster under the CLI's --discipline/--order: what the
  // replay table, the live mitigation and a priced trace without
  // --scenario replay under.
  simscen::Scenario baseline = simscen::Scenario::Baseline(config.num_nodes);
  baseline.discipline = discipline;
  baseline.order = order;
  // A kReplay job of `name` under `replay_scenario`, reported at
  // --paper-records.
  const auto replay_spec = [&](const std::string& name,
                               const simscen::Scenario& replay_scenario) {
    job::JobSpec spec;
    spec.algorithm = name;
    spec.config = config;
    spec.backend = job::Backend::kReplay;
    spec.paper_records = paper_records;
    spec.scenario = replay_scenario;
    return spec;
  };

  // ---- Transmission-log replay (--discipline/--order) ----
  // The Shuffle stage of the baseline scenario replay: the same job
  // --scenario runs, so both tables price a log identically.
  if (!scenario_spec.discipline.empty() || !scenario_spec.order.empty()) {
    TextTable replay("shuffle makespan: discrete-event replay of the "
                     "measured log (simscen::NetMakespan)");
    replay.set_header({"Algorithm", "discipline", "order", "seconds"});
    for (const AlgoRun& run : runs) {
      if (!job::Find(run.name)->priced) continue;
      replay.add_row(
          {run.live.algorithm,
           scenario_spec.discipline.empty() ? "serial"
                                            : scenario_spec.discipline,
           scenario_spec.order.empty() ? "log" : scenario_spec.order,
           TextTable::Num(job::RunJob(replay_spec(run.name, baseline), cache)
                              .breakdown.shuffle())});
    }
    std::cout << '\n';
    replay.render(std::cout);
  }

  // ---- Scenario replay (--scenario) ----
  // Priced algorithms replay at paper scale; unpriced engines (CMR)
  // replay their measured ComputeEvents at executed scale. The two are
  // different units, so they get separate tables rather than a shared
  // speedup baseline.
  if (scenario.has_value()) {
    std::vector<StageBreakdown> scenario_rows;
    std::vector<StageBreakdown> executed_rows;
    TextTable spans("scenario makespans (paper scale)");
    spans.set_header({"Algorithm", "makespan (s)"});
    for (const AlgoRun& run : runs) {
      obs::Timeline timeline;
      const job::JobResult replayed =
          job::RunJob(replay_spec(run.name, *scenario), cache, &timeline);
      if (replayed.priced) {
        scenario_rows.push_back(replayed.breakdown);
        spans.add_row({replayed.algorithm,
                       TextTable::Num(replayed.makespan)});
      } else {
        executed_rows.push_back(replayed.breakdown);
      }
      if (json.enabled()) {
        json.add_all(replayed.metrics(run.name));
        json.add_timeline(run.name, timeline);
      }
      RecordLedger(ledger_path, run.name, replayed, timeline, ledger_axes);
    }
    std::cout << '\n';
    const std::string knobs = "topology=" +
                              (scenario_spec.topology.empty()
                                   ? "single-rack"
                                   : scenario_spec.topology) +
                              ", straggler=" + scenario_spec.straggler +
                              ", mitigate=" + mitigate_spec;
    if (!scenario_rows.empty()) {
      BreakdownTable("scenario projection (" + knobs + ")", scenario_rows)
          .render(std::cout);
      spans.render(std::cout);
    }
    if (!executed_rows.empty()) {
      BreakdownTable("scenario replay of measured events, executed scale (" +
                         knobs + ")",
                     executed_rows)
          .render(std::cout);
    }
  }

  // ---- Mitigation on the measured run (--mitigate) ----
  // The live path: the recorded per-node stage boundaries
  // (ComputeEvents, at executed scale — including any --inject-delay
  // straggler that really ran) replayed under the baseline scenario
  // with and without the policy — the same scenario replay and policy
  // arithmetic the synthetic sweeps use.
  if (mitigation->kind != mitigate::PolicyKind::kNone) {
    TextTable t("mitigation on the measured run (executed scale, policy=" +
                mitigate_spec + ")");
    t.set_header({"Algorithm", "unmitigated (s)", "mitigated (s)",
                  "wasted (s)", "backups", "abandoned"});
    for (const AlgoRun& run : runs) {
      job::JobSpec spec;
      spec.algorithm = run.name;
      spec.config = config;
      spec.backend = job::Backend::kLive;
      spec.scenario = baseline;
      const job::JobResult plain = job::RunJob(spec, cache);
      spec.scenario->mitigation = *mitigation;
      const job::JobResult mitigated = job::RunJob(spec, cache);
      t.add_row({run.live.algorithm, TextTable::Num(plain.makespan, 3),
                 TextTable::Num(mitigated.makespan, 3),
                 TextTable::Num(mitigated.wasted_seconds, 3),
                 std::to_string(mitigated.speculative_copies),
                 std::to_string(mitigated.abandoned_nodes)});
    }
    std::cout << '\n';
    t.render(std::cout);
  }

  // ---- Chrome trace export (--trace=FILE) ----
  // One process (pid) per traced algorithm in a single merged file.
  // Each pid's otherData entry records the execution's measured
  // shuffle payload so checkers (tools/trace_check.py, obs_test) can
  // verify byte conservation: the summed "bytes" args of the trace's
  // shuffle slices must equal these totals exactly.
  if (!trace_path.empty()) {
    obs::Trace trace;
    int pid = 0;
    for (const AlgoRun& run : runs) {
      const AlgorithmResult& exec = *run.live.execution;
      // The flight-recorder counter track rides along on tid K+1 of
      // each algorithm's process: the live virtual-time series always,
      // plus the DES series when the priced scenario replay runs.
      const int counter_tid = config.num_nodes + 1;
      if (!priced_trace) {
        trace.Merge(obs::BuildLiveTrace(exec, pid, run.name));
        obs::AppendTimelineCounters(run.timeline, trace, pid, counter_tid);
      } else {
        if (!job::Find(run.name)->priced) {
          std::cout << "trace: skipping " << run.name
                    << " (unpriced — no paper-scale DES replay)\n";
          continue;
        }
        // The DES view: the paper-scale replay under the requested
        // scenario, or the baseline cluster with the CLI's network
        // discipline and mitigation policy when --scenario is absent.
        // RunJob records the live series, then the replay's DES series.
        simscen::Scenario mitigated = baseline;
        mitigated.mitigation = *mitigation;
        const job::JobSpec spec =
            replay_spec(run.name, scenario.value_or(mitigated));
        obs::Timeline timeline;
        const job::JobResult replayed = job::RunJob(spec, cache, &timeline);
        const auto scenario_run = cache.GetScenarioRun(
            run.name, config, paper_records, /*from_events=*/false);
        trace.Merge(obs::BuildScenarioTrace(*scenario_run, *replayed.outcome,
                                            *spec.scenario, pid,
                                            run.name + " (scenario)"));
        obs::AppendTimelineCounters(timeline, trace, pid, counter_tid);
      }
      const auto it = exec.traffic.find(stage::kShuffle);
      trace.set_meta(run.name + "/shuffle_payload_bytes",
                     it == exec.traffic.end()
                         ? 0.0
                         : static_cast<double>(it->second.transmitted_bytes()));
      ++pid;
    }
    const std::string invalid = obs::ValidateTrace(trace);
    if (!invalid.empty()) {
      std::cerr << "ctsort: internal error — built an invalid trace: "
                << invalid << "\n";
      return 1;
    }
    std::ofstream out(trace_path);
    if (!out) Flags::Fail("cannot write --trace=" + trace_path);
    trace.WriteJson(out);
    std::cout << "\nwrote " << trace_path << " (" << trace.events().size()
              << " events, " << pid << " algorithm tracks) — load in "
              << "Perfetto or chrome://tracing\n";
  }

  json.write();
  if (print_metrics) PrintRegistrySnapshot();
  return 0;
}
