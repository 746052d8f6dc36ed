// Unified Job API: one front-end over algorithms × backends ×
// scenarios.
//
// A JobSpec fully describes one cell of the paper's experiment matrix:
// which algorithm (by registry name, job/registry.h), its SortConfig,
// how to evaluate it (Backend), and — for replay backends — the
// scenario and mitigation policy to evaluate it under. RunJob executes
// (or, given a RunCache, reuses) the one expensive thread-harness run
// and derives the requested view from it, returning a unified
// JobResult: the measured execution, a StageBreakdown, the scenario
// outcome, and redundancy/waste stats, flattenable into the bench
// JSON schema (bench/bench_common.h) via metrics(). The flight
// recorder (obs::Timeline) is opt-in: RunJob records its series only
// into a timeline the caller passes, so sweeps that read none pay for
// none.
//
// The RunCache is the reason this API exists beyond tidiness: the
// live execution is the only expensive step, and it depends only on
// (algorithm, SortConfig). Every scenario × policy × backend view is
// a cheap deterministic replay of that one measured run, so sweeps
// memoize per key instead of re-running the cluster N×M times
// (job/matrix.h drives this).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "analytics/cost_model.h"
#include "analytics/report.h"
#include "driver/run_result.h"
#include "obs/timeline.h"
#include "simscen/engine.h"

namespace cts::job {

struct AlgorithmInfo;
struct JobMatrix;
class MatrixResults;

// How a job evaluates its run.
enum class Backend {
  // Executed-scale view: the measured wall clocks as they happened on
  // the thread harness. With a scenario attached, the measured
  // per-node stage boundaries (ComputeEvents) are replayed under it —
  // the "mitigation on the measured run" path.
  kLive,
  // Paper-scale closed forms: the measured counters priced by the
  // EC2-calibrated CostModel (analytics::SimulateRun). Algorithms
  // without NodeWork counters (priced = false) fall back to kLive.
  kPriced,
  // Paper-scale discrete-event replay under a Scenario
  // (simscen::ReplayScenario); unpriced algorithms replay their
  // measured ComputeEvents at executed scale instead.
  kReplay,
  // Like kPriced, but the measured run itself is synthesized
  // arithmetically (simulate::SynthesizeRun) instead of executed on
  // the thread harness — no threads, no records, no transport. The
  // breakdown is byte-identical to kPriced wherever both can run;
  // unlike kPriced, K is bounded by 64-bit placement arithmetic
  // (K ~ 1000) rather than by live execution. Specs the synthesizer
  // cannot honor (CMR, binomial overflow) come back as
  // JobResult::error, never a process abort.
  kSimulated,
};

const char* BackendName(Backend backend);

struct JobSpec {
  std::string algorithm = "terasort";  // registry name
  SortConfig config;
  Backend backend = Backend::kPriced;
  // kReplay / kLive-with-events: the scenario to replay under. Unset
  // on kReplay means the baseline (homogeneous cluster, single rack);
  // unset on kLive means no replay at all.
  std::optional<simscen::Scenario> scenario;
  // kPriced / kReplay: report at this paper workload (record count);
  // 0 reports at the executed scale.
  std::uint64_t paper_records = 0;
  // kPriced: closed-form shuffle discipline.
  simnet::Discipline schedule = simnet::Discipline::kSerial;
  // When set, the result's dollar fields are filled: the view's
  // makespan × K priced at `pricing->node_usd_per_hour`, plus the
  // run's cross-rack shuffle traffic under the scenario topology
  // (paper-scaled on priced views) at the egress rate. The matrix's
  // instance axis overrides the hourly rate per cell.
  std::optional<DollarCost> pricing;
};

// Everything one evaluated cell produces.
struct JobResult {
  JobSpec spec;
  std::string algorithm;  // display name, e.g. "CodedTeraSort"
  bool priced = false;    // whether the breakdown is paper-scale
  // Non-empty when the backend could not produce a result for this
  // spec (a job with no records, a cluster shape BoundsError rejects,
  // a Backend::kSimulated spec the synthesizer cannot honor, or a
  // scenario on a closed-form backend); every other field except
  // `spec` and `algorithm` is then default-valued.
  std::string error;
  // The measured run (shared with the RunCache when one was used).
  // Its run_metrics hold the registry deltas of that one execution;
  // the process-wide obs::MetricRegistry is cumulative across jobs.
  std::shared_ptr<const AlgorithmResult> execution;
  // Per-stage seconds of the requested view.
  StageBreakdown breakdown;
  // The scenario replay, when one ran.
  std::optional<simscen::ScenarioOutcome> outcome;
  double makespan = 0;  // == breakdown.total()

  // Mitigation accounting aggregated over the outcome's spans (all
  // zero without a scenario or under PolicyKind::kNone).
  double wasted_seconds = 0;
  int speculative_copies = 0;
  int abandoned_nodes = 0;

  // Dollar pricing (all zero unless spec.pricing is set): K nodes
  // held for the makespan at the hourly rate, plus cross-rack egress
  // of the measured shuffle under the scenario topology
  // (simscen::CrossRackBytes, paper-scaled on priced views).
  double node_hours = 0;
  double usd_compute = 0;
  double usd_egress = 0;
  double usd = 0;
  double cross_rack_bytes = 0;

  // Flat "<prefix>/<metric>" map in the bench JSON schema: one key per
  // non-zero stage plus total_s, and the mitigation stats when a
  // scenario ran.
  std::map<std::string, double> metrics(const std::string& prefix) const;
};

// Memoizes the expensive thread-harness execution per
// (algorithm, SortConfig) key, plus the paper-scale ScenarioRun
// derived from it, so N scenarios × M policies replay one measured
// run. Beside each ScenarioRun it keeps that run's
// simscen::NetworkMemo, which RunJob passes to every replay of it:
// cells that differ only in stragglers, policies or instances share
// one outage-free Shuffle replay per (topology, discipline, order).
//
// Not thread-safe: call it from one thread at a time. RunMatrix makes
// every lookup, execution and replay-input build on its calling
// thread; only then do its worker threads replay the cells, reading
// what it resolved and the network memo, which locks itself. The
// lookups the cells skip count as hits, so hits() and the job/* and
// simscen/* counters read the same whatever the number of threads.
class RunCache {
 public:
  // The cached run for (algorithm, config), executing it on miss.
  std::shared_ptr<const AlgorithmResult> Get(const std::string& algorithm,
                                             const SortConfig& config);

  // The scenario-agnostic replay input derived from the cached run,
  // memoized per (key, paper_records, from_events). `from_events`
  // replays the measured per-node stage boundaries at executed scale
  // (simscen::BuildScenarioRunFromEvents, ignores paper_records);
  // otherwise the run is cost-model priced at paper scale
  // (simscen::BuildScenarioRun; requires a priced algorithm).
  std::shared_ptr<const simscen::ScenarioRun> GetScenarioRun(
      const std::string& algorithm, const SortConfig& config,
      std::uint64_t paper_records, bool from_events);

  // Drops the sorted output records of the cached run for
  // (algorithm, config), keeping the run cached. Every replay/pricing
  // path reads only counters, logs and events, so callers that have
  // finished validating the output can release the dominant memory —
  // the full sorted dataset — before fanning out over scenarios
  // (ctsort does, right after teravalidate). No-op on a miss.
  void ReleasePartitions(const std::string& algorithm,
                         const SortConfig& config);

  // Live thread-harness executions performed (== distinct keys seen).
  int executions() const { return executions_; }
  // Run lookups (Get(), RunJob and every RunMatrix cell) served from
  // the cache.
  int hits() const { return hits_; }

  // The memoization key: every SortConfig field an engine reads.
  static std::string Key(const std::string& algorithm,
                         const SortConfig& config);

 private:
  friend JobResult RunJob(const JobSpec&, RunCache&, obs::Timeline*);
  friend MatrixResults RunMatrix(const JobMatrix&, RunCache&);

  // One replay input and the network stages already replayed from it;
  // sharing the slot keeps a memo from outliving or mixing runs.
  struct Replay {
    std::shared_ptr<const simscen::ScenarioRun> run;
    simscen::NetworkMemo network;
  };
  // One cached execution plus the replay inputs derived from it, keyed
  // by (from_events, reported records).
  struct Entry {
    // Held non-const so ReleasePartitions can drop the sorted data;
    // handed out as shared_ptr<const ...> only.
    std::shared_ptr<AlgorithmResult> run;
    std::map<std::pair<bool, std::uint64_t>, Replay> scenario_runs;
  };

  // What a cell reads besides its spec: the run and, when the cell
  // replays, its replay input with that input's network memo — or the
  // error the cell reports instead. Every cell of one
  // (algorithm, SortConfig) in a sweep resolves to the same inputs.
  struct Resolved {
    const AlgorithmInfo* info = nullptr;
    std::string error;  // JobResult::error; the rest is then unset
    std::shared_ptr<const AlgorithmResult> execution;
    Replay* replay = nullptr;  // kReplay, and kLive with a scenario
  };
  // Validates `spec` and fetches its inputs: one run lookup (a miss
  // executes the run), then the replay input the backend needs. A
  // kSimulated spec synthesizes its run here instead; the cache is
  // not involved.
  Resolved Resolve(const JobSpec& spec);
  // The rest of RunJob: the breakdown, the scenario replay, the
  // dollars and the timeline's series, from `in` alone. Writes only
  // the network memo and `timeline`, so any number of threads may
  // evaluate cells of one Resolved at once.
  static JobResult Evaluate(const JobSpec& spec, const Resolved& in,
                            obs::Timeline* timeline);

  // The entry for `key`, executing its run on a miss. `count_hit` is
  // false for GetScenarioRun's internal fetch, so hits() counts
  // exactly the run lookups a caller saved: hits == cells - distinct
  // keys in a matrix sweep, which job_test pins.
  Entry& Fetch(const std::string& key, const std::string& algorithm,
               const SortConfig& config, bool count_hit);
  // Adds `n` lookups served from the cache to hits() and
  // job/cache_hits.
  void CountHits(int n);
  // GetScenarioRun's memo on an already fetched entry; an unpriced
  // algorithm's caller passes from_events = true.
  Replay& ScenarioRunOf(Entry& entry, const SortConfig& config,
                        std::uint64_t paper_records, bool from_events);

  std::map<std::string, Entry> entries_;
  int executions_ = 0;
  int hits_ = 0;
};

// Evaluates one cell. With a `timeline`, RunJob appends the cell's
// flight-recorder series to it: the live series derived from the
// (cached) execution's deterministic counters, on every backend, then
// — when a scenario replay runs (kReplay, kLive with a scenario) —
// the DES series sampled along scenario time. Bitwise reproducible:
// the same spec through the same cache records identical series
// (timeline_test pins it). Without one, nothing is recorded and the
// replay runs unprobed, serving an outage-free Shuffle from the
// cache's network memo when an earlier cell replayed the same network
// input; every other JobResult field is bit-identical either way. An
// error result records nothing.
JobResult RunJob(const JobSpec& spec, RunCache& cache,
                 obs::Timeline* timeline = nullptr);
// Executes the run itself: every call pays the live execution.
JobResult RunJob(const JobSpec& spec);

}  // namespace cts::job
