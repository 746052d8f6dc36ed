#include "job/job.h"

#include <cstdio>
#include <utility>

#include "common/check.h"
#include "job/registry.h"
#include "obs/metrics.h"
#include "simulate/simulate.h"

namespace cts::job {

namespace {

// Exact textual form of a double for cache keys (hex float: no
// rounding ambiguity between nearly-equal delay values).
std::string ExactDouble(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

const AlgorithmInfo& FindOrDie(const std::string& name) {
  const AlgorithmInfo* info = Find(name);
  CTS_CHECK_MSG(info != nullptr, "unknown algorithm '" << name << "'");
  return *info;
}

// Aggregates the outcome's per-span mitigation accounting into the
// JobResult counters.
void FillMitigationStats(const simscen::ScenarioOutcome& outcome,
                         JobResult& result) {
  result.wasted_seconds = outcome.wasted_seconds;
  for (const simscen::StageSpan& span : outcome.spans) {
    result.speculative_copies += span.speculative_copies;
    result.abandoned_nodes += span.abandoned_nodes;
  }
}

// Prices the finished view in dollars (no-op without a pricing
// context). Egress counts the measured shuffle's rack-boundary
// crossings under the scenario topology; a priced (paper-scale) view
// scales the measured bytes to the reported workload, the same
// linear-in-records scaling every byte counter uses.
void FillDollars(const JobSpec& spec, JobResult& result) {
  if (!spec.pricing.has_value()) return;
  const DollarCost& cost = *spec.pricing;
  result.node_hours = cost.node_hours(result.makespan,
                                      spec.config.num_nodes);
  result.usd_compute =
      cost.compute_usd(result.makespan, spec.config.num_nodes);
  double cross = 0;
  if (spec.scenario.has_value() && result.execution != nullptr) {
    cross = simscen::CrossRackBytes(result.execution->shuffle_log,
                                    spec.scenario->topology);
    if (result.priced) {
      const std::uint64_t reported = spec.paper_records == 0
                                         ? spec.config.num_records
                                         : spec.paper_records;
      cross /= PaperScale(spec.config.num_records, reported).fraction;
    }
  }
  result.cross_rack_bytes = cross;
  result.usd_egress = cost.egress_usd(cross);
  result.usd = result.usd_compute + result.usd_egress;
}

}  // namespace

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kLive:
      return "live";
    case Backend::kPriced:
      return "priced";
    case Backend::kReplay:
      return "replay";
    case Backend::kSimulated:
      return "simulated";
  }
  CTS_CHECK_MSG(false, "unreachable backend");
  return "live";
}

std::string RunCache::Key(const std::string& algorithm,
                          const SortConfig& config) {
  std::string key = algorithm;
  key += "|K=" + std::to_string(config.num_nodes);
  key += "|r=" + std::to_string(config.redundancy);
  key += "|n=" + std::to_string(config.num_records);
  key += "|seed=" + std::to_string(config.seed);
  key += "|dist=" + std::to_string(static_cast<int>(config.distribution));
  key += "|part=" + std::to_string(static_cast<int>(config.partitioner));
  key += "|sample=" + std::to_string(config.sample_size);
  key += "|codegen=" + std::to_string(static_cast<int>(config.codegen_mode));
  key += "|sync=" + std::to_string(static_cast<int>(config.shuffle_sync));
  for (const InjectedDelay& d : config.injected_delays) {
    key += "|delay=" + d.stage + ":" + std::to_string(d.node) + ":" +
           ExactDouble(d.seconds);
  }
  return key;
}

RunCache::Entry& RunCache::Fetch(const std::string& key,
                                 const std::string& algorithm,
                                 const SortConfig& config, bool count_hit) {
  auto& registry = obs::MetricRegistry::Global();
  if (const auto it = entries_.find(key); it != entries_.end()) {
    if (count_hit) {
      static obs::Counter& hits = registry.counter("job/cache_hits");
      ++hits_;
      hits.add();
    }
    return it->second;
  }
  const AlgorithmInfo& info = FindOrDie(algorithm);
  ++executions_;
  registry.counter("job/cache_misses").add();
  // Freeze this execution's registry deltas into the cached result.
  // Some of them (arena hits) depend on thread interleaving, so the
  // only reproducible view is the one captured here: every later
  // consumer of the cached run reads run_metrics, never the live
  // registry.
  const std::map<std::string, double> before = registry.Snapshot();
  auto run = std::make_shared<AlgorithmResult>(info.run(config));
  for (const auto& [name, value] : registry.Snapshot()) {
    const auto it = before.find(name);
    const double delta = it == before.end() ? value : value - it->second;
    if (delta != 0) run->run_metrics[name] = delta;
  }
  Entry& entry = entries_[key];
  entry.run = std::move(run);
  return entry;
}

std::shared_ptr<const AlgorithmResult> RunCache::Get(
    const std::string& algorithm, const SortConfig& config) {
  return Fetch(Key(algorithm, config), algorithm, config, /*count_hit=*/true)
      .run;
}

void RunCache::ReleasePartitions(const std::string& algorithm,
                                 const SortConfig& config) {
  const auto it = entries_.find(Key(algorithm, config));
  if (it == entries_.end()) return;
  AlgorithmResult& run = *it->second.run;
  if (!run.partitions.empty()) {
    obs::MetricRegistry::Global().counter("job/cache_partition_releases")
        .add();
  }
  run.partitions.clear();
  run.partitions.shrink_to_fit();
}

std::shared_ptr<const simscen::ScenarioRun> RunCache::GetScenarioRun(
    const std::string& algorithm, const SortConfig& config,
    std::uint64_t paper_records, bool from_events) {
  if (!FindOrDie(algorithm).priced) from_events = true;  // nothing to price
  Entry& entry =
      Fetch(Key(algorithm, config), algorithm, config, /*count_hit=*/false);
  return ScenarioRunOf(entry, config, paper_records, from_events);
}

const std::shared_ptr<const simscen::ScenarioRun>& RunCache::ScenarioRunOf(
    Entry& entry, const SortConfig& config, std::uint64_t paper_records,
    bool from_events) {
  const std::uint64_t reported =
      from_events ? 0
                  : (paper_records == 0 ? config.num_records : paper_records);
  std::shared_ptr<const simscen::ScenarioRun>& built =
      entry.scenario_runs[{from_events, reported}];
  if (built != nullptr) return built;
  const AlgorithmResult& run = *entry.run;
  if (from_events) {
    built = std::make_shared<simscen::ScenarioRun>(
        simscen::BuildScenarioRunFromEvents(
            run.algorithm, run.config.num_nodes, run.stage_order,
            run.compute_events, run.shuffle_log, run.config.redundancy));
  } else {
    built = std::make_shared<simscen::ScenarioRun>(simscen::BuildScenarioRun(
        run, CostModel{}, PaperScale(config.num_records, reported)));
  }
  return built;
}

JobResult RunJob(const JobSpec& spec, RunCache& cache,
                 obs::Timeline* timeline) {
  const AlgorithmInfo& info = FindOrDie(spec.algorithm);
  JobResult result;
  result.spec = spec;

  // Every view prices per-record work, and the paper-scale ratio of an
  // empty run is undefined.
  if (spec.config.num_records == 0) {
    result.algorithm = spec.algorithm;
    result.error = "a job needs at least one record (num_records = 0)";
    return result;
  }

  // kPriced/kSimulated are the closed-form backends; they have no way
  // to honor a scenario, and silently ignoring one would label an
  // unmitigated run as a scenario cell. Price scenarios with kReplay.
  if ((spec.backend == Backend::kPriced ||
       spec.backend == Backend::kSimulated) &&
      spec.scenario.has_value()) {
    result.algorithm = spec.algorithm;
    result.error =
        "closed-form backends ignore scenarios — use Backend::kReplay";
    return result;
  }

  // kSimulated deliberately bypasses the cache: RunCache::Get executes
  // the live harness on a miss, and never executing is this backend's
  // entire point.
  if (spec.backend == Backend::kSimulated) {
    result.algorithm = spec.algorithm;
    simulate::SynthesisResult synth =
        simulate::SynthesizeRun(spec.algorithm, spec.config);
    if (!synth.ok()) {
      result.error = std::move(synth.error);
      return result;
    }
    result.execution = std::move(synth.run);
    result.algorithm = result.execution->algorithm;
    const RunScale scale = PaperScale(
        spec.config.num_records, spec.paper_records == 0
                                     ? spec.config.num_records
                                     : spec.paper_records);
    result.breakdown =
        SimulateRun(*result.execution, CostModel{}, scale, spec.schedule);
    result.priced = true;
    result.makespan = result.breakdown.total();
    if (timeline != nullptr) {
      timeline->Merge(obs::BuildLiveTimeline(*result.execution));
    }
    FillDollars(spec, result);
    return result;
  }

  // Every other backend executes (or replays) the engine, whose
  // CTS_CHECKs would abort on an out-of-range cluster shape.
  result.error = BoundsError(info, spec.config);
  if (!result.error.empty()) {
    result.algorithm = spec.algorithm;
    return result;
  }

  // One key per cell: the entry holds both the run and the replay
  // inputs derived from it.
  RunCache::Entry& entry =
      cache.Fetch(RunCache::Key(spec.algorithm, spec.config), spec.algorithm,
                  spec.config, /*count_hit=*/true);
  result.execution = entry.run;
  result.algorithm = result.execution->algorithm;
  // The live flight-recorder series, derived purely from the cached
  // execution — a cache hit reproduces them bit for bit. Scenario
  // replays below append their DES series to the same timeline.
  if (timeline != nullptr) {
    timeline->Merge(obs::BuildLiveTimeline(*result.execution));
  }

  switch (spec.backend) {
    case Backend::kLive:
    case Backend::kPriced: {
      if (spec.backend == Backend::kPriced && info.priced) {
        const RunScale scale = PaperScale(
            spec.config.num_records, spec.paper_records == 0
                                         ? spec.config.num_records
                                         : spec.paper_records);
        result.breakdown = SimulateRun(*result.execution, CostModel{}, scale,
                                       spec.schedule);
        result.priced = true;
      } else {
        result.breakdown = MeasuredBreakdown(*result.execution);
      }
      // kLive with a scenario: replay the measured stage boundaries
      // under it (executed scale) — the live-mitigation path.
      if (spec.backend == Backend::kLive && spec.scenario.has_value()) {
        const auto& run = cache.ScenarioRunOf(entry, spec.config,
                                              /*paper_records=*/0,
                                              /*from_events=*/true);
        result.outcome =
            simscen::ReplayScenario(*run, *spec.scenario, timeline);
        result.breakdown = result.outcome->breakdown();
        FillMitigationStats(*result.outcome, result);
      }
      break;
    }
    case Backend::kReplay: {
      const auto& run = cache.ScenarioRunOf(entry, spec.config,
                                            spec.paper_records,
                                            /*from_events=*/!info.priced);
      std::optional<simscen::Scenario> baseline;
      if (!spec.scenario.has_value()) {
        baseline = simscen::Scenario::Baseline(spec.config.num_nodes);
      }
      const simscen::Scenario& scenario =
          spec.scenario.has_value() ? *spec.scenario : *baseline;
      result.outcome = simscen::ReplayScenario(*run, scenario, timeline);
      result.breakdown = result.outcome->breakdown();
      result.priced = info.priced;
      FillMitigationStats(*result.outcome, result);
      break;
    }
    case Backend::kSimulated:
      CTS_CHECK_MSG(false, "kSimulated returns above");
      break;
  }
  result.makespan = result.breakdown.total();
  FillDollars(spec, result);
  return result;
}

JobResult RunJob(const JobSpec& spec) {
  RunCache cache;
  return RunJob(spec, cache);
}

std::map<std::string, double> JobResult::metrics(
    const std::string& prefix) const {
  std::map<std::string, double> out;
  for (const StageTime& s : breakdown.stages) {
    if (s.seconds != 0) out[prefix + "/" + s.name + "_s"] = s.seconds;
  }
  out[prefix + "/total_s"] = breakdown.total();
  if (outcome.has_value()) {
    out[prefix + "/wasted_s"] = wasted_seconds;
    out[prefix + "/backups"] = speculative_copies;
    out[prefix + "/abandoned"] = abandoned_nodes;
  }
  if (spec.pricing.has_value()) {
    out[prefix + "/usd"] = usd;
    out[prefix + "/usd_compute"] = usd_compute;
    out[prefix + "/usd_egress"] = usd_egress;
    out[prefix + "/node_hours"] = node_hours;
  }
  return out;
}

}  // namespace cts::job
