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
    if (count_hit) CountHits(1);
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

void RunCache::CountHits(int n) {
  if (n == 0) return;
  static obs::Counter& hits =
      obs::MetricRegistry::Global().counter("job/cache_hits");
  hits_ += n;
  hits.add(static_cast<std::uint64_t>(n));
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
  return ScenarioRunOf(entry, config, paper_records, from_events).run;
}

RunCache::Replay& RunCache::ScenarioRunOf(Entry& entry,
                                          const SortConfig& config,
                                          std::uint64_t paper_records,
                                          bool from_events) {
  const std::uint64_t reported =
      from_events ? 0
                  : (paper_records == 0 ? config.num_records : paper_records);
  Replay& replay = entry.scenario_runs[{from_events, reported}];
  if (replay.run != nullptr) return replay;
  const AlgorithmResult& run = *entry.run;
  if (from_events) {
    replay.run = std::make_shared<simscen::ScenarioRun>(
        simscen::BuildScenarioRunFromEvents(
            run.algorithm, run.config.num_nodes, run.stage_order,
            run.compute_events, run.shuffle_log, run.config.redundancy));
  } else {
    replay.run = std::make_shared<simscen::ScenarioRun>(
        simscen::BuildScenarioRun(run, CostModel{},
                                  PaperScale(config.num_records, reported)));
  }
  return replay;
}

RunCache::Resolved RunCache::Resolve(const JobSpec& spec) {
  Resolved in;
  in.info = &FindOrDie(spec.algorithm);

  // Every view prices per-record work, and the paper-scale ratio of an
  // empty run is undefined.
  if (spec.config.num_records == 0) {
    in.error = "a job needs at least one record (num_records = 0)";
    return in;
  }

  // kPriced/kSimulated are the closed-form backends; they have no way
  // to honor a scenario, and silently ignoring one would label an
  // unmitigated run as a scenario cell. Price scenarios with kReplay.
  if ((spec.backend == Backend::kPriced ||
       spec.backend == Backend::kSimulated) &&
      spec.scenario.has_value()) {
    in.error = "closed-form backends ignore scenarios — use Backend::kReplay";
    return in;
  }

  // kSimulated deliberately bypasses the cache: Fetch executes the
  // live harness on a miss, and never executing is this backend's
  // entire point.
  if (spec.backend == Backend::kSimulated) {
    simulate::SynthesisResult synth =
        simulate::SynthesizeRun(spec.algorithm, spec.config);
    if (!synth.ok()) {
      in.error = std::move(synth.error);
    } else {
      in.execution = std::move(synth.run);
    }
    return in;
  }

  // Every other backend executes (or replays) the engine, whose
  // CTS_CHECKs would abort on an out-of-range cluster shape.
  in.error = BoundsError(*in.info, spec.config);
  if (!in.error.empty()) return in;

  // One key: the entry holds both the run and the replay inputs
  // derived from it.
  Entry& entry = Fetch(Key(spec.algorithm, spec.config), spec.algorithm,
                       spec.config, /*count_hit=*/true);
  in.execution = entry.run;
  if (spec.backend == Backend::kReplay) {
    in.replay = &ScenarioRunOf(entry, spec.config, spec.paper_records,
                               /*from_events=*/!in.info->priced);
  } else if (spec.backend == Backend::kLive && spec.scenario.has_value()) {
    // The live-mitigation path replays the measured stage boundaries
    // at executed scale.
    in.replay = &ScenarioRunOf(entry, spec.config, /*paper_records=*/0,
                               /*from_events=*/true);
  }
  return in;
}

JobResult RunCache::Evaluate(const JobSpec& spec, const Resolved& in,
                             obs::Timeline* timeline) {
  JobResult result;
  result.spec = spec;
  result.algorithm = spec.algorithm;
  if (!in.error.empty()) {
    result.error = in.error;
    return result;
  }
  result.execution = in.execution;
  result.algorithm = result.execution->algorithm;
  // The live flight-recorder series, derived purely from the (cached
  // or synthesized) execution — a cache hit reproduces them bit for
  // bit. Scenario replays below append their DES series to the same
  // timeline.
  if (timeline != nullptr) {
    timeline->Merge(obs::BuildLiveTimeline(*result.execution));
  }

  if (in.replay != nullptr) {
    std::optional<simscen::Scenario> baseline;
    if (!spec.scenario.has_value()) {
      baseline = simscen::Scenario::Baseline(spec.config.num_nodes);
    }
    const simscen::Scenario& scenario =
        spec.scenario.has_value() ? *spec.scenario : *baseline;
    result.outcome = simscen::ReplayScenario(*in.replay->run, scenario,
                                             timeline, &in.replay->network);
    result.breakdown = result.outcome->breakdown();
    result.priced = spec.backend == Backend::kReplay && in.info->priced;
    FillMitigationStats(*result.outcome, result);
  } else if (spec.backend != Backend::kLive && in.info->priced) {
    // kPriced, and kSimulated, whose synthesizer only runs priced
    // algorithms.
    const RunScale scale = PaperScale(
        spec.config.num_records, spec.paper_records == 0
                                     ? spec.config.num_records
                                     : spec.paper_records);
    result.breakdown =
        SimulateRun(*result.execution, CostModel{}, scale, spec.schedule);
    result.priced = true;
  } else {
    result.breakdown = MeasuredBreakdown(*result.execution);
  }
  result.makespan = result.breakdown.total();
  FillDollars(spec, result);
  return result;
}

JobResult RunJob(const JobSpec& spec, RunCache& cache,
                 obs::Timeline* timeline) {
  return RunCache::Evaluate(spec, cache.Resolve(spec), timeline);
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
