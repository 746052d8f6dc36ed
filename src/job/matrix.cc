#include "job/matrix.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <set>
#include <thread>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace cts::job {

namespace {

template <typename Axis>
void CheckLabelsUnique(const std::vector<Axis>& axis, const char* what) {
  std::set<std::string> seen;
  for (const auto& entry : axis) {
    CTS_CHECK_MSG(seen.insert(entry.label).second,
                  "duplicate " << what << " label '" << entry.label << "'");
  }
}

}  // namespace

const JobResult& MatrixResults::at(const std::string& algo,
                                   const std::string& scenario,
                                   const std::string& policy,
                                   const std::string& instance) const {
  const std::string* const labels[] = {&instance, &scenario, &policy, &algo};
  std::size_t positions[4] = {};
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    const auto it = axes_[a].find(*labels[a]);
    CTS_CHECK_MSG(it != axes_[a].end(),
                  "no matrix cell (" << algo << ", " << scenario << ", "
                                     << policy << ", " << instance << ")");
    positions[a] = it->second;
  }
  return at_position(positions[3], positions[1], positions[2], positions[0]);
}

const JobResult& MatrixResults::at_position(std::size_t algo,
                                            std::size_t scenario,
                                            std::size_t policy,
                                            std::size_t instance) const {
  const std::size_t positions[] = {instance, scenario, policy, algo};
  std::size_t index = 0;
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    CTS_CHECK_MSG(positions[a] < axes_[a].size(),
                  "no matrix cell at position ("
                      << algo << ", " << scenario << ", " << policy << ", "
                      << instance << ")");
    index = index * axes_[a].size() + positions[a];
  }
  return cells_[index].result;
}

MatrixResults RunMatrix(const JobMatrix& matrix, RunCache& cache) {
  CTS_CHECK_MSG(!matrix.algos.empty(), "JobMatrix needs an algorithm axis");
  // The closed-form backends cannot honor scenarios (RunJob returns an
  // error per cell); fail at matrix level with the fix spelled out
  // rather than fill the matrix with error cells.
  CTS_CHECK_MSG(!((matrix.backend == Backend::kPriced ||
                   matrix.backend == Backend::kSimulated) &&
                  (!matrix.scenarios.empty() || !matrix.policies.empty() ||
                   !matrix.instances.empty())),
                "a closed-form JobMatrix cannot carry scenario/policy/"
                "instance axes — use Backend::kReplay");
  CheckLabelsUnique(matrix.algos, "algorithm");
  CheckLabelsUnique(matrix.scenarios, "scenario");
  CheckLabelsUnique(matrix.policies, "policy");
  CheckLabelsUnique(matrix.instances, "instance");

  // Collapsed axes expand to one unlabelled entry so the cell loop is
  // uniform; has_scenario distinguishes "no scenario axis" from an
  // explicitly baseline scenario.
  struct ScenarioCell {
    std::string label;
    simscen::Scenario scenario;
    bool present = false;
  };
  std::vector<ScenarioCell> scenarios;
  if (matrix.scenarios.empty()) {
    scenarios.push_back({});
  } else {
    for (const ScenarioAxis& s : matrix.scenarios) {
      scenarios.push_back({s.label, s.scenario, true});
    }
  }
  struct PolicyCell {
    std::string label;
    mitigate::MitigationPolicy policy;
    bool present = false;
  };
  std::vector<PolicyCell> policies;
  if (matrix.policies.empty()) {
    policies.push_back({});
  } else {
    for (const PolicyAxis& p : matrix.policies) {
      policies.push_back({p.label, p.policy, true});
    }
  }
  struct InstanceCell {
    std::string label;
    InstanceAxis axis;
    bool present = false;
  };
  std::vector<InstanceCell> instances;
  if (matrix.instances.empty()) {
    instances.push_back({});
  } else {
    for (const InstanceAxis& i : matrix.instances) {
      instances.push_back({i.label, i, true});
    }
  }

  const std::size_t num_algos = matrix.algos.size();
  const std::size_t num_cells =
      instances.size() * scenarios.size() * policies.size() * num_algos;
  // Cell (i, s, p, a)'s spec: the algorithm's run, reshaped by the
  // scenario, the policy and the instance.
  const auto spec_of = [&](const InstanceCell& instance,
                           const ScenarioCell& scenario,
                           const PolicyCell& policy, const AlgoAxis& algo) {
    JobSpec spec;
    spec.algorithm = algo.algorithm;
    spec.config = algo.config;
    spec.backend = matrix.backend;
    spec.paper_records = matrix.paper_records;
    spec.pricing = matrix.pricing;
    if (scenario.present) spec.scenario = scenario.scenario;
    if (policy.present) {
      if (!spec.scenario.has_value()) {
        spec.scenario = simscen::Scenario::Baseline(algo.config.num_nodes);
      }
      spec.scenario->mitigation = policy.policy;
    }
    if (instance.present) {
      // The instance reshapes the replayed cluster (every node's speed
      // scales by the machine type's multiplier) and the hourly rate
      // the cell is priced at.
      if (!spec.scenario.has_value()) {
        spec.scenario = simscen::Scenario::Baseline(algo.config.num_nodes);
      }
      auto& speed = spec.scenario->cluster.speed;
      if (speed.empty()) {
        speed.assign(static_cast<std::size_t>(algo.config.num_nodes), 1.0);
      }
      for (double& s : speed) s *= instance.axis.speed;
      if (spec.pricing.has_value()) {
        spec.pricing->node_usd_per_hour = instance.axis.usd_per_hour;
      }
    }
    return spec;
  };

  const int executions_before = cache.executions();
  MatrixResults results;
  const auto index_axis = [&](std::size_t a, const auto& axis) {
    for (std::size_t i = 0; i < axis.size(); ++i) {
      results.axes_[a].emplace(axis[i].label, i);
    }
  };
  index_axis(0, instances);
  index_axis(1, scenarios);
  index_axis(2, policies);
  index_axis(3, matrix.algos);

  // On this thread, in algorithm order: each algorithm's run (executed
  // on a miss) and replay input, which every one of its cells reads.
  // Every cell of one algorithm resolves alike (the axes change only
  // the scenario, never whether there is one), so its first resolves
  // for all. No cell reads the sorted output — cells consume counters,
  // logs and events only — so each run's partitions (the dominant
  // memory) are dropped here rather than pinned in the cache for the
  // whole sweep. Callers that need the sorted records run RunJob.
  std::vector<RunCache::Resolved> resolved;
  resolved.reserve(num_algos);
  for (const AlgoAxis& algo : matrix.algos) {
    resolved.push_back(cache.Resolve(
        spec_of(instances.front(), scenarios.front(), policies.front(), algo)));
    cache.ReleasePartitions(algo.algorithm, algo.config);
  }

  // Then every cell, spread over the host's cores: workers claim cells
  // in index order and write each into its own slot. A failing cell
  // stops further claims; every cell below it was already claimed and
  // finishes, so after the join the lowest failing cell is known, and
  // its exception is the one a cell-by-cell loop would have thrown.
  results.cells_.resize(num_cells);
  std::vector<std::exception_ptr> errors(num_cells);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  const auto work = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_cells) return;
      try {
        // Nesting order (instance, scenario, policy, algo).
        const std::size_t a = c % num_algos;
        const std::size_t p = c / num_algos % policies.size();
        const std::size_t s =
            c / num_algos / policies.size() % scenarios.size();
        const std::size_t i =
            c / num_algos / policies.size() / scenarios.size();
        const AlgoAxis& algo = matrix.algos[a];
        MatrixCell& cell = results.cells_[c];
        cell.algo = algo.label;
        cell.scenario = scenarios[s].label;
        cell.policy = policies[p].label;
        cell.instance = instances[i].label;
        cell.result = RunCache::Evaluate(
            spec_of(instances[i], scenarios[s], policies[p], algo),
            resolved[a], /*timeline=*/nullptr);
      } catch (...) {
        errors[c] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  {
    const std::size_t cores =
        std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::jthread> workers;
    for (std::size_t w = 1; w < std::min(cores, num_cells); ++w) {
      workers.emplace_back(work);
    }
    work();
  }  // joins every worker
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) std::rethrow_exception(error);
  }
  // Only each algorithm's first cell looked its run up; the others'
  // lookups would all have hit, and count as such, so hits() reads as
  // it would after one RunJob per cell.
  int hits = 0;
  for (const RunCache::Resolved& in : resolved) {
    if (matrix.backend != Backend::kSimulated && in.error.empty()) {
      hits += static_cast<int>(num_cells / num_algos) - 1;
    }
  }
  cache.CountHits(hits);

  results.executions_ = cache.executions() - executions_before;
  // Cells executed vs replayed: a cell executes at most its own run,
  // so the sweep's executions are its executed cells, and every other
  // cell was served entirely from memoized state (the run and/or its
  // derived ScenarioRun). Counted once per sweep; a counter that
  // stays zero is not registered.
  auto& registry = obs::MetricRegistry::Global();
  const int replayed = results.replays() - results.executions_;
  if (results.executions_ > 0) {
    registry.counter("job/matrix_cells_executed")
        .add(static_cast<std::uint64_t>(results.executions_));
  }
  if (replayed > 0) {
    registry.counter("job/matrix_cells_replayed")
        .add(static_cast<std::uint64_t>(replayed));
  }
  return results;
}

MatrixResults RunMatrix(const JobMatrix& matrix) {
  RunCache cache;
  return RunMatrix(matrix, cache);
}

}  // namespace cts::job
