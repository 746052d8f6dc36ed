#include "job/matrix.h"

#include <set>
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
  std::size_t index = 0;
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    const auto it = axes_[a].find(*labels[a]);
    CTS_CHECK_MSG(it != axes_[a].end(),
                  "no matrix cell (" << algo << ", " << scenario << ", "
                                     << policy << ", " << instance << ")");
    index = index * axes_[a].size() + it->second;
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
  results.cells_.reserve(instances.size() * scenarios.size() *
                         policies.size() * matrix.algos.size());
  std::vector<bool> released(matrix.algos.size(), false);
  for (const InstanceCell& instance : instances) {
    for (const ScenarioCell& scenario : scenarios) {
      for (const PolicyCell& policy : policies) {
        for (std::size_t a = 0; a < matrix.algos.size(); ++a) {
        const AlgoAxis& algo = matrix.algos[a];
        JobSpec spec;
        spec.algorithm = algo.algorithm;
        spec.config = algo.config;
        spec.backend = matrix.backend;
        spec.paper_records = matrix.paper_records;
        spec.pricing = matrix.pricing;
        if (scenario.present) spec.scenario = scenario.scenario;
        if (policy.present) {
          if (!spec.scenario.has_value()) {
            spec.scenario =
                simscen::Scenario::Baseline(algo.config.num_nodes);
          }
          spec.scenario->mitigation = policy.policy;
        }
        if (instance.present) {
          // The instance reshapes the replayed cluster (every node's
          // speed scales by the machine type's multiplier) and the
          // hourly rate the cell is priced at.
          if (!spec.scenario.has_value()) {
            spec.scenario =
                simscen::Scenario::Baseline(algo.config.num_nodes);
          }
          auto& speed = spec.scenario->cluster.speed;
          if (speed.empty()) {
            speed.assign(static_cast<std::size_t>(algo.config.num_nodes),
                         1.0);
          }
          for (double& s : speed) s *= instance.axis.speed;
          if (spec.pricing.has_value()) {
            spec.pricing->node_usd_per_hour = instance.axis.usd_per_hour;
          }
        }
        const int before = cache.executions();
        results.cells_.push_back({algo.label, scenario.label, policy.label,
                                  instance.label, RunJob(spec, cache)});
        const bool executed = cache.executions() > before;
        // No matrix view reads the sorted output — cells consume
        // counters, logs and events only — so drop each execution's
        // partitions (the dominant memory) rather than pinning every
        // dataset in the cache for the whole sweep. Only an entry's
        // first cell and a cell that executed can leave any behind.
        // Callers that need the sorted records run RunJob directly.
        if (executed || !released[a]) {
          cache.ReleasePartitions(algo.algorithm, algo.config);
          released[a] = true;
        }
        }
      }
    }
  }
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
