#include "plan/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <set>

#include "common/check.h"
#include "job/matrix.h"
#include "job/parse.h"
#include "job/registry.h"
#include "mitigate/policy.h"
#include "obs/metrics.h"

namespace cts::plan {

namespace {

// Axis entries are user input (CLI flag lists); a repeated entry must
// not abort deep inside RunMatrix's duplicate-label check.
template <typename T>
std::vector<T> Dedupe(const std::vector<T>& in) {
  std::vector<T> out;
  std::set<T> seen;
  for (const T& v : in) {
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

// A straggler or policy axis deduped on its label: an empty spec means
// "none" and is labelled so, like ParseTopologyList's "flat".
std::vector<std::string> DedupeSpecs(std::vector<std::string> specs) {
  for (std::string& spec : specs) {
    if (spec.empty()) spec = "none";
  }
  return Dedupe(specs);
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string PlanRow::label() const {
  return algorithm + "@K" + std::to_string(num_nodes) + "/" + topology +
         "/" + policy + "/" + instance;
}

double SampleQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  q = std::min(std::max(q, 0.0), 1.0);
  std::sort(values.begin(), values.end());
  // Nearest-rank: the smallest value with at least ceil(q*n) samples
  // at or below it; q = 0 is the minimum.
  const double n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > values.size()) rank = values.size();
  return values[rank - 1];
}

PlanResult RunPlan(const PlanAxes& axes, const PlanQuery& query,
                   job::RunCache& cache) {
  PlanResult result;
  result.quantile = query.quantile;
  const auto fail = [&result](std::string msg) {
    result.error = std::move(msg);
    return result;
  };

  const std::vector<std::string> algorithms = Dedupe(axes.algorithms);
  const std::vector<int> redundancies = Dedupe(axes.redundancies);
  const std::vector<int> node_counts = Dedupe(axes.node_counts);
  std::vector<std::string> topologies = Dedupe(axes.topologies);
  std::vector<std::string> stragglers = DedupeSpecs(axes.stragglers);
  std::vector<std::string> policies = DedupeSpecs(axes.policies);
  // The instance axis is labelled by name: a repeated entry collapses,
  // and one name with two prices is ambiguous.
  std::vector<InstanceProfile> instances;
  for (const InstanceProfile& instance : axes.instances) {
    const auto same_name = std::find_if(
        instances.begin(), instances.end(),
        [&](const InstanceProfile& i) { return i.name == instance.name; });
    if (same_name == instances.end()) {
      instances.push_back(instance);
    } else if (same_name->speed != instance.speed ||
               same_name->usd_per_hour != instance.usd_per_hour) {
      return fail("instance '" + instance.name +
                  "' is listed twice with different speeds or rates");
    }
  }
  if (query.sort_key != "usd" && query.sort_key != "makespan" &&
      query.sort_key != "egress") {
    return fail("unknown sort key '" + query.sort_key +
                "' (usd | makespan | egress)");
  }
  // Written so that NaN fails too.
  if (!(query.quantile >= 0 && query.quantile <= 1)) {
    return fail("quantile " + FormatDouble(query.quantile) +
                " is outside [0, 1]");
  }
  if (!(axes.cost.cross_rack_usd_per_gb >= 0)) {
    return fail("egress-usd-per-gb = " +
                FormatDouble(axes.cost.cross_rack_usd_per_gb) +
                ": the cross-rack rate must be >= 0");
  }
  if (algorithms.empty()) return fail("plan needs at least one algorithm");
  if (redundancies.empty()) return fail("plan needs a redundancy axis");
  for (const int r : redundancies) {
    if (r < 1) {
      return fail("redundancy r = " + std::to_string(r) + ": need r >= 1");
    }
  }
  if (node_counts.empty()) return fail("plan needs a node-count axis");
  if (topologies.empty()) topologies.push_back("");
  if (stragglers.empty()) stragglers.push_back("none");
  if (policies.empty()) policies.push_back("none");
  if (instances.empty()) instances.push_back(InstanceProfile{});

  const auto topo_label = [](const std::string& spec) {
    return spec.empty() ? std::string("flat") : spec;
  };

  // One JobMatrix per K: the replay engine checks a scenario's
  // topology against the run's node count, so K is the outermost
  // expansion, not a scenario label.
  for (const int num_nodes : node_counts) {
    if (num_nodes < 2) return fail("plan needs >= 2 nodes per cluster");
    job::JobMatrix matrix;
    matrix.backend = job::Backend::kReplay;
    matrix.paper_records = axes.paper_records;
    matrix.pricing = axes.cost;

    for (const std::string& algorithm : algorithms) {
      const job::AlgorithmInfo* info = job::Find(algorithm);
      if (info == nullptr) return fail("unknown algorithm '" + algorithm + "'");
      const bool knob = std::find(info->knobs.begin(), info->knobs.end(),
                                  "redundancy") != info->knobs.end();
      for (const int r : knob ? redundancies : std::vector<int>{1}) {
        if (r > num_nodes - 1) continue;  // no C(K, r) placement at this K
        job::AlgoAxis axis;
        axis.label = knob ? algorithm + "_r" + std::to_string(r) : algorithm;
        axis.algorithm = algorithm;
        axis.config.num_nodes = num_nodes;
        axis.config.redundancy = r;
        axis.config.num_records = axes.records;
        axis.config.seed = axes.seed;
        // A shape the engines cannot run fails the plan: its cells
        // would be errors, with no makespan to price.
        const std::string bounds = job::BoundsError(*info, axis.config);
        if (!bounds.empty()) return fail(bounds);
        matrix.algos.push_back(std::move(axis));
      }
    }
    if (matrix.algos.empty()) {
      return fail("no (algorithm, r) candidate fits K = " +
                  std::to_string(num_nodes));
    }

    for (const std::string& topo_spec : topologies) {
      for (const std::string& straggler_spec : stragglers) {
        job::ScenarioSpec scenario_spec;
        scenario_spec.topology = topo_spec;
        scenario_spec.straggler = straggler_spec;
        scenario_spec.discipline = axes.discipline;
        scenario_spec.order = axes.order;
        std::string parse_error;
        const auto scenario =
            job::ParseScenario(scenario_spec, num_nodes, &parse_error);
        if (!scenario.has_value()) return fail(parse_error);
        matrix.scenarios.push_back(
            {topo_label(topo_spec) + "|" + straggler_spec, *scenario});
      }
    }
    for (const std::string& policy_spec : policies) {
      const auto policy = mitigate::ParsePolicy(policy_spec);
      if (!policy.has_value()) {
        return fail("unknown mitigation '" + policy_spec +
                    "' (none | spec[:QUANTILE:TRIGGER] | coded)");
      }
      matrix.policies.push_back({policy_spec, *policy});
    }
    for (const InstanceProfile& instance : instances) {
      if (!(instance.speed > 0) || !(instance.usd_per_hour >= 0)) {
        return fail("instance '" + instance.name +
                    "' needs speed > 0 and a non-negative rate");
      }
      matrix.instances.push_back(
          {instance.name, instance.speed, instance.usd_per_hour});
    }

    const job::MatrixResults results = job::RunMatrix(matrix, cache);
    result.cells += results.replays();
    result.executions += results.executions();
    for (const job::MatrixCell& cell : results.cells()) {
      if (!cell.result.error.empty()) {
        return fail(cell.algo + "@K" + std::to_string(num_nodes) + ": " +
                    cell.result.error);
      }
    }

    // Aggregate each architecture over the straggler set: the SLO is a
    // statement about the tail of that distribution, and the row is
    // priced at its quantile — the capacity you must budget, not the
    // lucky mean. Cells are read by their position on the axes built
    // above; the scenario axis is topology-major, then straggler.
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const InstanceProfile& instance = instances[i];
      DollarCost cost = axes.cost;
      cost.node_usd_per_hour = instance.usd_per_hour;
      for (std::size_t t = 0; t < topologies.size(); ++t) {
        for (std::size_t p = 0; p < policies.size(); ++p) {
          for (std::size_t a = 0; a < matrix.algos.size(); ++a) {
            const job::AlgoAxis& algo = matrix.algos[a];
            PlanRow row;
            row.algorithm = algo.label;
            row.redundancy = algo.config.redundancy;
            row.num_nodes = num_nodes;
            row.topology = topo_label(topologies[t]);
            row.policy = policies[p];
            row.instance = instance.name;
            std::vector<double> makespans;
            double cross_rack_bytes = 0;
            for (std::size_t s = 0; s < stragglers.size(); ++s) {
              const job::JobResult& cell = results.at_position(
                  a, t * stragglers.size() + s, p, i);
              makespans.push_back(cell.makespan);
              cross_rack_bytes = cell.cross_rack_bytes;
            }
            row.scenarios = static_cast<int>(makespans.size());
            double sum = 0;
            for (const double m : makespans) {
              sum += m;
              row.worst_makespan = std::max(row.worst_makespan, m);
            }
            row.mean_makespan = sum / static_cast<double>(makespans.size());
            row.quantile_makespan =
                SampleQuantile(makespans, query.quantile);
            row.node_hours =
                cost.node_hours(row.quantile_makespan, num_nodes);
            row.usd_compute =
                cost.compute_usd(row.quantile_makespan, num_nodes);
            row.usd_egress = cost.egress_usd(cross_rack_bytes);
            row.usd = row.usd_compute + row.usd_egress;
            row.cross_rack_gb = cross_rack_bytes / 1e9;
            row.meets_slo = row.quantile_makespan <= query.slo_seconds;
            if (row.usd > query.max_usd) continue;
            if (query.meets_only && !row.meets_slo) continue;
            result.rows.push_back(std::move(row));
          }
        }
      }
    }
  }

  const auto by_key = [&query](const PlanRow& a, const PlanRow& b) {
    double ka = a.usd;
    double kb = b.usd;
    if (query.sort_key == "makespan") {
      ka = a.quantile_makespan;
      kb = b.quantile_makespan;
    } else if (query.sort_key == "egress") {
      ka = a.usd_egress;
      kb = b.usd_egress;
    }
    if (ka != kb) return ka < kb;
    return a.label() < b.label();  // deterministic on ties
  };
  std::stable_sort(result.rows.begin(), result.rows.end(), by_key);

  // Winner: cheapest row meeting the SLO (tie broken by label — the
  // fixed-seed grid test pins this determinism).
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const PlanRow& row = result.rows[i];
    if (!row.meets_slo) continue;
    if (result.winner < 0 ||
        row.usd < result.rows[static_cast<std::size_t>(result.winner)].usd ||
        (row.usd ==
             result.rows[static_cast<std::size_t>(result.winner)].usd &&
         row.label() <
             result.rows[static_cast<std::size_t>(result.winner)].label())) {
      result.winner = static_cast<int>(i);
    }
  }

  obs::MetricRegistry::Global()
      .counter("plan/rows")
      .add(static_cast<std::uint64_t>(result.rows.size()));
  obs::MetricRegistry::Global()
      .counter("plan/cells")
      .add(static_cast<std::uint64_t>(result.cells));
  return result;
}

void WriteCsv(const PlanResult& result, std::ostream& out) {
  out << "algorithm,r,K,topology,policy,instance,scenarios,mean_s,"
      << "q" << FormatDouble(result.quantile * 100) << "_s,worst_s,"
      << "node_hours,usd_compute,usd_egress,usd,cross_rack_gb,meets_slo\n";
  for (const PlanRow& row : result.rows) {
    out << row.algorithm << ',' << row.redundancy << ',' << row.num_nodes
        << ',' << row.topology << ',' << row.policy << ',' << row.instance
        << ',' << row.scenarios << ',' << FormatDouble(row.mean_makespan)
        << ',' << FormatDouble(row.quantile_makespan) << ','
        << FormatDouble(row.worst_makespan) << ','
        << FormatDouble(row.node_hours) << ','
        << FormatDouble(row.usd_compute) << ','
        << FormatDouble(row.usd_egress) << ',' << FormatDouble(row.usd)
        << ',' << FormatDouble(row.cross_rack_gb) << ','
        << (row.meets_slo ? 1 : 0) << '\n';
  }
}

std::map<std::string, double> PlanMetrics(const PlanResult& result) {
  std::map<std::string, double> out;
  out["plan/cells"] = result.cells;
  out["plan/executions"] = result.executions;
  out["plan/rows"] = static_cast<double>(result.rows.size());
  out["plan/quantile"] = result.quantile;
  if (const PlanRow* winner = result.winner_row()) {
    out["winner/usd"] = winner->usd;
    out["winner/makespan"] = winner->quantile_makespan;
    out["winner/node_hours"] = winner->node_hours;
  }
  for (const PlanRow& row : result.rows) {
    out[row.label() + "/usd"] = row.usd;
    out[row.label() + "/makespan"] = row.quantile_makespan;
  }
  return out;
}

}  // namespace cts::plan
