#include "job/registry.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>

#include "cmr/cmr.h"
#include "codedterasort/coded_terasort.h"
#include "combinatorics/subsets.h"
#include "common/check.h"
#include "terasort/terasort.h"

namespace cts::job {

namespace {

std::mutex registry_mu;

std::map<std::string, AlgorithmInfo>& RegistryLocked() {
  static std::map<std::string, AlgorithmInfo> registry;
  return registry;
}

// Wraps the generic CMR engine behind the sorting-run interface: the
// SortConfig maps onto a CmrConfig (K, r, seed, shuffle sync pass
// through; r > 1 selects the coded shuffle, matching the paper's "r is
// the computation load" reading), and the result is repackaged as an
// AlgorithmResult carrying everything the replay paths consume —
// traffic, stage order, compute events and the shuffle log. CMR has no
// NodeWork counters or sorted partitions, so the entry registers with
// priced = sorts = false and scenario replays price it from the
// measured ComputeEvents (simscen::BuildScenarioRunFromEvents).
AlgorithmResult RunCmrAsJob(const SortConfig& config) {
  cmr::CmrConfig cc;
  cc.num_nodes = config.num_nodes;
  cc.redundancy = config.redundancy;
  cc.seed = config.seed;
  cc.mode = config.redundancy > 1 ? cmr::ShuffleMode::kCoded
                                  : cmr::ShuffleMode::kUncoded;
  cc.sync = config.shuffle_sync;
  cc.injected_delays = config.injected_delays;
  const auto app = cmr::MakeWordCountApp(CmrRecordsPerFile(config));
  const cmr::CmrResult run = cmr::RunCmr(*app, cc);

  AlgorithmResult result;
  result.config = config;
  result.algorithm = "CMR-" + app->name();
  result.traffic = run.traffic;
  result.shuffle_log = run.shuffle_log;
  result.transport_events = run.transport_events;
  result.stage_order = run.stage_order;
  result.compute_events = run.compute_events;
  for (const ComputeEvent& e : run.compute_events) {
    double& wall = result.wall_seconds[e.stage];
    wall = std::max(wall, e.seconds());
  }
  return result;
}

void RegisterBuiltinsLocked() {
  auto& registry = RegistryLocked();
  const auto put = [&](AlgorithmInfo info) {
    registry.emplace(info.name, std::move(info));
  };
  put({"terasort",
       "plain TeraSort (paper Section III): Map/Pack/Shuffle/Unpack/"
       "Reduce, serial unicast shuffle",
       {"nodes", "records", "seed", "dist", "partitioner", "shuffle-sync",
        "inject-delay"},
       /*priced=*/true, /*sorts=*/true,
       [](const SortConfig& c) { return RunTeraSort(c); }});
  put({"coded",
       "CodedTeraSort (paper Section IV): r-replicated Map, XOR-coded "
       "multicast shuffle",
       {"nodes", "redundancy", "records", "seed", "dist", "partitioner",
        "codegen", "shuffle-sync", "inject-delay"},
       /*priced=*/true, /*sorts=*/true,
       [](const SortConfig& c) { return RunCodedTeraSort(c); }});
  put({"cmr",
       "generic Coded MapReduce engine (paper Section II) running the "
       "bundled WordCount app; r > 1 switches to the coded shuffle",
       {"nodes", "redundancy", "records", "seed", "shuffle-sync",
        "inject-delay"},
       /*priced=*/false, /*sorts=*/false, RunCmrAsJob});
}

std::map<std::string, AlgorithmInfo>& Registry() {
  static std::once_flag once;
  std::call_once(once, [] {
    std::lock_guard lock(registry_mu);
    RegisterBuiltinsLocked();
  });
  return RegistryLocked();
}

std::size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({up + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

}  // namespace

std::string BoundsError(const AlgorithmInfo& info, const SortConfig& config) {
  const int K = config.num_nodes;
  const int r = config.redundancy;
  if (K < 1) return "K = " + std::to_string(K) + " nodes: need K >= 1";
  if (std::find(info.knobs.begin(), info.knobs.end(), "redundancy") ==
      info.knobs.end()) {
    return "";
  }
  if (r < 1 || r > K) {
    return info.name + " needs 1 <= r <= K, got r = " + std::to_string(r) +
           " at K = " + std::to_string(K);
  }
  if (K > kMaxNodes) {
    return info.name + " places files by " + std::to_string(kMaxNodes) +
           "-bit node masks: K = " + std::to_string(K) + " exceeds " +
           std::to_string(kMaxNodes);
  }
  return "";
}

int CmrRecordsPerFile(const SortConfig& config) {
  const std::uint64_t files = Binomial(config.num_nodes, config.redundancy);
  CTS_CHECK_GT(files, std::uint64_t{0});
  const std::uint64_t per_file = config.num_records / files;
  return static_cast<int>(std::clamp<std::uint64_t>(per_file, 1, 100000));
}

void Register(AlgorithmInfo info) {
  CTS_CHECK_MSG(!info.name.empty(), "algorithm name must be non-empty");
  CTS_CHECK_MSG(static_cast<bool>(info.run),
                "algorithm '" << info.name << "' has no run function");
  auto& registry = Registry();
  std::lock_guard lock(registry_mu);
  const bool inserted = registry.emplace(info.name, std::move(info)).second;
  CTS_CHECK_MSG(inserted, "algorithm already registered");
}

const AlgorithmInfo* Find(const std::string& name) {
  auto& registry = Registry();
  std::lock_guard lock(registry_mu);
  const auto it = registry.find(name);
  return it == registry.end() ? nullptr : &it->second;
}

std::vector<std::string> Names() {
  auto& registry = Registry();
  std::lock_guard lock(registry_mu);
  std::vector<std::string> names;
  names.reserve(registry.size());
  for (const auto& [name, info] : registry) names.push_back(name);
  return names;
}

std::string SuggestName(const std::string& name) {
  std::string best;
  std::size_t best_distance = 3;  // suggest only within distance 2
  for (const std::string& candidate : Names()) {
    const std::size_t d = EditDistance(name, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

}  // namespace cts::job
