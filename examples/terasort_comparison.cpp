// Side-by-side comparison of TeraSort and CodedTeraSort on the same
// workload: per-stage wall times of the actual execution, transport
// traffic, and the paper-scale (EC2-calibrated) projection.
//
//   $ ./build/examples/terasort_comparison [K] [r] [records]
//
// Defaults: K=10, r=4, 500000 records. This is the experiment of the
// paper's Section V in miniature — run it with different r to watch
// the shuffle shrink and the Map/CodeGen overheads grow. A shape the
// engines cannot run (r outside [1, K], K > 64, no records) exits 2.
#include <cstdint>
#include <iostream>
#include <string>

#include "analytics/report.h"
#include "codedterasort/coded_terasort.h"
#include "common/numparse.h"
#include "common/table.h"
#include "common/units.h"
#include "examples/args.h"
#include "job/registry.h"
#include "terasort/terasort.h"

namespace {

void PrintWallTimes(const cts::AlgorithmResult& result) {
  cts::TextTable table(result.algorithm + ": executed wall times");
  table.set_header({"stage", "wall (max over nodes)"});
  for (const char* s : cts::stage::kAll) {
    const auto it = result.wall_seconds.find(s);
    if (it == result.wall_seconds.end()) continue;
    table.add_row({s, cts::HumanSeconds(it->second)});
  }
  table.render(std::cout);
}

void PrintTraffic(const cts::AlgorithmResult& result) {
  const auto shuffle = result.traffic.at(cts::stage::kShuffle);
  std::cout << result.algorithm << " shuffle traffic: "
            << cts::HumanBytes(
                   static_cast<double>(shuffle.transmitted_bytes()))
            << " transmitted in " << shuffle.unicast_msgs << " unicasts + "
            << shuffle.mcast_msgs << " multicasts\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cts;

  const char* const usage = "terasort_comparison [K] [r] [records]";
  SortConfig config;
  config.num_nodes = examples::Positional(argc, argv, 1, 10, ParseInt, usage);
  config.redundancy = examples::Positional(argc, argv, 2, 4, ParseInt, usage);
  config.num_records = examples::Positional(
      argc, argv, 3, std::uint64_t{500000}, ParseU64, usage);
  if (config.num_records == 0) {
    examples::ExitUsage(usage, "records must be >= 1");
  }
  const std::string bounds = job::BoundsError(*job::Find("coded"), config);
  if (!bounds.empty()) examples::ExitUsage(usage, bounds);

  std::cout << "K=" << config.num_nodes << ", r=" << config.redundancy
            << ", " << config.num_records << " records ("
            << HumanBytes(static_cast<double>(config.total_bytes()))
            << ")\n\n";

  const AlgorithmResult plain = RunTeraSort(config);
  const AlgorithmResult coded = RunCodedTeraSort(config);

  // The two algorithms must agree exactly.
  bool equal = plain.partitions == coded.partitions;
  std::cout << "outputs identical: " << (equal ? "yes" : "NO") << "\n\n";

  PrintWallTimes(plain);
  PrintWallTimes(coded);
  std::cout << '\n';
  PrintTraffic(plain);
  PrintTraffic(coded);

  const double ratio =
      static_cast<double>(plain.traffic.at(stage::kShuffle).transmitted_bytes()) /
      static_cast<double>(coded.traffic.at(stage::kShuffle).transmitted_bytes());
  std::cout << "shuffle byte reduction: " << TextTable::Num(ratio, 2)
            << "x\n\n";

  // Paper-scale projection with the EC2-calibrated model.
  const RunScale scale{1.0};  // price the run at its executed size
  const CostModel model;
  BreakdownTable(
      "EC2-projected times at executed size (100 Mbps serial network)",
      {SimulateRun(plain, model, scale), SimulateRun(coded, model, scale)})
      .render(std::cout);
  return equal ? 0 : 1;
}
