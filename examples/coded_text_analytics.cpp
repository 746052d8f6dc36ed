// Coded MapReduce beyond sorting (paper Section VI, first future
// direction): run Grep and WordCount through the generic CMR engine
// with both uncoded and coded shuffles, verify they agree, and report
// the measured communication loads against eq. (2).
//
//   $ ./build/examples/coded_text_analytics [K] [r]
//
// Defaults: K=6, r=3. A shape the engine cannot run (r outside
// [1, K], K > 64) exits 2.
#include <iostream>
#include <sstream>
#include <string>

#include "analytics/loads.h"
#include "cmr/cmr.h"
#include "common/numparse.h"
#include "common/table.h"
#include "common/units.h"
#include "examples/args.h"
#include "job/registry.h"

namespace {

void RunApp(const cts::cmr::CmrApp& app, const cts::SortConfig& shape) {
  using namespace cts;
  using namespace cts::cmr;
  const int K = shape.num_nodes;
  const int r = shape.redundancy;

  const CmrResult uncoded = RunCmr(app, shape, ShuffleMode::kUncoded);
  const CmrResult coded = RunCmr(app, shape, ShuffleMode::kCoded);

  std::cout << "--- " << app.name() << " ---\n";
  std::cout << "outputs identical (uncoded vs coded): "
            << (uncoded.outputs == coded.outputs ? "yes" : "NO") << "\n";

  TextTable table("communication load");
  table.set_header({"shuffle", "payload shuffled", "load", "eq. (2)"});
  table.add_row({"uncoded unicast",
                 HumanBytes(static_cast<double>(
                     uncoded.shuffled_payload_bytes)),
                 TextTable::Num(uncoded.measured_payload_load(), 4),
                 TextTable::Num(UncodedLoad(K, r), 4)});
  table.add_row({"coded multicast",
                 HumanBytes(static_cast<double>(coded.shuffled_payload_bytes)),
                 TextTable::Num(coded.measured_payload_load(), 4),
                 TextTable::Num(CodedLoad(K, r), 4)});
  table.render(std::cout);

  // A taste of the reducer outputs.
  std::istringstream first(coded.outputs.front());
  std::string line;
  int shown = 0;
  std::cout << "reducer 0 output (first lines):\n";
  while (std::getline(first, line) && shown++ < 3) {
    std::cout << "  " << line << "\n";
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const char* const usage = "coded_text_analytics [K] [r]";
  const int K = cts::examples::Positional(argc, argv, 1, 6, cts::ParseInt,
                                          usage);
  const int r = cts::examples::Positional(argc, argv, 2, 3, cts::ParseInt,
                                          usage);
  cts::SortConfig shape;
  shape.num_nodes = K;
  shape.redundancy = r;
  const std::string bounds =
      cts::job::BoundsError(*cts::job::Find("cmr"), shape);
  if (!bounds.empty()) cts::examples::ExitUsage(usage, bounds);

  std::cout << "Coded MapReduce text analytics on K=" << K
            << " simulated nodes, r=" << r << "\n\n";

  const auto grep = cts::cmr::MakeGrepApp("needle", /*records_per_file=*/400);
  RunApp(*grep, shape);

  const auto wordcount = cts::cmr::MakeWordCountApp(/*records_per_file=*/400);
  RunApp(*wordcount, shape);

  const auto selfjoin =
      cts::cmr::MakeSelfJoinApp(/*records_per_file=*/150, /*key_space=*/32);
  RunApp(*selfjoin, shape);

  const auto index = cts::cmr::MakeInvertedIndexApp(/*records_per_file=*/300);
  RunApp(*index, shape);

  std::cout << "The coded shuffle moves ~" << r
            << "x fewer payload bytes for the same answers — the paper's\n"
               "thesis applied beyond sorting.\n";
  return 0;
}
