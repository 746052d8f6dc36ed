// Cluster planner: given a cluster size, a dataset size, a network
// speed and per-node memory, pick the redundancy r that minimizes
// CodedTeraSort's projected completion time — the decision the paper's
// Section II model (eqs. (3)-(5)) informs, refined with the full cost
// model that also prices CodeGen, coding work, the multicast penalty,
// and the storage feasibility constraint of the paper's footnote 6
// (each node must hold r/K of the input, so r <= K*mem/input).
//
//   $ ./build/examples/cluster_planner [K] [GB] [Mbps] [node-mem-GB]
//
// Defaults: K=16, 12 GB, 100 Mbps, 7.5 GB (the paper's m3.large).
// K must be at least 2 with C(K, K/2) within 64 bits, and every size
// finite and positive; anything else exits 2.
#include <cmath>
#include <cstdint>
#include <iostream>

#include "analytics/cost_model.h"
#include "analytics/loads.h"
#include "analytics/time_model.h"
#include "combinatorics/subsets.h"
#include "common/numparse.h"
#include "common/table.h"
#include "common/units.h"
#include "examples/args.h"

int main(int argc, char** argv) {
  using namespace cts;

  const char* const usage = "cluster_planner [K] [GB] [Mbps] [node-mem-GB]";
  const int K = examples::Positional(argc, argv, 1, 16, ParseInt, usage);
  const double gigabytes =
      examples::Positional(argc, argv, 2, 12.0, ParseDouble, usage);
  const double mbps =
      examples::Positional(argc, argv, 3, 100.0, ParseDouble, usage);
  const double node_mem_gb =
      examples::Positional(argc, argv, 4, 7.5, ParseDouble, usage);
  // The widest binomial the r sweep below prices is C(K, K/2).
  std::uint64_t widest = 0;
  if (K < 2 || !BinomialOr(K, K / 2, &widest)) {
    examples::ExitUsage(usage, "K must be >= 2 with C(K, K/2) < 2^64");
  }
  for (const double size : {gigabytes * kGB, mbps * kMbps, node_mem_gb * kGB}) {
    if (!(size > 0) || !std::isfinite(size)) {
      examples::ExitUsage(usage,
                          "GB, Mbps and node-mem-GB must be > 0 and "
                          "finite in bytes");
    }
  }

  CostModel model;
  model.link_bytes_per_sec = mbps * kMbps;
  const double bytes = gigabytes * kGB;
  const double per_node = bytes / K;

  std::cout << "planning for K=" << K << ", " << HumanBytes(bytes) << ", "
            << HumanRate(model.link_bytes_per_sec) << " links, "
            << node_mem_gb << " GB memory per node\n\n";

  const double t_uncoded =
      per_node / model.hash_bytes_per_sec +             // Map
      per_node / model.pack_bytes_per_sec +             // Pack
      model.unicast_seconds(bytes * TeraSortLoad(K)) +  // Shuffle
      per_node / model.unpack_bytes_per_sec +           // Unpack
      per_node / model.sort_bytes_per_sec;              // Reduce

  TextTable table("projected CodedTeraSort completion time vs r");
  table.set_header({"r", "CodeGen", "Map", "Encode+Decode", "Shuffle",
                    "Reduce", "Total", "Speedup", "feasible"});
  double best_total = t_uncoded;
  int best_r = 1;
  for (int r = 1; r <= K - 1; ++r) {
    const double codegen = model.codegen_seconds(Binomial(K, r + 1));
    const double map = r * per_node / model.hash_bytes_per_sec +
                       static_cast<double>(Binomial(K - 1, r - 1)) *
                           model.map_file_overhead_sec;
    const double needed = per_node * UncodedLoad(K, r);  // bytes to receive
    const double packets = static_cast<double>(Binomial(K - 1, r));
    const double coding =
        needed / model.encode_bytes_per_sec +  // XOR in (~= bytes XORed)
        packets * model.encode_packet_overhead_sec +
        needed / model.decode_bytes_per_sec +
        static_cast<double>(r) * packets * model.decode_packet_overhead_sec;
    const double shuffle = model.multicast_seconds(
        bytes * CodedLoad(K, r), static_cast<double>(r));
    const double reduce = per_node / model.sort_bytes_per_sec *
                          (1.0 + model.reduce_memory_penalty * (r - 1));
    const double total = codegen + map + coding + shuffle + reduce;

    // Storage feasibility (paper footnote 6): a node stores its r/K
    // share of the input plus roughly its partition + coding buffers.
    const double resident = per_node * r + 2.0 * per_node;
    const bool feasible = resident <= node_mem_gb * kGB;
    if (feasible && total < best_total) {
      best_total = total;
      best_r = r;
    }
    table.add_row({std::to_string(r), TextTable::Num(codegen),
                   TextTable::Num(map), TextTable::Num(coding),
                   TextTable::Num(shuffle), TextTable::Num(reduce),
                   TextTable::Num(total),
                   TextTable::Num(t_uncoded / total, 2) + "x",
                   feasible ? "yes" : "no (memory)"});
  }
  table.render(std::cout);

  const MapReduceTimes naive{
      .map = per_node / model.hash_bytes_per_sec,
      .shuffle = model.unicast_seconds(bytes * TeraSortLoad(K)),
      .reduce = per_node / model.sort_bytes_per_sec};
  std::cout << "\nplain TeraSort projection: " << TextTable::Num(t_uncoded)
            << " s\n";
  std::cout << "recommended r (best feasible): " << best_r << " -> "
            << TextTable::Num(best_total) << " s ("
            << TextTable::Num(t_uncoded / best_total, 2) << "x)\n";
  std::cout << "eq. (5) alone would suggest r* = "
            << OptimalRedundancy(naive, K)
            << " — optimistic, because eq. (4) ignores CodeGen, coding\n"
               "work, the multicast penalty and memory (paper Section VI,\n"
               "'Scalable Coding').\n";
  return 0;
}
