// EC2-calibrated cost model.
//
// The paper's testbed is a 100 Mbps-capped EC2 cluster we do not have;
// the algorithms here run for real but on an in-memory transport. This
// model converts *measured* work counters (bytes hashed, packed, XORed,
// transmitted; packets; multicast groups) into the seconds the paper's
// testbed would take, so the bench harnesses can print Tables I-III at
// paper scale.
//
// Every constant is calibrated from the paper's own numbers; the
// derivations are documented inline and verified by analytics tests and
// EXPERIMENTS.md. The *shape* of the results (who wins, crossovers,
// r/K trends) is driven entirely by the measured counters, which scale
// exactly with data size; the constants only set absolute units.
#pragma once

#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/units.h"
#include "driver/run_result.h"

namespace cts {

// Scaling between the executed run and the paper-scale workload the
// report describes. Byte counts scale linearly with record count;
// packet / file / group counts are combinatorial in (K, r) and do not
// scale.
struct RunScale {
  // executed_records / reported_records; 1.0 reports the run as-is.
  double fraction = 1.0;

  double bytes(std::uint64_t measured) const {
    CTS_CHECK_GT(fraction, 0.0);
    return static_cast<double>(measured) / fraction;
  }
};

struct CostModel {
  // ---- Network ----
  // The three link constants live in common/units.h so the closed
  // forms here and the scenario engine's replay (simscen::Topology)
  // share one calibration.
  //
  // 100 Mbps tc-limited NICs (paper Section V-B).
  double link_bytes_per_sec = kPaperLinkBytesPerSec;
  // Effective TCP goodput fraction. Calibration: Table I shuffle moves
  // 16 nodes x 750 MB x 15/16 = 11.25 GB serially in 945.72 s
  // => 11.90 MB/s on a 12.5 MB/s link => 0.95.
  double link_efficiency = kTcpEfficiency;
  // MPI_Bcast fan-out penalty: multicasting to r receivers costs
  // (1 + coeff*log2(r)) x the unicast time of the same bytes (paper
  // Section V-C observation 2, citing [11]'s logarithmic growth).
  // Calibration: Table II r=3 coded shuffle = 412.22 s vs 274.5 s of
  // pure serial transmission => 1.50 => coeff 0.32 (r=5 gives 0.32 as
  // well within a few percent, see EXPERIMENTS.md).
  double multicast_log_coeff = kMulticastLogCoeff;

  // ---- CodeGen ----
  // Per-multicast-group MPI_Comm_split cost. Calibration: Table II
  // r=3: 6.06 s / C(16,4)=1820 groups = 3.3 ms; r=5: 23.47/8008 = 2.9;
  // Table III: 19.32/4845 = 4.0 and 140.91/38760 = 3.6. Mean ~3.5 ms.
  double group_setup_sec = 3.5e-3;
  // Per-group cost of the batched CodeGen extension: no collective per
  // group, just local plan bookkeeping (subset enumeration + group
  // bookkeeping, ~MPI_Group_incl). Assumed 0.05 ms — 70x cheaper than
  // a full MPI_Comm_split round, in line with MPI_Comm_create_group
  // microbenchmarks on small groups.
  double group_setup_batched_sec = 0.05e-3;

  // ---- Compute rates (per node) ----
  // Hashing: Table I Map = 1.86 s for 750 MB/node => 403 MB/s.
  double hash_bytes_per_sec = 403e6;
  // Per-file overhead in Map: CodedTeraSort maps C(K-1, r-1) small
  // files instead of one big one; measured Map ratios (3.2x at r=3,
  // 5.8x at r=5 versus the ideal r x) imply a per-file cost. The four
  // coded cells of Tables II-III are noisy (0.2-4 ms implied); 0.5 ms
  // keeps every cell within ~10%.
  double map_file_overhead_sec = 0.5e-3;
  // Pack: Table I 2.35 s for ~703 MB of outgoing values => 300 MB/s.
  double pack_bytes_per_sec = 300e6;
  // Unpack: Table I 0.85 s for ~703 MB received => 830 MB/s.
  double unpack_bytes_per_sec = 830e6;
  // Encode: least-squares fit of a*xor_bytes + b*packets over the four
  // coded cells of Tables II-III (5.79, 8.10, 4.89, 7.51 s) gives
  // a => 95.6 MB/s, b = 0.28 ms/packet (max residual ~23%).
  double encode_bytes_per_sec = 95.6e6;
  double encode_packet_overhead_sec = 0.28e-3;
  // Decode: same fit over (2.41, 3.69, 1.87, 3.70 s) gives 230 MB/s
  // and 0.034 ms/packet.
  double decode_bytes_per_sec = 230e6;
  double decode_packet_overhead_sec = 0.034e-3;
  // Local sort: Table I Reduce = 10.47 s for 750 MB => 71.6 MB/s.
  double sort_bytes_per_sec = 71.6e6;
  // CodedTeraSort persists extra intermediate state, slowing the local
  // sort (paper Section V-C observation 4): measured Reduce ratios are
  // 1.17-1.40 across Tables II-III; modeled as (1 + penalty*(r-1)).
  double reduce_memory_penalty = 0.09;

  // ---- Derived helpers ----

  double effective_link_rate() const {
    return link_bytes_per_sec * link_efficiency;
  }

  // Seconds to serially transmit `bytes` as unicasts.
  double unicast_seconds(double bytes) const {
    return bytes / effective_link_rate();
  }

  // Seconds to serially transmit `bytes` as multicasts with the given
  // average fan-out.
  double multicast_seconds(double bytes, double fanout) const {
    CTS_CHECK_GE(fanout, 1.0);
    const double penalty =
        1.0 + multicast_log_coeff * std::log2(fanout);
    return bytes / effective_link_rate() * penalty;
  }

  double codegen_seconds(std::uint64_t groups,
                         CodeGenMode mode = CodeGenMode::kCommSplit) const {
    const double per_group = mode == CodeGenMode::kBatched
                                 ? group_setup_batched_sec
                                 : group_setup_sec;
    return static_cast<double>(groups) * per_group;
  }

  // Per-node stage prices. NodeStagePrice (report.h) is the one map
  // from a stage name to them.
  double map_seconds(const NodeWork& w, const RunScale& scale) const {
    return scale.bytes(w.map_bytes) / hash_bytes_per_sec +
           static_cast<double>(w.map_files) * map_file_overhead_sec;
  }

  double pack_seconds(const NodeWork& w, const RunScale& scale) const {
    return scale.bytes(w.pack_bytes) / pack_bytes_per_sec;
  }

  double unpack_seconds(const NodeWork& w, const RunScale& scale) const {
    return scale.bytes(w.unpack_bytes) / unpack_bytes_per_sec;
  }

  double encode_seconds(const NodeWork& w, const RunScale& scale) const {
    return scale.bytes(w.codec.encode_xor_bytes) / encode_bytes_per_sec +
           static_cast<double>(w.codec.packets_encoded) *
               encode_packet_overhead_sec;
  }

  double decode_seconds(const NodeWork& w, const RunScale& scale) const {
    return scale.bytes(w.codec.decoded_bytes) / decode_bytes_per_sec +
           static_cast<double>(w.codec.packets_decoded) *
               decode_packet_overhead_sec;
  }

  double reduce_seconds(const NodeWork& w, const RunScale& scale,
                        int r) const {
    const double penalty =
        1.0 + reduce_memory_penalty * static_cast<double>(r - 1);
    return scale.bytes(w.reduce_bytes) / sort_bytes_per_sec * penalty;
  }
};

// Dollars, where CostModel above is seconds: converts a run's makespan
// and its cross-rack shuffle traffic into what the fleet would bill.
// The paper's testbed rents K nodes for the whole job (every node
// participates in every barrier-synchronous stage, so there is nothing
// to release early): compute cost = makespan × K × $/node-hour. Bytes
// that leave a rack are the cloud's metered traffic (inter-AZ /
// inter-zone transfer in EC2 terms); intra-rack traffic is free, which
// is exactly why rack-aware multicast and per-rack pipe topologies
// change a configuration's price and not just its makespan.
//
// Constant derivations (same vintage as CostModel's Section V-B
// calibration — 2017 us-east-1 on-demand pricing):
//   * node_usd_per_hour: m3.large (the 100 Mbps-class instance the
//     testbed caps down to) listed at $0.133/hour on-demand.
//   * cross_rack_usd_per_gb: inter-AZ transfer billed $0.01/GB out
//     plus $0.01/GB in => $0.02 per GB crossing a rack boundary.
// Instance profiles override node_usd_per_hour per cell (the planner's
// instance axis); the egress rate is a property of the region, not the
// instance.
struct DollarCost {
  double node_usd_per_hour = 0.133;
  double cross_rack_usd_per_gb = 0.02;

  // K nodes held for the makespan.
  double node_hours(double makespan_seconds, int num_nodes) const {
    CTS_CHECK_GE(num_nodes, 1);
    return makespan_seconds / 3600.0 * static_cast<double>(num_nodes);
  }
  double compute_usd(double makespan_seconds, int num_nodes) const {
    return node_hours(makespan_seconds, num_nodes) * node_usd_per_hour;
  }
  double egress_usd(double cross_rack_bytes) const {
    CTS_CHECK_GE(cross_rack_bytes, 0.0);
    return cross_rack_bytes / 1e9 * cross_rack_usd_per_gb;
  }
};

}  // namespace cts
