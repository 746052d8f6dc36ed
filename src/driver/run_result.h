// Shared configuration and result types for one engine run.
//
// All three engines (terasort, codedterasort, cmr) consume a SortConfig
// and produce an AlgorithmResult: for the sorts, the sorted per-node
// partitions plus everything the analytics layer needs to price the
// run on the paper's testbed — per-node work counters, per-stage
// transport counters, and per-stage wall times of the actual
// execution. CMR fills everything but the partitions and work.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "coding/codec.h"
#include "common/types.h"
#include "keyvalue/record.h"
#include "keyvalue/teragen.h"
#include "simmpi/eventlog.h"
#include "simmpi/traffic.h"

namespace cts {

// Canonical stage names, and kAll in their canonical order. The bench
// tables print them in this order; stages absent from a run simply
// report zero.
namespace stage {
inline constexpr const char* kCodeGen = "CodeGen";
inline constexpr const char* kMap = "Map";
inline constexpr const char* kPack = "Pack";
inline constexpr const char* kEncode = "Encode";
inline constexpr const char* kShuffle = "Shuffle";
inline constexpr const char* kUnpack = "Unpack";
inline constexpr const char* kDecode = "Decode";
inline constexpr const char* kReduce = "Reduce";
inline constexpr const char* kAll[] = {kCodeGen, kMap,    kPack,   kEncode,
                                       kShuffle, kUnpack, kDecode, kReduce};
}  // namespace stage

enum class PartitionerKind {
  kRange,    // analytic equal ranges (paper workload: uniform keys)
  kSampled,  // splitter keys from a deterministic input sample,
             // computed identically on every node (coordinator-style)
};

// How CodedTeraSort materializes its C(K, r+1) multicast groups
// (paper Section VI, "Scalable Coding" future direction). Both modes
// run the one group-creation collective, Comm::create_groups
// (driver/cluster.h's CreateGroups):
enum class CodeGenMode {
  kCommSplit,  // the paper's approach, MPI_Comm_split per group: one
               // create_groups round per group, 2(K-1) control
               // messages each — cost grows as 3.5 ms * groups
  kBatched,    // extension: one create_groups round reserves ids for
               // all groups and members derive memberships locally
               // (MPI_Comm_create_group-style) — per-group cost drops
               // to plan bookkeeping
};

// How the shuffle is sequenced relative to the rest of the node
// program (paper Section VI, "Asynchronous Execution"):
enum class ShuffleSync {
  kBarrier,     // the paper: barrier, then strictly ordered blocking
                // sends — one sender occupies the network at a time
  kOverlapped,  // extension: nonblocking isend/irecv; senders post all
                // transmissions up front (and, where the data flow
                // allows, while upstream stages are still running) and
                // drain receives afterwards. Moves byte-identical
                // traffic in an initiation order that parallel links
                // can actually overlap.
};

// Live fault injection: a real wall-clock delay inserted into one
// node's stage body by driver::StageRunner, so the thread-per-node
// harness can exhibit the stragglers the mitigation layer
// (src/mitigate) is evaluated against. The delay is measured like any
// other compute — it shows up in wall_seconds and ComputeEvents and
// therefore in every downstream policy evaluation.
struct InjectedDelay {
  std::string stage;
  NodeId node = 0;
  double seconds = 0;
};

// Configuration of one sorting job.
struct SortConfig {
  int num_nodes = 4;           // K
  int redundancy = 1;          // r; ignored by plain TeraSort
  std::uint64_t num_records = 100000;
  std::uint64_t seed = 2017;
  KeyDistribution distribution = KeyDistribution::kUniform;
  PartitionerKind partitioner = PartitionerKind::kRange;
  // Sample size for PartitionerKind::kSampled.
  std::uint64_t sample_size = 1000;
  // Multicast-group creation strategy (CodedTeraSort only).
  CodeGenMode codegen_mode = CodeGenMode::kCommSplit;
  // Shuffle sequencing (both algorithms).
  ShuffleSync shuffle_sync = ShuffleSync::kBarrier;
  // Live straggler injection (tests / demos; see InjectedDelay).
  std::vector<InjectedDelay> injected_delays;

  std::uint64_t total_bytes() const { return num_records * kRecordBytes; }
};

// Per-node work counters accumulated by the node programs, at the
// executed scale. The analytics CostModel converts them to paper-scale
// seconds.
struct NodeWork {
  std::uint64_t map_bytes = 0;   // input bytes hashed
  std::uint64_t map_files = 0;   // files processed in Map
  std::uint64_t pack_bytes = 0;  // bytes serialized for the shuffle
  std::uint64_t unpack_bytes = 0;
  CodecStats codec;              // XOR encode/decode counters
  std::uint64_t reduce_bytes = 0;  // bytes locally sorted

  NodeWork& operator+=(const NodeWork& o) {
    map_bytes += o.map_bytes;
    map_files += o.map_files;
    pack_bytes += o.pack_bytes;
    unpack_bytes += o.unpack_bytes;
    codec += o.codec;
    reduce_bytes += o.reduce_bytes;
    return *this;
  }
};

// One stage executed on one node, at executed scale, on the node's
// local clock (seconds since its program entered its first stage).
// StageRunner records one event per stage body per node, in per-node
// program order; the scenario engine (src/simscen) consumes the stage
// sequence to replay a run under a ClusterProfile/Topology, and the
// boundaries give CMR-style runs (which have no NodeWork counters)
// per-node compute durations.
struct ComputeEvent {
  std::string stage;
  NodeId node = 0;
  double start_seconds = 0;
  double end_seconds = 0;

  double seconds() const { return end_seconds - start_seconds; }
};

// All compute events of one run, ordered by (node, start).
using ComputeLog = std::vector<ComputeEvent>;

// Per-stage wall seconds of a run: for each stage, the max over its
// events of end - start (the stage completes when its slowest node
// does).
inline std::map<std::string, double> StageWalls(const ComputeLog& log) {
  std::map<std::string, double> walls;
  for (const ComputeEvent& e : log) {
    double& wall = walls[e.stage];
    wall = std::max(wall, e.seconds());
  }
  return walls;
}

// Everything one run produces.
struct AlgorithmResult {
  SortConfig config;
  std::string algorithm;  // "TeraSort", "CodedTeraSort" or "CMR-<app>"

  // partitions[k] = node k's sorted output (partition P_k). Their
  // concatenation in node order is the fully sorted dataset.
  std::vector<std::vector<Record>> partitions;

  // Per-node counters, indexed by NodeId.
  std::vector<NodeWork> work;

  // Per-stage transport counters (snapshot of World::stats()).
  std::map<std::string, simmpi::ChannelCounters> traffic;

  // Per-node tx/rx during the shuffle stage (indexed by NodeId; may be
  // empty for shuffle-free runs). Used by the asynchronous-execution
  // extension to price parallel shuffles.
  std::vector<simmpi::NodeTraffic> shuffle_node_traffic;

  // Ordered shuffle transmissions, for discrete-event replay
  // (simscen::NetMakespan).
  simnet::TransmissionLog shuffle_log;

  // Transport send/post/match events of the whole run, for the
  // happens-before race analysis (src/check). Empty unless
  // simmpi::TransportRecorder::RequestCapture(true) was set before the
  // run executed (ctcheck and the check tests do; normal runs pay only
  // the disabled-branch test).
  simmpi::TransportLog transport_events;

  // Per-stage wall seconds: StageWalls(compute_events).
  std::map<std::string, double> wall_seconds;

  // Stage names in first-execution order (each once). Unlike the maps
  // above, this preserves the sequence the node programs ran, which
  // the scenario engine replays stage-by-stage.
  std::vector<std::string> stage_order;

  // Per-node stage boundaries at executed scale (see ComputeEvent).
  ComputeLog compute_events;

  std::uint64_t total_output_records() const {
    std::uint64_t n = 0;
    for (const auto& p : partitions) n += p.size();
    return n;
  }

  // Aggregate NodeWork over nodes (for whole-run sanity checks).
  NodeWork total_work() const {
    NodeWork t;
    for (const auto& w : work) t += w;
    return t;
  }
};

}  // namespace cts
