// Cluster execution harness.
//
// Replaces the paper's coordinator + K EC2 workers: the coordinator is
// the calling thread, and each worker node is an OS thread running the
// node program against its world communicator. RunRecorder is the
// shared-memory side channel the harness (not the algorithms) uses to
// collect outputs, counters and timings — the algorithms themselves
// only communicate through simmpi.
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "driver/run_result.h"
#include "keyvalue/partitioner.h"
#include "simmpi/comm.h"
#include "simmpi/world.h"

namespace cts {

// Per-node results of a run. Node k writes only slot k of each vector
// (its stage events, partition and work), so nothing is locked; the
// slots are read after the node threads join.
class RunRecorder {
 public:
  explicit RunRecorder(int num_nodes)
      : events_(static_cast<std::size_t>(num_nodes)),
        partitions_(static_cast<std::size_t>(num_nodes)),
        work_(static_cast<std::size_t>(num_nodes)) {}

  // Appends one stage boundary to `node`'s slot ([start, end) on the
  // node's local run clock), in the order the node runs its stages.
  void record_event(const std::string& stage, NodeId node, double start,
                    double end) {
    events_[static_cast<std::size_t>(node)].push_back(
        ComputeEvent{stage, node, start, end});
  }

  // Stage names in execution order: node 0's sequence. Stages are
  // barrier-delimited, so every node runs the same one.
  std::vector<std::string> stage_order() const {
    std::vector<std::string> order;
    for (const ComputeEvent& e : events_.front()) order.push_back(e.stage);
    return order;
  }

  // All recorded events, ordered by (node, start): the slots in node
  // order.
  ComputeLog compute_events() const {
    ComputeLog log;
    for (const ComputeLog& node : events_) {
      log.insert(log.end(), node.begin(), node.end());
    }
    return log;
  }

  void set_partition(NodeId node, std::vector<Record> records) {
    partitions_[static_cast<std::size_t>(node)] = std::move(records);
  }

  void set_work(NodeId node, const NodeWork& work) {
    work_[static_cast<std::size_t>(node)] = work;
  }

  // Max-over-nodes wall seconds per stage, folded from the events.
  std::map<std::string, double> wall_max() const {
    return StageWalls(compute_events());
  }

  std::vector<std::vector<Record>> take_partitions() {
    return std::move(partitions_);
  }

  std::vector<NodeWork> work() const { return work_; }

 private:
  std::vector<ComputeLog> events_;
  std::vector<std::vector<Record>> partitions_;
  std::vector<NodeWork> work_;
};

// Runs `program(comm, recorder)` on one thread per node of a fresh
// World and returns after all threads join. A node program that throws
// aborts the world (World::abort), so no peer waits for it forever;
// after the join the lowest node's own exception is rethrown on the
// calling thread, not a peer's WorldAborted.
using NodeProgram =
    std::function<void(simmpi::Comm& world_comm, RunRecorder& recorder)>;

void RunOnCluster(simmpi::World& world, RunRecorder& recorder,
                  const NodeProgram& program);

// CodeGen of both coded engines, called by every member of `comm`: the
// communicators of `groups` that contain the caller, keyed by mask.
// kCommSplit creates them with one create_groups round per group (the
// paper's MPI_Comm_split per group, 2(K-1) control messages each);
// kBatched with one round for all of them.
std::map<NodeMask, simmpi::Comm> CreateGroups(
    simmpi::Comm& comm, const std::vector<NodeMask>& groups,
    CodeGenMode mode);

// Packs a finished run of any engine into an AlgorithmResult: the
// recorder's walls, stage order and events, and the world's per-stage
// traffic, shuffle traffic, shuffle log and transport events. Checks
// that no message or posted receive is left in the world. Partitions
// and work stay empty.
AlgorithmResult CollectRunResult(const SortConfig& config,
                                 std::string algorithm,
                                 simmpi::World& world,
                                 const RunRecorder& recorder);

// CollectRunResult plus what a sort adds: the recorder's partitions and
// work. Checks that every input record came out.
AlgorithmResult CollectSortResult(const SortConfig& config,
                                  std::string algorithm,
                                  simmpi::World& world,
                                  RunRecorder& recorder);

// Stage sequencing helper used inside node programs, matching the
// paper's synchronous stage-after-stage execution: one barrier opens
// each stage (every node finished the previous one), then each node
// labels its own traffic with the stage, runs the body and records
// the body's ComputeEvent, from which RunRecorder::wall_max also
// derives the stage's wall time, so the scenario engine's events and
// the tables' walls cannot disagree.
class StageRunner {
 public:
  // `injected_delays` (optional, borrowed) is the live fault-injection
  // hook: a matching entry makes this node really sleep inside the
  // stage body, so measured wall times and ComputeEvents exhibit the
  // straggler — the substrate the mitigation layer (src/mitigate) is
  // evaluated against on live runs.
  StageRunner(simmpi::Comm& world_comm, RunRecorder& recorder,
              const std::vector<InjectedDelay>* injected_delays = nullptr)
      : comm_(world_comm), recorder_(recorder),
        injected_delays_(injected_delays) {}

  template <typename Fn>
  void run(const std::string& name, Fn&& body) {
    const NodeId self = comm_.my_global();
    comm_.barrier();
    comm_.world().stats().set_stage(self, name);
    const double start = run_clock_.elapsed();
    body();
    inject_delay(name);  // before the end stamp: the sleep is measured
    recorder_.record_event(name, self, start, run_clock_.elapsed());
  }

 private:
  void inject_delay(const std::string& name) {
    if (injected_delays_ == nullptr) return;
    for (const InjectedDelay& d : *injected_delays_) {
      if (d.stage == name && d.node == comm_.my_global() && d.seconds > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(d.seconds));
      }
    }
  }

  simmpi::Comm& comm_;
  RunRecorder& recorder_;
  const std::vector<InjectedDelay>* injected_delays_;
  // Node-local run clock anchoring ComputeEvent boundaries; starts
  // when the node program constructs its StageRunner.
  Stopwatch run_clock_;
};

// The sorts' Reduce stage on node `self`: sorts partition P_self in
// place (SortRecords), checks that every record belongs to it, adds
// the sorted bytes to `work`, and hands the partition and `work` to the
// recorder.
void ReduceStage(StageRunner& stages, RunRecorder& recorder, NodeId self,
                 const Partitioner& partitioner, std::vector<Record> pool,
                 NodeWork work);

}  // namespace cts
