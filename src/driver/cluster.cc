#include "driver/cluster.h"

#include <exception>
#include <thread>
#include <utility>

#include "keyvalue/recordio.h"
#include "obs/metrics.h"

namespace cts {

namespace {

// Pull-at-end publication of the transport's per-stage counters: one
// registry write per (stage, counter) after the run, nothing on the
// per-record hot path.
void PublishTrafficMetrics(const simmpi::TrafficStats& stats) {
  auto& registry = obs::MetricRegistry::Global();
  for (const std::string& stage : stats.stage_names()) {
    const simmpi::ChannelCounters c = stats.stage(stage);
    const std::string prefix = "simmpi/" + stage + "/";
    if (c.unicast_msgs > 0) {
      registry.counter(prefix + "unicast_msgs").add(c.unicast_msgs);
      registry.counter(prefix + "unicast_bytes").add(c.unicast_bytes);
    }
    if (c.mcast_msgs > 0) {
      registry.counter(prefix + "mcast_msgs").add(c.mcast_msgs);
      registry.counter(prefix + "mcast_bytes").add(c.mcast_bytes);
      registry.counter(prefix + "mcast_recipient_bytes")
          .add(c.mcast_recipient_bytes);
    }
    if (c.comm_creations > 0) {
      registry.counter(prefix + "comm_creations").add(c.comm_creations);
    }
  }
}

}  // namespace

void RunOnCluster(simmpi::World& world, RunRecorder& recorder,
                  const NodeProgram& program) {
  const int K = world.num_nodes();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(K));
  // Each node's own failure, and the WorldAborted its peers then saw.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(K));
  std::vector<std::exception_ptr> aborts(static_cast<std::size_t>(K));

  for (NodeId node = 0; node < K; ++node) {
    threads.emplace_back([&, node] {
      const auto n = static_cast<std::size_t>(node);
      try {
        simmpi::Comm comm = simmpi::Comm::World(world, node);
        program(comm, recorder);
      } catch (const simmpi::WorldAborted&) {
        aborts[n] = std::current_exception();
      } catch (...) {
        errors[n] = std::current_exception();
        world.abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (const auto& e : aborts) {
    if (e) std::rethrow_exception(e);
  }
  PublishTrafficMetrics(world.stats());
}

std::map<NodeMask, simmpi::Comm> CreateGroups(
    simmpi::Comm& comm, const std::vector<NodeMask>& groups,
    CodeGenMode mode) {
  if (mode == CodeGenMode::kBatched) return comm.create_groups(groups);
  std::map<NodeMask, simmpi::Comm> mine;
  for (const NodeMask g : groups) mine.merge(comm.create_groups({g}));
  return mine;
}

AlgorithmResult CollectRunResult(const SortConfig& config,
                                 std::string algorithm,
                                 simmpi::World& world,
                                 const RunRecorder& recorder) {
  AlgorithmResult result;
  result.config = config;
  result.algorithm = std::move(algorithm);
  result.wall_seconds = recorder.wall_max();
  result.stage_order = recorder.stage_order();
  result.compute_events = recorder.compute_events();
  for (const auto& name : world.stats().stage_names()) {
    result.traffic[name] = world.stats().stage(name);
  }
  result.shuffle_node_traffic = world.stats().per_node(stage::kShuffle);
  result.shuffle_log = world.stats().transmission_log(stage::kShuffle);
  result.transport_events = world.transport_log();
  CTS_CHECK_EQ(world.pending_messages(), std::size_t{0});
  return result;
}

AlgorithmResult CollectSortResult(const SortConfig& config,
                                  std::string algorithm,
                                  simmpi::World& world,
                                  RunRecorder& recorder) {
  AlgorithmResult result =
      CollectRunResult(config, std::move(algorithm), world, recorder);
  result.partitions = recorder.take_partitions();
  result.work = recorder.work();
  CTS_CHECK_EQ(result.total_output_records(), config.num_records);
  return result;
}

void ReduceStage(StageRunner& stages, RunRecorder& recorder, NodeId self,
                 const Partitioner& partitioner, std::vector<Record> pool,
                 NodeWork work) {
  stages.run(stage::kReduce, [&] {
    SortRecords(pool);
    work.reduce_bytes += pool.size() * kRecordBytes;
    // Partition-ownership invariant: everything this node reduced must
    // belong to its key range.
    for (const Record& rec : pool) {
      CTS_CHECK_MSG(partitioner.partition(rec.key) == self,
                    "record outside partition " << self);
    }
  });
  recorder.set_partition(self, std::move(pool));
  recorder.set_work(self, work);
}

}  // namespace cts
