// Tests for the driver layer: cluster harness, stage runner,
// recorder, and partitioner construction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/block_cache.h"
#include "common/check.h"
#include "driver/cluster.h"
#include "driver/partition_util.h"
#include "job/job.h"
#include "keyvalue/teragen.h"

namespace cts {
namespace {

TEST(Cluster, RunsOneThreadPerNode) {
  simmpi::World world(6);
  RunRecorder recorder(6);
  std::atomic<int> ran{0};
  RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder&) {
    EXPECT_EQ(comm.size(), 6);
    ++ran;
  });
  EXPECT_EQ(ran.load(), 6);
}

TEST(Cluster, RethrowsNodeFailure) {
  simmpi::World world(3);
  RunRecorder recorder(3);
  EXPECT_THROW(
      RunOnCluster(world, recorder,
                   [&](simmpi::Comm& comm, RunRecorder&) {
                     CTS_CHECK_MSG(false, "injected failure on node "
                                              << comm.my_global());
                   }),
      CheckError);
}

// A node that throws before a blocking exchange its peers enter fails
// the run instead of hanging it: the world is aborted, the peers'
// barrier wakes with WorldAborted, and the thrower's own error is the
// one rethrown. A watchdog bounds the run, so a hang fails the test; on
// a hang the future is leaked, because its destructor would wait for
// the blocked node threads.
TEST(Cluster, FailingNodeFailsTheRun) {
  auto run = std::make_unique<std::future<std::string>>(
      std::async(std::launch::async, [] {
        simmpi::World world(4);
        RunRecorder recorder(4);
        try {
          RunOnCluster(world, recorder,
                       [](simmpi::Comm& comm, RunRecorder&) {
                         CTS_CHECK_MSG(comm.my_global() != 2,
                                       "node 2 fails before the barrier");
                         comm.barrier();
                       });
        } catch (const CheckError& e) {
          return std::string(e.what());
        } catch (const std::exception& e) {
          return std::string("not the node's own error: ") + e.what();
        }
        return std::string("no error");
      }));
  if (run->wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    (void)run.release();
    FAIL() << "RunOnCluster still blocked after 10 s";
  }
  const std::string error = run->get();
  EXPECT_NE(error.find("node 2 fails before the barrier"), std::string::npos)
      << error;
}

TEST(Cluster, StageRunnerLabelsTrafficPerStage) {
  simmpi::World world(2);
  RunRecorder recorder(2);
  RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder& rec) {
    StageRunner stages(comm, rec);
    Buffer b;
    b.resize(64);
    stages.run("first", [&] {
      if (comm.rank() == 0) {
        comm.send(1, 0, b);
      } else {
        (void)comm.recv(0, 0);
      }
    });
    stages.run("second", [&] {
      if (comm.rank() == 1) {
        comm.send(0, 0, b);
        comm.send(0, 1, b);
      } else {
        (void)comm.recv(1, 0);
        (void)comm.recv(1, 1);
      }
    });
  });
  EXPECT_EQ(world.stats().stage("first").unicast_msgs, 1u);
  EXPECT_EQ(world.stats().stage("second").unicast_msgs, 2u);
}

// A stage is one barrier: K = 4 nodes running three empty stages send
// 2(K - 1) barrier tokens per stage and nothing else. Each node's
// events sit in its own slot, so the recorder lists them by node, in
// the order the node ran its stages, and the stage order is node 0's.
TEST(Cluster, OneBarrierPerStage) {
  constexpr int K = 4;
  const std::vector<std::string> names = {"one", "two", "three"};
  simmpi::TransportRecorder::RequestCapture(true);
  simmpi::World world(K);
  simmpi::TransportRecorder::RequestCapture(false);
  RunRecorder recorder(K);
  RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder& rec) {
    StageRunner stages(comm, rec);
    for (const std::string& name : names) stages.run(name, [] {});
  });
  std::size_t sends = 0;
  for (const simmpi::TransportEvent& ev : world.transport_log()) {
    if (ev.kind != simmpi::TransportEventKind::kSend) continue;
    EXPECT_EQ(ev.tag, simmpi::Comm::kTagBarrier);
    ++sends;
  }
  EXPECT_EQ(sends, names.size() * 2 * (K - 1));

  EXPECT_EQ(recorder.stage_order(), names);
  const ComputeLog events = recorder.compute_events();
  ASSERT_EQ(events.size(), names.size() * K);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].node, static_cast<NodeId>(i / names.size()));
    EXPECT_EQ(events[i].stage, names[i % names.size()]);
    if (i % names.size() != 0) {
      EXPECT_LE(events[i - 1].end_seconds, events[i].start_seconds);
    }
  }
}

TEST(Cluster, StageRunnerRecordsWallPerNode) {
  simmpi::World world(3);
  RunRecorder recorder(3);
  RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder& rec) {
    StageRunner stages(comm, rec);
    stages.run("work", [&] {});
    stages.run("more", [&] {});
  });
  const auto wall = recorder.wall_max();
  ASSERT_TRUE(wall.count("work"));
  ASSERT_TRUE(wall.count("more"));
  EXPECT_GE(wall.at("work"), 0.0);
}

TEST(Recorder, CollectsPartitionsAndWork) {
  RunRecorder recorder(2);
  NodeWork w0;
  w0.map_bytes = 100;
  recorder.set_work(0, w0);
  NodeWork w1;
  w1.map_bytes = 200;
  recorder.set_work(1, w1);
  recorder.set_partition(1, {Record{}});
  EXPECT_EQ(recorder.work()[0].map_bytes, 100u);
  EXPECT_EQ(recorder.work()[1].map_bytes, 200u);
  auto partitions = recorder.take_partitions();
  EXPECT_TRUE(partitions[0].empty());
  EXPECT_EQ(partitions[1].size(), 1u);
}

TEST(NodeWorkAccumulation, SumsAllFields) {
  NodeWork a;
  a.map_bytes = 1;
  a.map_files = 2;
  a.pack_bytes = 3;
  a.unpack_bytes = 4;
  a.reduce_bytes = 5;
  a.codec.packets_encoded = 6;
  NodeWork b = a;
  b += a;
  EXPECT_EQ(b.map_bytes, 2u);
  EXPECT_EQ(b.map_files, 4u);
  EXPECT_EQ(b.pack_bytes, 6u);
  EXPECT_EQ(b.unpack_bytes, 8u);
  EXPECT_EQ(b.reduce_bytes, 10u);
  EXPECT_EQ(b.codec.packets_encoded, 12u);
}

TEST(PartitionUtil, RangeByDefault) {
  SortConfig config;
  config.num_nodes = 5;
  const auto part = MakePartitioner(config);
  EXPECT_EQ(part->num_partitions(), 5);
  EXPECT_EQ(part->partition(MakeKey(0)), 0);
}

TEST(PartitionUtil, SampledIsDeterministicAcrossCalls) {
  SortConfig config;
  config.num_nodes = 4;
  config.num_records = 10000;
  config.partitioner = PartitionerKind::kSampled;
  config.distribution = KeyDistribution::kSkewed;
  const auto a = MakePartitioner(config);
  const auto b = MakePartitioner(config);
  const TeraGen gen(config.seed, config.distribution);
  for (const auto& rec : gen.generate(0, 500)) {
    EXPECT_EQ(a->partition(rec.key), b->partition(rec.key));
  }
}

TEST(PartitionUtil, SampledHandlesTinyInputs) {
  SortConfig config;
  config.num_nodes = 3;
  config.num_records = 2;  // fewer records than sample or partitions
  config.partitioner = PartitionerKind::kSampled;
  const auto part = MakePartitioner(config);
  EXPECT_EQ(part->num_partitions(), 3);
}

// Back-to-back live jobs of one shape reuse the blocks the first one
// mapped (the process-wide BlockCache), so they fault no memory in.
TEST(LiveJob, RepeatsMapNoNewBlocks) {
  for (const char* algorithm : {"terasort", "coded"}) {
    SCOPED_TRACE(algorithm);
    job::JobSpec spec;
    spec.algorithm = algorithm;
    spec.backend = job::Backend::kLive;
    spec.config.num_nodes = 4;
    spec.config.redundancy = spec.algorithm == "coded" ? 2 : 1;
    spec.config.num_records = 100000;  // packed lists of >= 256 KiB
    ASSERT_EQ(job::RunJob(spec).error, "");
    const BlockCache::Stats first = BlockCache::Global().stats();
    for (int repeat = 0; repeat < 2; ++repeat) {
      ASSERT_EQ(job::RunJob(spec).error, "");
    }
    const BlockCache::Stats later = BlockCache::Global().stats();
    EXPECT_EQ(later.maps, first.maps);
    EXPECT_GT(later.reuses, first.reuses);
    EXPECT_EQ(later.out_bytes, 0u);
  }
}

TEST(AlgorithmResult, TotalsAndAggregates) {
  AlgorithmResult result;
  result.partitions = {{Record{}, Record{}}, {Record{}}};
  NodeWork w;
  w.reduce_bytes = 7;
  result.work = {w, w, w};
  EXPECT_EQ(result.total_output_records(), 3u);
  EXPECT_EQ(result.total_work().reduce_bytes, 21u);
}

}  // namespace
}  // namespace cts
