// Microbenchmarks (google-benchmark) for the primitive operations the
// cost model prices: hashing, serialization, sorting, the XOR codec,
// subset combinatorics and the transport, plus the run synthesizer,
// the scenario DES and one planner cell (Job API replay).
// These measure *this* host; the table benches use the EC2-calibrated
// constants instead.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <thread>

#include "coding/codec.h"
#include "coding/placement.h"
#include "combinatorics/subsets.h"
#include "common/random.h"
#include "driver/partition_util.h"
#include "job/job.h"
#include "keyvalue/partitioner.h"
#include "keyvalue/recordio.h"
#include "keyvalue/teragen.h"
#include "mitigate/policy.h"
#include "simmpi/comm.h"
#include "simmpi/world.h"
#include "simscen/engine.h"
#include "simulate/simulate.h"

namespace cts {
namespace {

void BM_TeraGen(benchmark::State& state) {
  const TeraGen gen(42);
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(0, n));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * kRecordBytes));
}
BENCHMARK(BM_TeraGen)->Arg(1000)->Arg(100000);

// The in-place writer both Maps generate with: n records straight
// into one packed buffer, as into an intermediate value's slots.
void BM_TeraGenInto(benchmark::State& state) {
  const TeraGen gen(42);
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::vector<std::uint8_t> out(n * kRecordBytes);
  for (auto _ : state) {
    std::uint8_t* at = out.data();
    for (std::uint64_t i = 0; i < n; ++i, at += kRecordBytes) {
      gen.record_into(i, at);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * kRecordBytes));
}
BENCHMARK(BM_TeraGenInto)->Arg(100000);

// Key-only generation: what the synthesizer and the sampled
// partitioners pay per record.
void BM_TeraGenKey(benchmark::State& state) {
  const TeraGen gen(42);
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(gen.key(i));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TeraGenKey)->Arg(100000);

void BM_HashPartition(benchmark::State& state) {
  const TeraGen gen(42);
  const auto records = gen.generate(0, 100000);
  const RangePartitioner part(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::vector<std::vector<Record>> buckets(
        static_cast<std::size_t>(part.num_partitions()));
    for (const Record& rec : records) {
      buckets[static_cast<std::size_t>(part.partition(rec.key))].push_back(
          rec);
    }
    benchmark::DoNotOptimize(buckets);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size() *
                                                    kRecordBytes));
}
BENCHMARK(BM_HashPartition)->Arg(16)->Arg(20);

void BM_PackRecords(benchmark::State& state) {
  const TeraGen gen(42);
  const auto records = gen.generate(0, 100000);
  for (auto _ : state) {
    Buffer out;
    out.reserve(PackedSize(records.size()));
    PackRecords(records, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size() *
                                                    kRecordBytes));
}
BENCHMARK(BM_PackRecords);

void BM_UnpackRecords(benchmark::State& state) {
  const TeraGen gen(42);
  const auto records = gen.generate(0, 100000);
  Buffer packed;
  PackRecords(records, packed);
  for (auto _ : state) {
    packed.rewind();
    benchmark::DoNotOptimize(UnpackRecords(packed));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size() *
                                                    kRecordBytes));
}
BENCHMARK(BM_UnpackRecords);

// The Reduce sort the engines run, on 100 k records whose keys are
// drawn from the KeyDistribution given as the argument: uniform (0)
// or skewed (3, long shared key prefixes). Refilling the input is not
// timed.
void BM_SortRecords(benchmark::State& state) {
  const TeraGen gen(42, static_cast<KeyDistribution>(state.range(0)));
  const auto records = gen.generate(0, 100000);
  std::vector<Record> work(records.size());
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(records.begin(), records.end(), work.begin());
    state.ResumeTiming();
    SortRecords(work);
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size() *
                                                    kRecordBytes));
}
BENCHMARK(BM_SortRecords)
    ->Arg(static_cast<int>(KeyDistribution::kUniform))
    ->Arg(static_cast<int>(KeyDistribution::kSkewed));

// Synthetic IV store sized like one multicast group's constituents.
struct CodecFixture {
  CodecFixture(int r, std::size_t iv_bytes) {
    group = FirstSubset(r + 1);
    Xoshiro256 rng(7);
    for (const NodeId t : MaskToNodes(group)) {
      const NodeMask file = WithoutNode(group, t);
      std::vector<std::uint8_t> bytes(iv_bytes);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
      store[{t, file}] = std::move(bytes);
    }
  }
  IvAccess access() const {
    return [this](NodeId t, NodeMask file) -> std::span<const std::uint8_t> {
      return store.at({t, file});
    };
  }
  NodeMask group;
  std::map<std::pair<NodeId, NodeMask>, std::vector<std::uint8_t>> store;
};

void BM_EncodePacket(benchmark::State& state) {
  const int r = static_cast<int>(state.range(0));
  const auto iv_bytes = static_cast<std::size_t>(state.range(1));
  const CodecFixture fx(r, iv_bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodePacket(fx.group, 0, fx.access()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(iv_bytes));
}
BENCHMARK(BM_EncodePacket)->Args({3, 1 << 16})->Args({5, 1 << 16});

void BM_DecodePacket(benchmark::State& state) {
  const int r = static_cast<int>(state.range(0));
  const auto iv_bytes = static_cast<std::size_t>(state.range(1));
  const CodecFixture fx(r, iv_bytes);
  const CodedPacket packet = EncodePacket(fx.group, 0, fx.access());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DecodePacket(fx.group, 1, 0, packet, fx.access()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(iv_bytes));
}
BENCHMARK(BM_DecodePacket)->Args({3, 1 << 16})->Args({5, 1 << 16});

// The kernels the live engine runs: EncodeInto appends the packet to a
// fresh exact-size wire buffer; DecodeInto reads it in place and
// cancels straight into the wanted value.
void BM_EncodeInto(benchmark::State& state) {
  const int r = static_cast<int>(state.range(0));
  const auto iv_bytes = static_cast<std::size_t>(state.range(1));
  const CodecFixture fx(r, iv_bytes);
  const IvAccess iv = fx.access();
  for (auto _ : state) {
    Buffer wire;
    EncodeInto(fx.group, 0, iv, wire);
    benchmark::DoNotOptimize(wire.span().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(iv_bytes));
}
BENCHMARK(BM_EncodeInto)->Args({3, 1 << 16})->Args({5, 1 << 16});

void BM_DecodeInto(benchmark::State& state) {
  const int r = static_cast<int>(state.range(0));
  const auto iv_bytes = static_cast<std::size_t>(state.range(1));
  const CodecFixture fx(r, iv_bytes);
  const IvAccess iv = fx.access();
  Buffer wire;
  EncodeInto(fx.group, 0, iv, wire);
  const PacketView packet = ParsePacket(wire.span());
  std::vector<std::uint8_t> value(iv_bytes);
  for (auto _ : state) {
    DecodeInto(fx.group, 1, 0, packet, iv, ValueWindow{0, {}, value});
    benchmark::DoNotOptimize(value.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(iv_bytes));
}
BENCHMARK(BM_DecodeInto)->Args({3, 1 << 16})->Args({5, 1 << 16});

void BM_SubsetEnumeration(benchmark::State& state) {
  const int K = static_cast<int>(state.range(0));
  const int r = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AllSubsets(K, r));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(Binomial(K, r)));
}
BENCHMARK(BM_SubsetEnumeration)->Args({16, 4})->Args({20, 6});

void BM_PlacementCreate(benchmark::State& state) {
  const int K = static_cast<int>(state.range(0));
  const int r = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Placement::Create(K, r));
  }
}
BENCHMARK(BM_PlacementCreate)->Args({16, 3})->Args({20, 5});

// One Backend::kSimulated coded synthesis of 20 k records: the
// table-driven group ranks, the per-file contribution stream and the
// per-dirty-group corrections.
void BM_SynthesizeCoded(benchmark::State& state) {
  SortConfig config;
  config.num_nodes = static_cast<int>(state.range(0));
  config.redundancy = static_cast<int>(state.range(1));
  config.num_records = 20000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate::SynthesizeRun("coded", config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(config.num_records));
}
BENCHMARK(BM_SynthesizeCoded)->Args({1000, 3})->Unit(benchmark::kMillisecond);

// One scenario replay of a fixed 4-node full-duplex shuffle (every
// node unicasts 1 MB to every other, then one 3-way multicast each)
// with node 1 failing mid-shuffle: the flow DES with its outage
// re-queue, without (Arg 0) and with (Arg 1) the flight-recorder
// probe sampling into a timeline.
void BM_ReplayScenario(benchmark::State& state) {
  simscen::ScenarioRun run;
  run.algorithm = "micro";
  run.num_nodes = 4;
  run.stages.push_back(
      {"Map", simscen::StageKind::kCompute, {1.0, 1.0, 1.0, 1.0}});
  run.stages.push_back({"Shuffle", simscen::StageKind::kNetwork, {}});
  for (NodeId src = 0; src < 4; ++src) {
    for (NodeId dst = 0; dst < 4; ++dst) {
      if (dst != src) run.shuffle_log.push_back({src, {dst}, 1 << 20});
    }
  }
  for (NodeId src = 0; src < 4; ++src) {
    run.shuffle_log.push_back(
        {src, {(src + 1) % 4, (src + 2) % 4, (src + 3) % 4}, 1 << 19});
  }
  simscen::Scenario scenario = simscen::Scenario::Baseline(4);
  scenario.discipline = simnet::Discipline::kParallelFullDuplex;
  scenario.cluster.straggler.kind = simscen::StragglerKind::kFailStop;
  scenario.cluster.straggler.node = 1;
  scenario.cluster.straggler.fail_at = 1.1;
  scenario.cluster.straggler.recovery = 0.1;
  const bool timeline = state.range(0) != 0;
  for (auto _ : state) {
    obs::Timeline tl;
    benchmark::DoNotOptimize(
        simscen::ReplayScenario(run, scenario, timeline ? &tl : nullptr));
    benchmark::DoNotOptimize(tl);
  }
}
BENCHMARK(BM_ReplayScenario)->Arg(0)->Arg(1);

// One planner cell: RunJob kReplay of coded K = 4, r = 2 off a warm
// RunCache, full duplex with node 1 failing mid-shuffle under the
// speculative policy. Everything a JobMatrix cell pays besides the
// replay shows up here — the run lookup, the result assembly and,
// with Arg 1, the flight recorder (the live series plus the DES
// probe); Arg 0 passes no timeline. Arg 2 is the outage-free cell a
// sweep mostly prices: node 1 runs 3x slower instead of failing, and
// the cache's network memo, warmed before timing, serves its Shuffle
// without the flow DES.
void BM_ReplayJob(benchmark::State& state) {
  job::JobSpec spec;
  spec.algorithm = "coded";
  spec.config.num_nodes = 4;
  spec.config.redundancy = 2;
  spec.config.num_records = 20000;
  spec.backend = job::Backend::kReplay;
  job::RunCache cache;
  const auto run = cache.GetScenarioRun(spec.algorithm, spec.config,
                                        /*paper_records=*/0,
                                        /*from_events=*/false);
  simscen::Scenario scenario = simscen::Scenario::Baseline(4);
  scenario.discipline = simnet::Discipline::kParallelFullDuplex;
  const simscen::ScenarioOutcome baseline =
      simscen::ReplayScenario(*run, scenario);
  const auto shuffle = std::find_if(
      baseline.spans.begin(), baseline.spans.end(),
      [](const simscen::StageSpan& s) { return s.name == stage::kShuffle; });
  if (shuffle == baseline.spans.end()) {
    state.SkipWithError("the coded replay has no Shuffle stage");
    return;
  }
  const bool memoized = state.range(0) == 2;
  simscen::StragglerModel& straggler = scenario.cluster.straggler;
  straggler.node = 1;
  if (memoized) {
    straggler.kind = simscen::StragglerKind::kSlowNode;
    straggler.slowdown = 3.0;
  } else {
    straggler.kind = simscen::StragglerKind::kFailStop;
    straggler.fail_at = shuffle->start + 0.25 * shuffle->seconds();
    straggler.recovery = 0.25 * shuffle->seconds();
  }
  scenario.mitigation = mitigate::MitigationPolicy::Speculative();
  spec.scenario = scenario;
  if (memoized) (void)job::RunJob(spec, cache);  // fills the memo
  const bool timeline = state.range(0) == 1;
  for (auto _ : state) {
    obs::Timeline tl;
    benchmark::DoNotOptimize(
        job::RunJob(spec, cache, timeline ? &tl : nullptr));
    benchmark::DoNotOptimize(tl);
  }
}
BENCHMARK(BM_ReplayJob)->Arg(0)->Arg(1)->Arg(2);

void BM_TransportPingPong(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  simmpi::World world(2);
  std::atomic<bool> stop{false};
  std::thread echo([&] {
    simmpi::Comm comm = simmpi::Comm::World(world, 1);
    while (true) {
      Buffer b = comm.recv(0, 0);
      if (b.size() == 0) break;  // empty payload = shutdown
      comm.send(0, 1, b);
    }
  });
  {
    simmpi::Comm comm = simmpi::Comm::World(world, 0);
    Buffer payload;
    payload.resize(bytes);
    for (auto _ : state) {
      comm.send(1, 0, payload);
      benchmark::DoNotOptimize(comm.recv(1, 1));
    }
    Buffer empty;
    comm.send(1, 0, empty);
  }
  stop = true;
  echo.join();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * bytes));
}
BENCHMARK(BM_TransportPingPong)->Arg(100)->Arg(1 << 16);

}  // namespace
}  // namespace cts

BENCHMARK_MAIN();
