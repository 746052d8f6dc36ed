#include "bench/ctbench/layers.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "analytics/report.h"
#include "coding/codec.h"
#include "coding/placement.h"
#include "combinatorics/subsets.h"
#include "driver/cluster.h"
#include "driver/partition_util.h"
#include "job/matrix.h"
#include "job/parse.h"
#include "job/registry.h"
#include "keyvalue/recordio.h"
#include "keyvalue/teragen.h"
#include "keyvalue/teravalidate.h"
#include "mitigate/policy.h"
#include "simmpi/multicast_round.h"
#include "simulate/simulate.h"

namespace ctbench {

namespace {

using namespace cts;

double MBps(double bytes, double seconds) {
  return seconds > 0 ? bytes / 1e6 / seconds : 0;
}

// One input file a node maps: its record range and, for coded runs,
// the node subset that stores it (0 for TeraSort's file k on node k).
struct NodeFile {
  FileId id = 0;
  NodeMask mask = 0;
  RecordRange range;
};

// Serialized intermediate values one node holds, keyed by
// (target node, file).
using Serialized = std::map<std::pair<NodeId, FileId>, std::vector<std::uint8_t>>;

// The transport pass: every node moves its share of the live job's
// shuffle log — payloads of the recorded sizes — through Comm::send /
// Comm::recv (unicast logs) or simmpi::MulticastRound (coded logs).
// Returns the per-node [start, end) of the timed exchange.
std::vector<std::pair<double, double>> RunTransportPass(
    const SpanLog& clock, int num_nodes, const simnet::TransmissionLog& log,
    const std::vector<NodeMask>& groups, bool overlapped) {
  std::vector<std::pair<double, double>> busy(
      static_cast<std::size_t>(num_nodes));
  std::uint64_t largest = 0;
  for (const simnet::Transmission& t : log) largest = std::max(largest, t.bytes);
  const std::vector<std::uint8_t> payload(groups.empty() ? largest : 0);
  simmpi::World world(num_nodes);
  RunRecorder recorder(num_nodes);
  RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder&) {
    const NodeId self = comm.my_global();
    std::map<NodeMask, simmpi::Comm> group_comms;
    std::map<NodeMask, Buffer> outgoing;
    if (!groups.empty()) {
      group_comms = comm.create_groups(groups);
      for (const simnet::Transmission& t : log) {
        if (t.src != self) continue;
        outgoing.emplace(WithNode(NodesToMask(t.dsts), t.src),
                         Buffer(std::vector<std::uint8_t>(t.bytes)));
      }
    }
    comm.barrier();
    const double start = clock.Now();
    if (!groups.empty()) {
      for (auto& [key, wire] :
           simmpi::MulticastRound(group_comms, outgoing, overlapped)) {
        BufferArena::Local().release(wire.take());
      }
    } else {
      for (const simnet::Transmission& t : log) {
        if (t.src == self) {
          comm.send(t.dsts.front(), 0,
                    std::span<const std::uint8_t>(payload.data(), t.bytes));
        } else if (t.dsts.front() == self) {
          BufferArena::Local().release(comm.recv(t.src, 0).take());
        }
      }
    }
    busy[static_cast<std::size_t>(self)] = {start, clock.Now()};
  });
  return busy;
}

}  // namespace

std::map<std::string, double> SpanLog::TotalSeconds() const {
  std::map<std::string, double> out;
  for (const Record& s : spans_) out[s.name] += s.end - s.start;
  return out;
}

std::map<std::string, double> SpanLog::SelfSeconds() const {
  // Per track, in (start asc, duration desc) order the innermost open
  // span containing a span is its parent.
  std::map<int, std::vector<const Record*>> tracks;
  for (const Record& s : spans_) tracks[s.tid].push_back(&s);
  std::map<std::string, double> out;
  for (auto& [tid, track] : tracks) {
    std::stable_sort(track.begin(), track.end(),
                     [](const Record* a, const Record* b) {
                       if (a->start != b->start) return a->start < b->start;
                       return a->end - a->start > b->end - b->start;
                     });
    std::vector<const Record*> open;
    for (const Record* s : track) {
      while (!open.empty() && s->start >= open.back()->end) open.pop_back();
      out[s->name] += s->end - s->start;
      if (!open.empty()) out[open.back()->name] -= s->end - s->start;
      open.push_back(s);
    }
  }
  return out;
}

void SpanLog::AppendTo(obs::Trace& trace, int pid) const {
  for (const Record& s : spans_) {
    trace.add_complete(pid, s.tid, s.name, "layer", s.start, s.end);
  }
}

LayerPass RunLivePass(const std::string& algorithm, const SortConfig& config,
                      const simnet::TransmissionLog& shuffle_log) {
  LayerPass pass;
  SpanLog& log = pass.spans;
  const int K = config.num_nodes;
  const bool coded = algorithm == "coded";
  const int bench_tid = K;
  const TeraGen gen(config.seed, config.distribution);
  const std::unique_ptr<Partitioner> partitioner = MakePartitioner(config);

  std::optional<Placement> placement;
  std::vector<NodeMask> groups;
  if (coded) {
    const auto stage = log.Span(bench_tid, stage::kCodeGen);
    const auto span = log.Span(bench_tid, "Placement::Create");
    placement.emplace(Placement::Create(K, config.redundancy));
    groups = placement->multicast_groups();
  }
  const auto files_of = [&](NodeId k) {
    std::vector<NodeFile> files;
    if (!coded) {
      files.push_back({0, 0, SplitRange(config.num_records,
                                        static_cast<std::uint64_t>(K),
                                        static_cast<std::uint64_t>(k))});
      return files;
    }
    const auto ranges = placement->SplitRecords(config.num_records);
    for (const FileId f : placement->files_on_node(k)) {
      const auto fi = static_cast<std::size_t>(f);
      files.push_back({f, placement->file_nodes(f),
                       {ranges.offset[fi], ranges.count[fi]}});
    }
    return files;
  };

  double gen_bytes = 0, partition_bytes = 0, pack_bytes = 0;
  double unpack_bytes = 0, sort_bytes = 0, merge_bytes = 0;
  CodecStats codec;
  std::vector<std::vector<Record>> pool(static_cast<std::size_t>(K));
  std::vector<std::map<std::pair<NodeId, FileId>, std::vector<Record>>> kept(
      static_cast<std::size_t>(K));
  std::vector<Serialized> serialized(static_cast<std::size_t>(K));
  std::map<std::pair<NodeMask, NodeId>, Buffer> wires;
  const auto iv_access = [&](NodeId k) -> IvAccess {
    return [&, k](NodeId target, NodeMask file) {
      return std::span<const std::uint8_t>(
          serialized[static_cast<std::size_t>(k)].at(
              {target, placement->file_of(file)}));
    };
  };

  // ---- Map: generate and hash every file the node stores ----
  for (NodeId k = 0; k < K; ++k) {
    const auto stage = log.Span(k, stage::kMap);
    for (const NodeFile& file : files_of(k)) {
      const std::vector<Record> records = [&] {
        const auto span = log.Span(k, "TeraGen::generate");
        return gen.generate(file.range.offset, file.range.count);
      }();
      gen_bytes += static_cast<double>(records.size() * kRecordBytes);
      std::vector<std::vector<Record>> hashed(static_cast<std::size_t>(K));
      {
        const auto span = log.Span(k, "Partitioner::partition");
        for (const Record& rec : records) {
          hashed[static_cast<std::size_t>(partitioner->partition(rec.key))]
              .push_back(rec);
        }
      }
      partition_bytes += static_cast<double>(records.size() * kRecordBytes);
      for (NodeId t = 0; t < K; ++t) {
        auto& bucket = hashed[static_cast<std::size_t>(t)];
        if (t == k) {
          auto& own = pool[static_cast<std::size_t>(k)];
          own.insert(own.end(), bucket.begin(), bucket.end());
        } else if (!coded || !Contains(file.mask, t)) {
          kept[static_cast<std::size_t>(k)][{t, file.id}] = std::move(bucket);
        }
      }
    }
  }

  // ---- Pack (TeraSort) / Encode (CodedTeraSort) ----
  for (NodeId k = 0; k < K; ++k) {
    const auto stage = log.Span(k, coded ? stage::kEncode : stage::kPack);
    for (auto& [key, records] : kept[static_cast<std::size_t>(k)]) {
      Buffer buf;
      {
        const auto span = log.Span(k, "PackRecords");
        PackRecords(records, buf);
      }
      pack_bytes += static_cast<double>(buf.size());
      serialized[static_cast<std::size_t>(k)].emplace(key, buf.take());
    }
    kept[static_cast<std::size_t>(k)].clear();
    if (!coded) continue;
    const IvAccess iv = iv_access(k);
    for (const NodeMask g : placement->groups_of_node(k)) {
      CodedPacket packet;
      {
        const auto span = log.Span(k, "EncodePacket");
        packet = EncodePacket(g, k, iv, &codec);
      }
      Buffer wire;
      {
        const auto span = log.Span(k, "CodedPacket::serialize");
        packet.serialize(wire);
      }
      wires.emplace(std::pair{g, k}, std::move(wire));
    }
  }

  // ---- Shuffle: the transport pass on K node threads ----
  double delivered = 0;
  for (const simnet::Transmission& t : shuffle_log) {
    delivered += static_cast<double>(t.bytes * t.dsts.size());
  }
  if (!shuffle_log.empty()) {
    const auto busy = RunTransportPass(
        log, K, shuffle_log, groups,
        config.shuffle_sync == ShuffleSync::kOverlapped);
    double first = busy.front().first, last = busy.front().second;
    for (NodeId k = 0; k < K; ++k) {
      const auto [start, end] = busy[static_cast<std::size_t>(k)];
      log.Add(k, stage::kShuffle, start, end);
      log.Add(k, coded ? "simmpi::MulticastRound" : "Comm::send/recv", start,
              end);
      first = std::min(first, start);
      last = std::max(last, end);
    }
    pass.metrics["simmpi.deliver_MBps"] = MBps(delivered, last - first);
  }

  // ---- Unpack (TeraSort) / Decode (CodedTeraSort) ----
  for (NodeId k = 0; k < K; ++k) {
    auto& own = pool[static_cast<std::size_t>(k)];
    const auto stage = log.Span(k, coded ? stage::kDecode : stage::kUnpack);
    if (!coded) {
      for (NodeId sender = 0; sender < K; ++sender) {
        if (sender == k) continue;
        Buffer payload(std::move(
            serialized[static_cast<std::size_t>(sender)].at({k, 0})));
        unpack_bytes += static_cast<double>(payload.size());
        const auto span = log.Span(k, "UnpackRecordsInto");
        UnpackRecordsInto(payload, own);
      }
      continue;
    }
    const IvAccess iv = iv_access(k);
    for (const NodeMask g : placement->groups_of_node(k)) {
      std::vector<DecodedSegment> segments;
      for (const NodeId sender : MaskToNodes(WithoutNode(g, k))) {
        Buffer& wire = wires.at({g, sender});
        wire.rewind();
        CodedPacket packet;
        {
          const auto span = log.Span(k, "CodedPacket::deserialize");
          packet = CodedPacket::deserialize(wire);
        }
        const auto span = log.Span(k, "DecodePacket");
        segments.push_back(DecodePacket(g, k, sender, packet, iv, &codec));
      }
      std::vector<std::uint8_t> value;
      {
        const auto span = log.Span(k, "MergeSegments");
        value = MergeSegments(segments);
      }
      merge_bytes += static_cast<double>(value.size());
      unpack_bytes += static_cast<double>(value.size());
      Buffer value_buf(std::move(value));
      const auto span = log.Span(k, "UnpackRecordsInto");
      UnpackRecordsInto(value_buf, own);
    }
  }

  // ---- Reduce ----
  for (NodeId k = 0; k < K; ++k) {
    auto& own = pool[static_cast<std::size_t>(k)];
    const auto stage = log.Span(k, stage::kReduce);
    const auto span = log.Span(k, "std::sort");
    std::sort(own.begin(), own.end(), RecordLess);
    sort_bytes += static_cast<double>(own.size() * kRecordBytes);
  }

  {
    const auto stage = log.Span(bench_tid, "Validate");
    RecordChecksum expected;
    {
      const auto span = log.Span(bench_tid, "ChecksumOfInput");
      expected = ChecksumOfInput(gen, config.num_records);
    }
    const auto span = log.Span(bench_tid, "ValidatePartitions");
    const ValidationReport report = ValidatePartitions(pool, expected);
    if (!report.valid) pass.error = "layer pass output: " + report.error;
  }

  const std::map<std::string, double> total = log.TotalSeconds();
  const auto seconds = [&](const char* name) {
    const auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  };
  pass.metrics["keyvalue.gen_MBps"] =
      MBps(gen_bytes, seconds("TeraGen::generate"));
  pass.metrics["keyvalue.partition_MBps"] =
      MBps(partition_bytes, seconds("Partitioner::partition"));
  pass.metrics["keyvalue.pack_MBps"] = MBps(pack_bytes, seconds("PackRecords"));
  pass.metrics["keyvalue.unpack_MBps"] =
      MBps(unpack_bytes, seconds("UnpackRecordsInto"));
  pass.metrics["keyvalue.sort_MBps"] = MBps(sort_bytes, seconds("std::sort"));
  if (coded) {
    pass.metrics["coding.encode_MBps"] =
        MBps(static_cast<double>(codec.encode_xor_bytes), seconds("EncodePacket"));
    pass.metrics["coding.decode_MBps"] =
        MBps(static_cast<double>(codec.decode_xor_bytes), seconds("DecodePacket"));
    pass.metrics["coding.merge_MBps"] =
        MBps(merge_bytes, seconds("MergeSegments"));
  }
  for (const char* name : {stage::kCodeGen, stage::kMap, stage::kPack,
                           stage::kEncode, stage::kShuffle, stage::kDecode,
                           stage::kUnpack, stage::kReduce}) {
    if (seconds(name) > 0) pass.stage_seconds[name] = seconds(name);
  }
  return pass;
}

LayerPass RunPlanPass(const plan::PlanAxes& axes, job::RunCache& cache) {
  LayerPass pass;
  SpanLog& log = pass.spans;
  const int tid = 0;
  // The planner's grid at one K and one instance: the same algorithm
  // axis, scenario set and policy set RunPlan expands.
  job::JobMatrix matrix;
  matrix.backend = job::Backend::kReplay;
  matrix.paper_records = axes.paper_records;
  matrix.pricing = axes.cost;
  std::string error;
  for (const int K : axes.node_counts) {
    for (const std::string& algorithm : axes.algorithms) {
      const job::AlgorithmInfo* info = job::Find(algorithm);
      const bool honors_r =
          info != nullptr && std::find(info->knobs.begin(), info->knobs.end(),
                                       "redundancy") != info->knobs.end();
      for (const int r : honors_r ? axes.redundancies : std::vector<int>{1}) {
        job::AlgoAxis axis;
        axis.label = algorithm + (honors_r ? "_r" + std::to_string(r) : "");
        axis.algorithm = algorithm;
        axis.config.num_nodes = K;
        axis.config.redundancy = r;
        axis.config.num_records = axes.records;
        axis.config.seed = axes.seed;
        matrix.algos.push_back(std::move(axis));
      }
    }
    const auto discipline = job::ParseDiscipline(axes.discipline, &error);
    const auto order = job::ParseOrder(axes.order, &error);
    for (const std::string& topo : axes.topologies) {
      for (const std::string& straggler : axes.stragglers) {
        const auto topology = job::ParseTopology(topo, K, &error);
        const auto model = job::ParseStraggler(straggler, K, &error);
        if (!topology || !model || !discipline || !order) {
          pass.error = "plan grid: " + error;
          return pass;
        }
        job::ScenarioAxis axis;
        axis.label = (topo.empty() ? "flat" : topo) + "|" + straggler;
        axis.scenario = simscen::Scenario::Baseline(K);
        axis.scenario.topology = *topology;
        axis.scenario.cluster.straggler = *model;
        axis.scenario.discipline = *discipline;
        axis.scenario.order = *order;
        matrix.scenarios.push_back(std::move(axis));
      }
    }
  }
  for (const std::string& spec : axes.policies) {
    const auto policy = mitigate::ParsePolicy(spec);
    if (!policy) {
      pass.error = "plan grid: unknown policy '" + spec + "'";
      return pass;
    }
    matrix.policies.push_back({spec, *policy});
  }

  int matrix_cells = 0;
  {
    const auto span = log.Span(tid, "job::RunMatrix");
    const job::MatrixResults results = job::RunMatrix(matrix, cache);
    matrix_cells = results.replays();
    if (results.executions() != 0) {
      pass.error = "plan layer pass executed " +
                   std::to_string(results.executions()) +
                   " live runs on a warm cache";
    }
  }
  int replays = 0;
  for (const job::AlgoAxis& algo : matrix.algos) {
    std::shared_ptr<const simscen::ScenarioRun> run;
    {
      const auto span = log.Span(tid, "RunCache::GetScenarioRun");
      run = cache.GetScenarioRun(algo.algorithm, algo.config,
                                 axes.paper_records, /*from_events=*/false);
    }
    for (const job::ScenarioAxis& scenario_axis : matrix.scenarios) {
      for (const job::PolicyAxis& policy : matrix.policies) {
        simscen::Scenario scenario = scenario_axis.scenario;
        scenario.mitigation = policy.policy;
        const auto span = log.Span(tid, "simscen::ReplayScenario");
        (void)simscen::ReplayScenario(*run, scenario);
        ++replays;
      }
    }
  }
  const std::map<std::string, double> total = log.TotalSeconds();
  pass.metrics["job.cell_us"] =
      matrix_cells > 0 ? total.at("job::RunMatrix") / matrix_cells * 1e6 : 0;
  pass.metrics["simscen.replay_us"] =
      replays > 0 ? total.at("simscen::ReplayScenario") / replays * 1e6 : 0;
  return pass;
}

LayerPass RunSimulatedPass(const job::JobSpec& spec, int reps) {
  LayerPass pass;
  SpanLog& log = pass.spans;
  const RunScale scale = PaperScale(
      spec.config.num_records,
      spec.paper_records == 0 ? spec.config.num_records : spec.paper_records);
  for (int i = 0; i < reps; ++i) {
    simulate::SynthesisResult synth;
    {
      const auto span = log.Span(0, "simulate::SynthesizeRun");
      synth = simulate::SynthesizeRun(spec.algorithm, spec.config);
    }
    if (!synth.ok()) {
      pass.error = "synthesis failed: " + synth.error;
      return pass;
    }
    const auto span = log.Span(0, "analytics::SimulateRun");
    (void)SimulateRun(*synth.run, CostModel{}, scale, spec.schedule);
  }
  const std::map<std::string, double> total = log.TotalSeconds();
  pass.metrics["simulate.synthesize_s"] =
      total.at("simulate::SynthesizeRun") / reps;
  pass.metrics["analytics.price_s"] = total.at("analytics::SimulateRun") / reps;
  return pass;
}

}  // namespace ctbench
