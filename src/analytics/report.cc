#include "analytics/report.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace cts {

namespace {

// Max over nodes of a per-node cost.
template <typename Fn>
double MaxOverNodes(const std::vector<NodeWork>& work, Fn&& cost) {
  double mx = 0;
  for (const auto& w : work) mx = std::max(mx, cost(w));
  return mx;
}

simmpi::ChannelCounters TrafficFor(const AlgorithmResult& result,
                                   const std::string& stage) {
  const auto it = result.traffic.find(stage);
  return it == result.traffic.end() ? simmpi::ChannelCounters{}
                                    : it->second;
}

}  // namespace

double StageBreakdown::stage(const std::string& name) const {
  for (const auto& s : stages) {
    if (s.name == name) return s.seconds;
  }
  return 0;
}

double StageBreakdown::pack_or_encode() const {
  return stage(stage::kPack) + stage(stage::kEncode);
}

double StageBreakdown::unpack_or_decode() const {
  return stage(stage::kUnpack) + stage(stage::kDecode);
}

double StageBreakdown::shuffle() const { return stage(stage::kShuffle); }

RunScale PaperScale(std::uint64_t executed_records,
                    std::uint64_t reported_records) {
  CTS_CHECK_GT(executed_records, std::uint64_t{0});
  CTS_CHECK_GT(reported_records, std::uint64_t{0});
  return RunScale{static_cast<double>(executed_records) /
                  static_cast<double>(reported_records)};
}

// Declared in report.h; the header/padding rationale is documented
// there. The zero-padding residue is an artifact of per-value size
// *variance*, which shrinks as 1/sqrt(records-per-value).
ShuffleScaling ComputeShuffleScaling(const AlgorithmResult& result,
                                     const CostModel& model,
                                     const RunScale& scale) {
  const auto sh = TrafficFor(result, stage::kShuffle);
  ShuffleScaling s;
  s.correction = 1.0 / scale.fraction;
  if (sh.mcast_msgs > 0) {
    std::uint64_t payload = 0;
    std::uint64_t xor_bytes = 0;
    for (const auto& w : result.work) {
      payload += w.codec.encode_payload_bytes;
      xor_bytes += w.codec.encode_xor_bytes;
    }
    CTS_CHECK_LE(payload, sh.mcast_bytes);
    const double fanout = static_cast<double>(sh.mcast_recipient_bytes) /
                          static_cast<double>(sh.mcast_bytes);
    s.penalty = 1.0 + model.multicast_log_coeff * std::log2(fanout);
    const double ideal_payload =
        static_cast<double>(xor_bytes) / std::max(fanout, 1.0);
    const double residue =
        static_cast<double>(sh.mcast_bytes) -
        std::min(ideal_payload, static_cast<double>(sh.mcast_bytes));
    s.correction =
        (scale.bytes(static_cast<std::uint64_t>(ideal_payload)) + residue) /
        std::max(static_cast<double>(sh.mcast_bytes), 1.0);
  }
  return s;
}

namespace {

// Parallel-schedule shuffle pricing: every node's link runs
// concurrently, so the stage ends when the busiest link drains.
// `correction` maps raw measured bytes to paper-scale bytes; `penalty`
// is the multicast fan-out factor applied to transmissions only
// (receivers get plain copies).
double ParallelShuffleSeconds(const AlgorithmResult& result,
                              const CostModel& model, double correction,
                              double penalty, bool full_duplex) {
  double worst = 0;
  for (const auto& nt : result.shuffle_node_traffic) {
    const double tx = static_cast<double>(nt.tx_bytes) * correction *
                      penalty / model.effective_link_rate();
    const double rx = static_cast<double>(nt.rx_bytes) * correction /
                      model.effective_link_rate();
    worst = std::max(worst, full_duplex ? std::max(tx, rx) : tx + rx);
  }
  return worst;
}

}  // namespace

StageBreakdown SimulateRun(const AlgorithmResult& result,
                           const CostModel& model, const RunScale& scale,
                           simnet::Discipline discipline) {
  const int r = std::max(result.config.redundancy, 1);
  StageBreakdown out;
  out.algorithm = result.algorithm;

  const auto codegen = TrafficFor(result, stage::kCodeGen);
  out.stages.push_back(
      {stage::kCodeGen,
       model.codegen_seconds(codegen.comm_creations,
                             result.config.codegen_mode)});

  out.stages.push_back(
      {stage::kMap, MaxOverNodes(result.work, [&](const NodeWork& w) {
         return model.map_seconds(w, scale);
       })});
  out.stages.push_back(
      {stage::kPack, MaxOverNodes(result.work, [&](const NodeWork& w) {
         return model.pack_seconds(w, scale);
       })});
  out.stages.push_back(
      {stage::kEncode, MaxOverNodes(result.work, [&](const NodeWork& w) {
         return model.encode_seconds(w, scale);
       })});

  // Shuffle: unicast bytes scale with data; multicast wire bytes split
  // into payload (scales with data) and per-packet headers (packet
  // count is combinatorial in (K, r) and does NOT scale — at paper
  // scale headers are negligible, and pricing them scaled would
  // overcharge small executed runs by up to tens of percent).
  {
    const auto sh = TrafficFor(result, stage::kShuffle);
    const ShuffleScaling s = ComputeShuffleScaling(result, model, scale);

    double seconds = 0;
    switch (discipline) {
      case simnet::Discipline::kSerial:
        // The paper's discipline: one transmission at a time, so the
        // stage time is the sum over the shared medium.
        seconds = model.unicast_seconds(scale.bytes(sh.unicast_bytes)) +
                  static_cast<double>(sh.mcast_bytes) * s.correction *
                      s.penalty / model.effective_link_rate();
        break;
      case simnet::Discipline::kParallelFullDuplex:
      case simnet::Discipline::kParallelHalfDuplex:
        seconds = ParallelShuffleSeconds(
            result, model, s.correction, s.penalty,
            discipline == simnet::Discipline::kParallelFullDuplex);
        break;
    }
    out.stages.push_back({stage::kShuffle, seconds});
  }

  out.stages.push_back(
      {stage::kUnpack, MaxOverNodes(result.work, [&](const NodeWork& w) {
         return model.unpack_seconds(w, scale);
       })});
  out.stages.push_back(
      {stage::kDecode, MaxOverNodes(result.work, [&](const NodeWork& w) {
         return model.decode_seconds(w, scale);
       })});
  out.stages.push_back(
      {stage::kReduce, MaxOverNodes(result.work, [&](const NodeWork& w) {
         return model.reduce_seconds(w, scale, r);
       })});
  return out;
}

StageBreakdown MeasuredBreakdown(const AlgorithmResult& result) {
  StageBreakdown out;
  out.algorithm = result.algorithm;
  for (const std::string& name : result.stage_order) {
    const auto it = result.wall_seconds.find(name);
    out.stages.push_back(
        {name, it == result.wall_seconds.end() ? 0.0 : it->second});
  }
  return out;
}

TextTable BreakdownTable(const std::string& title,
                         const std::vector<StageBreakdown>& rows) {
  TextTable table(title);
  table.set_header({"Algorithm", "CodeGen", "Map", "Pack/Encode", "Shuffle",
                    "Unpack/Decode", "Reduce", "Wasted", "Total", "Speedup"});
  const double baseline = rows.empty() ? 0 : rows.front().total();
  for (const auto& b : rows) {
    const double total = b.total();
    std::string speedup = "-";
    if (&b != &rows.front() && total > 0) {
      speedup = TextTable::Num(baseline / total, 2) + "x";
    }
    table.add_row({
        b.algorithm,
        b.stage(stage::kCodeGen) == 0 ? "-"
                                      : TextTable::Num(b.stage(stage::kCodeGen)),
        TextTable::Num(b.stage(stage::kMap)),
        TextTable::Num(b.pack_or_encode()),
        TextTable::Num(b.shuffle()),
        TextTable::Num(b.unpack_or_decode()),
        TextTable::Num(b.stage(stage::kReduce)),
        b.wasted_seconds == 0 ? "-" : TextTable::Num(b.wasted_seconds),
        TextTable::Num(total),
        speedup,
    });
  }
  return table;
}

}  // namespace cts
