// Tests for the analytics layer: load formulas, time model (paper
// eqs. 3-5), cost model calibration against the paper's tables, and
// report assembly.
#include <gtest/gtest.h>

#include "analytics/cost_model.h"
#include "analytics/loads.h"
#include "analytics/report.h"
#include "analytics/time_model.h"

namespace cts {
namespace {

// Paper Table I: 12 GB, K=16, 100 Mbps.
const MapReduceTimes kTable1{.map = 1.86, .shuffle = 945.72, .reduce = 10.47};

TEST(Loads, Formulas) {
  EXPECT_DOUBLE_EQ(TeraSortLoad(4), 0.75);
  EXPECT_DOUBLE_EQ(UncodedLoad(4, 2), 0.5);
  EXPECT_DOUBLE_EQ(CodedLoad(4, 2), 0.25);
}

TEST(Loads, Fig1ExampleCounts) {
  // Paper Fig. 1: Q = 3 functions, N = 6 files, K = 3 nodes.
  // Uncoded (r=1): each node needs 4 values -> total 12 = Q*N*(1-1/K).
  // Redundant uncoded (r=2): 6 = Q*N*(1-2/3).
  // Coded (r=2): 3 = Q*N*(1/2)(1-2/3).
  const double QN = 3 * 6;
  EXPECT_DOUBLE_EQ(QN * UncodedLoad(3, 1), 12.0);
  EXPECT_DOUBLE_EQ(QN * UncodedLoad(3, 2), 6.0);
  EXPECT_DOUBLE_EQ(QN * CodedLoad(3, 2), 3.0);
}

TEST(Loads, CodedIsRTimesSmallerThanUncoded) {
  for (int K : {5, 10, 16, 20}) {
    for (int r = 1; r <= K; ++r) {
      EXPECT_NEAR(UncodedLoad(K, r),
                  CodedLoad(K, r) * static_cast<double>(r), 1e-12);
    }
  }
}

TEST(Loads, MonotoneDecreasingInR) {
  for (int r = 1; r < 16; ++r) {
    EXPECT_GT(CodedLoad(16, r), CodedLoad(16, r + 1));
    EXPECT_GT(UncodedLoad(16, r), UncodedLoad(16, r + 1));
  }
  EXPECT_DOUBLE_EQ(CodedLoad(16, 16), 0.0);
}

TEST(TimeModel, PaperSection3BAnalysis) {
  // "98.4% of the total execution time was spent in data shuffling,
  // which is 508.5x of the time spent in the Map stage."
  EXPECT_NEAR(kTable1.shuffle / kTable1.map, 508.5, 0.5);
  // "r* = ceil(sqrt(Tshuffle/Tmap)) = 23"
  EXPECT_EQ(static_cast<int>(std::ceil(std::sqrt(kTable1.shuffle /
                                                 kTable1.map))),
            23);
  // "we could theoretically save the total execution time by
  // approximately 10x" (with K large enough to allow r = 23).
  const double promised =
      kTable1.total() / PredictOptimalCodedTotal(kTable1);
  EXPECT_GT(promised, 9.0);
  EXPECT_LT(promised, 11.0);
}

TEST(TimeModel, OptimalRedundancyPicksBetterNeighbor) {
  const MapReduceTimes t{.map = 10, .shuffle = 160, .reduce = 5};
  // sqrt(16) = 4 exactly.
  EXPECT_EQ(OptimalRedundancy(t, 16), 4);
  // Clamped by K.
  EXPECT_EQ(OptimalRedundancy(t, 2), 2);
  // Free map work -> max redundancy.
  EXPECT_EQ(OptimalRedundancy({.map = 0, .shuffle = 100, .reduce = 1}, 8), 8);
}

TEST(TimeModel, PredictedTotalMatchesEq4) {
  const MapReduceTimes t{.map = 2, .shuffle = 100, .reduce = 7};
  EXPECT_DOUBLE_EQ(PredictCodedTotal(t, 5), 5 * 2 + 100.0 / 5 + 7);
  EXPECT_DOUBLE_EQ(PredictSpeedup(t, 5), 109.0 / 37.0);
}

TEST(TimeModel, Eq5IsLowerEnvelopeOfEq4) {
  const MapReduceTimes t{.map = 3, .shuffle = 300, .reduce = 4};
  const double best = PredictOptimalCodedTotal(t);
  for (int r = 1; r <= 30; ++r) {
    EXPECT_GE(PredictCodedTotal(t, r) + 1e-9, best);
  }
}

// ---- Cost model calibration: reproduce Table I from first
// principles (counters computed analytically, not measured) ----

TEST(CostModel, TableOneShuffleFromFirstPrinciples) {
  const CostModel model;
  // 12 GB over K=16: each node unicasts (15/16)*750 MB; serial total
  // is 11.25 GB.
  const double bytes = 12e9 * (15.0 / 16.0);
  const double t = model.unicast_seconds(bytes);
  EXPECT_NEAR(t, 945.72, 950 * 0.02);  // within 2%
}

TEST(CostModel, TableOneMapFromFirstPrinciples) {
  const CostModel model;
  NodeWork w;
  w.map_bytes = 750'000'000;  // per node
  w.map_files = 1;
  EXPECT_NEAR(model.map_seconds(w, RunScale{1.0}), 1.86, 0.05);
}

TEST(CostModel, TableOneReduceFromFirstPrinciples) {
  const CostModel model;
  NodeWork w;
  w.reduce_bytes = 750'000'000;
  EXPECT_NEAR(model.reduce_seconds(w, RunScale{1.0}, /*r=*/1), 10.47, 0.1);
}

TEST(CostModel, CodeGenMatchesTableGroups) {
  const CostModel model;
  // K=16: r=3 -> 1820 groups ~ 6.06 s; r=5 -> 8008 ~ 23.47 s.
  EXPECT_NEAR(model.codegen_seconds(1820), 6.06, 1.5);
  EXPECT_NEAR(model.codegen_seconds(8008), 23.47, 6.0);
  // K=20: r=5 -> 38760 ~ 140.91 s.
  EXPECT_NEAR(model.codegen_seconds(38760), 140.91, 20.0);
}

TEST(CostModel, MulticastPenaltyGrowsLogarithmically) {
  const CostModel model;
  const double base = model.unicast_seconds(1e9);
  EXPECT_DOUBLE_EQ(model.multicast_seconds(1e9, 1.0), base);
  const double at3 = model.multicast_seconds(1e9, 3.0);
  const double at5 = model.multicast_seconds(1e9, 5.0);
  const double at9 = model.multicast_seconds(1e9, 9.0);
  EXPECT_GT(at3, base);
  EXPECT_GT(at5, at3);
  // Logarithmic: tripling the fan-out (1 -> 3 -> 9) adds the same
  // penalty both times.
  EXPECT_NEAR(at9 - at3, at3 - base, base * 1e-9);
  // And the penalty magnitude matches the calibrated coefficient.
  EXPECT_NEAR(at3 / base, 1.0 + model.multicast_log_coeff * std::log2(3.0),
              1e-12);
}

TEST(CostModel, ScaleDividesByteTermsOnly) {
  const CostModel model;
  NodeWork w;
  w.map_bytes = 1'000'000;
  w.map_files = 10;
  const double full = model.map_seconds(w, RunScale{1.0});
  const double hundredth = model.map_seconds(w, RunScale{0.01});
  // Byte term scales 100x; the per-file term is unchanged.
  const double file_term = 10 * model.map_file_overhead_sec;
  EXPECT_NEAR(hundredth - file_term, (full - file_term) * 100.0, 1e-9);
}

// Each compute stage name resolves to its own CostModel price; CodeGen,
// Shuffle and unknown names have no per-node price.
TEST(Report, NodeStagePriceMapsEachComputeStage) {
  const CostModel model;
  const RunScale scale{0.5};
  NodeWork w;
  w.map_bytes = 1'000'000;
  w.map_files = 3;
  w.pack_bytes = 2'000'000;
  w.unpack_bytes = 3'000'000;
  w.codec.encode_xor_bytes = 4'000'000;
  w.codec.packets_encoded = 5;
  w.codec.decoded_bytes = 6'000'000;
  w.codec.packets_decoded = 7;
  w.reduce_bytes = 8'000'000;
  const std::pair<const char*, double> want[] = {
      {stage::kMap, model.map_seconds(w, scale)},
      {stage::kPack, model.pack_seconds(w, scale)},
      {stage::kEncode, model.encode_seconds(w, scale)},
      {stage::kUnpack, model.unpack_seconds(w, scale)},
      {stage::kDecode, model.decode_seconds(w, scale)},
      {stage::kReduce, model.reduce_seconds(w, scale, /*r=*/3)},
  };
  for (const auto& [name, seconds] : want) {
    const NodePrice price = NodeStagePrice(name);
    ASSERT_NE(price, nullptr) << name;
    EXPECT_EQ(price(model, w, scale, 3), seconds) << name;
  }
  EXPECT_EQ(NodeStagePrice(stage::kCodeGen), nullptr);
  EXPECT_EQ(NodeStagePrice(stage::kShuffle), nullptr);
  EXPECT_EQ(NodeStagePrice("Sort"), nullptr);
}

TEST(Report, PaperScaleFraction) {
  const RunScale s = PaperScale(1'200'000, 120'000'000);
  EXPECT_DOUBLE_EQ(s.fraction, 0.01);
  EXPECT_DOUBLE_EQ(s.bytes(100), 10000.0);
  EXPECT_THROW(PaperScale(0, 1), CheckError);
}

TEST(Report, BreakdownAggregates) {
  StageBreakdown b;
  b.algorithm = "X";
  b.stages = {{stage::kCodeGen, 1},   {stage::kMap, 2},
              {stage::kPack, 3},      {stage::kEncode, 4},
              {stage::kShuffle, 5},   {stage::kUnpack, 6},
              {stage::kDecode, 7},    {stage::kReduce, 8}};
  EXPECT_DOUBLE_EQ(b.total(), 36);
  EXPECT_DOUBLE_EQ(b.pack_or_encode(), 7);
  EXPECT_DOUBLE_EQ(b.unpack_or_decode(), 13);
  EXPECT_DOUBLE_EQ(b.shuffle(), 5);
  EXPECT_DOUBLE_EQ(b.stage("nope"), 0);
}

TEST(Report, SimulateRunPricesAllStages) {
  // Hand-built result resembling a small uncoded run.
  AlgorithmResult result;
  result.algorithm = "TeraSort";
  result.config.num_nodes = 2;
  result.config.redundancy = 1;
  NodeWork w;
  w.map_bytes = 1000;
  w.map_files = 1;
  w.pack_bytes = 500;
  w.unpack_bytes = 500;
  w.reduce_bytes = 1000;
  result.work = {w, w};
  simmpi::ChannelCounters shuffle;
  shuffle.unicast_bytes = 1000;
  shuffle.unicast_msgs = 2;
  result.traffic[stage::kShuffle] = shuffle;

  const CostModel model;
  const StageBreakdown b = SimulateRun(result, model, RunScale{1.0});
  EXPECT_GT(b.stage(stage::kMap), 0);
  EXPECT_GT(b.stage(stage::kPack), 0);
  EXPECT_GT(b.shuffle(), 0);
  EXPECT_GT(b.stage(stage::kReduce), 0);
  EXPECT_DOUBLE_EQ(b.stage(stage::kEncode), 0);
  EXPECT_DOUBLE_EQ(b.stage(stage::kCodeGen), 0);
  EXPECT_NEAR(b.shuffle(), model.unicast_seconds(1000), 1e-12);
}

TEST(Report, TablePrintsSpeedupAgainstFirstRow) {
  StageBreakdown a;
  a.algorithm = "TeraSort";
  a.stages = {{stage::kShuffle, 100}};
  StageBreakdown b;
  b.algorithm = "CodedTeraSort";
  b.stages = {{stage::kShuffle, 50}};
  const TextTable t = BreakdownTable("demo", {a, b});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("2.00x"), std::string::npos);
  EXPECT_NE(s.find("TeraSort"), std::string::npos);
}

}  // namespace
}  // namespace cts
