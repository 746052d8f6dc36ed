// Extension: asynchronous execution (paper Section VI, third future
// direction — "explore the impact of coding in an asynchronous setting
// with parallel communications").
//
// The same measured runs are priced under three network schedules:
//
//   serial         — the paper's setup: one sender at a time on a
//                    shared medium (what Tables I-III report);
//   parallel, half duplex — every node communicates concurrently, but
//                    a node's 100 Mbps cap covers tx + rx together;
//   parallel, full duplex — tx and rx each get the full link.
//
// The punchline the extension quantifies: coding slashes *transmitted*
// bytes but every receiver still takes delivery of its full demand, so
// once links run in parallel the bottleneck shifts from the shared
// medium to per-node RECEIVE occupancy — which coding does not reduce.
// Coded TeraSort's advantage is a shared-/oversubscribed-network
// phenomenon, and asynchronous execution shrinks it.
//
// Beyond the closed forms, the engine now EXECUTES asynchronously:
// ShuffleSync::kOverlapped rebuilds the shuffle hot paths on
// nonblocking isend/irecv (TeraSort posts all transfers up front,
// CodedTeraSort fires every multicast of the round before draining,
// CMR streams a file's values as soon as the file is mapped). The
// scenario engine's flow replay of the measured transmission logs
// (simscen::NetMakespan) prices both initiation orders: the gap
// between the barrier-synchronous log and the overlapped log under
// the same parallel discipline is the cost of the paper's
// sender-serial ordering — now closable by the engine, not just
// priced.
#include <iostream>

#include "analytics/report.h"
#include "bench/bench_common.h"
#include "cmr/cmr.h"
#include "codedterasort/coded_terasort.h"
#include "common/table.h"
#include "simmpi/world.h"
#include "simnet/transmission_log.h"
#include "simscen/engine.h"
#include "simscen/netsim.h"
#include "terasort/terasort.h"

namespace {

using namespace cts;
using namespace cts::bench;

// Paper-scale shuffle seconds of `run`'s transmission log: the Shuffle
// stage of the baseline scenario replayed under `discipline` and
// `order`.
double ReplayShuffle(
    const AlgorithmResult& run, const CostModel& model, const RunScale& scale,
    simnet::Discipline discipline,
    simnet::ReplayOrder order = simnet::ReplayOrder::kLogOrder) {
  simscen::Scenario s = simscen::Scenario::Baseline(run.config.num_nodes);
  s.discipline = discipline;
  s.order = order;
  return simscen::ReplayScenario(run, model, scale, s).breakdown().shuffle();
}

// Replay pricing of one algorithm run: serial schedule plus the two
// parallel disciplines. Barrier logs replay in recorded (global) log
// order; overlapped logs replay per-sender, which is their
// deterministic asynchronous semantics.
void AddReplayRow(TextTable& table, const std::string& name,
                  const AlgorithmResult& run, const CostModel& model,
                  const RunScale& scale) {
  const auto order = run.config.shuffle_sync == ShuffleSync::kOverlapped
                         ? simnet::ReplayOrder::kPerSender
                         : simnet::ReplayOrder::kLogOrder;
  table.add_row(
      {name,
       TextTable::Num(
           ReplayShuffle(run, model, scale, simnet::Discipline::kSerial)),
       TextTable::Num(ReplayShuffle(run, model, scale,
                                    simnet::Discipline::kParallelHalfDuplex,
                                    order)),
       TextTable::Num(ReplayShuffle(run, model, scale,
                                    simnet::Discipline::kParallelFullDuplex,
                                    order))});
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json("ext_async", argc, argv);
  const int K = 16;
  const SortConfig base = BenchConfig(K, 1, 600'000);
  std::cout << "=== Extension: parallel (asynchronous) shuffling (K=" << K
            << ") ===\n";
  PrintRunBanner(base);

  const CostModel model;
  const RunScale scale = PaperScale(base.num_records, kPaperRecords);

  const AlgorithmResult plain = RunTeraSort(base);
  SortConfig coded_cfg = base;
  coded_cfg.redundancy = 3;
  const AlgorithmResult coded3 = RunCodedTeraSort(coded_cfg);
  coded_cfg.redundancy = 5;
  const AlgorithmResult coded5 = RunCodedTeraSort(coded_cfg);

  const struct {
    const char* name;
    const char* json_key;
    simnet::Discipline schedule;
  } schedules[] = {
      {"serial (paper)", "serial", simnet::Discipline::kSerial},
      {"parallel half-duplex", "parallel_half",
       simnet::Discipline::kParallelHalfDuplex},
      {"parallel full-duplex", "parallel_full",
       simnet::Discipline::kParallelFullDuplex},
  };

  for (const auto& s : schedules) {
    std::vector<StageBreakdown> rows;
    rows.push_back(SimulateRun(plain, model, scale, s.schedule));
    StageBreakdown b3 = SimulateRun(coded3, model, scale, s.schedule);
    b3.algorithm += " r=3";
    rows.push_back(std::move(b3));
    StageBreakdown b5 = SimulateRun(coded5, model, scale, s.schedule);
    b5.algorithm += " r=5";
    rows.push_back(std::move(b5));
    BreakdownTable(s.name, rows).render(std::cout);
    std::cout << '\n';
    const std::string prefix = s.json_key;
    json.add(prefix + "/terasort_total_s", rows[0].total());
    json.add(prefix + "/coded_r3_total_s", rows[1].total());
    json.add(prefix + "/coded_r5_total_s", rows[2].total());
  }

  // ---- Measured overlapped execution ----
  // The same jobs rerun with the nonblocking overlapped shuffle; the
  // transmission logs record the true initiation orders, and the
  // discrete-event replay prices both. Closed forms assume perfect
  // overlap; the replay shows what each initiation order actually
  // achieves on a parallel network.
  SortConfig over_cfg = base;
  over_cfg.shuffle_sync = ShuffleSync::kOverlapped;
  const AlgorithmResult plain_over = RunTeraSort(over_cfg);
  over_cfg.redundancy = 3;
  const AlgorithmResult coded3_over = RunCodedTeraSort(over_cfg);
  over_cfg.redundancy = 5;
  const AlgorithmResult coded5_over = RunCodedTeraSort(over_cfg);

  {
    TextTable table(
        "shuffle makespan from transmission-log replay (simscen::NetMakespan; "
        "seconds at paper scale; 'overlapped' rows replay the nonblocking "
        "engine's logs)");
    table.set_header(
        {"algorithm", "serial", "parallel half-dup", "parallel full-dup"});
    AddReplayRow(table, "TeraSort barrier", plain, model, scale);
    AddReplayRow(table, "TeraSort overlapped", plain_over, model, scale);
    AddReplayRow(table, "CodedTeraSort r=3 barrier", coded3, model, scale);
    AddReplayRow(table, "CodedTeraSort r=3 overlapped", coded3_over, model,
                 scale);
    AddReplayRow(table, "CodedTeraSort r=5 barrier", coded5, model, scale);
    AddReplayRow(table, "CodedTeraSort r=5 overlapped", coded5_over, model,
                 scale);
    table.render(std::cout);
    std::cout << '\n';
  }

  // The engine claims, enforced: at K=16, r>1, the overlapped
  // initiation order replayed on parallel links lands strictly below
  // the paper's serial schedule, while moving byte-identical traffic.
  {
    const double serial3 =
        ReplayShuffle(coded3, model, scale, simnet::Discipline::kSerial);
    const double over3 = ReplayShuffle(
        coded3_over, model, scale, simnet::Discipline::kParallelFullDuplex,
        simnet::ReplayOrder::kPerSender);
    CTS_CHECK_LT(over3, serial3);
    CTS_CHECK_EQ(
        coded3.traffic.at(stage::kShuffle).transmitted_bytes(),
        coded3_over.traffic.at(stage::kShuffle).transmitted_bytes());
  }

  // ---- Generic CMR engine: pipelined map/shuffle overlap ----
  // K=16, r=2 Grep: the uncoded engine streams each file's values as
  // soon as the file is mapped; the coded engine posts the round's
  // multicasts before draining. Loads are byte-identical to the
  // barrier runs — overlap changes WHEN bytes move, never how many.
  {
    const int r = 2;
    const auto app = cmr::MakeGrepApp("e", /*records_per_file=*/200);
    cmr::CmrConfig cc;
    cc.num_nodes = K;
    cc.redundancy = r;
    cc.seed = EnvU64("CTS_SEED", 2017);

    // The paper testbed's links, from the constants CostModel uses.
    const simscen::Topology rack = simscen::Topology::SingleRack(K);

    TextTable table(
        "CMR Grep K=16 r=2: barrier vs overlapped shuffle "
        "(simscen::NetMakespan replay seconds at executed scale)");
    table.set_header({"mode", "payload load L", "serial replay",
                      "overlap full-dup replay", "vs serial"});
    for (const cmr::ShuffleMode mode :
         {cmr::ShuffleMode::kUncoded, cmr::ShuffleMode::kCoded}) {
      cc.mode = mode;
      cc.sync = ShuffleSync::kBarrier;
      const cmr::CmrResult barrier = RunCmr(*app, cc);
      cc.sync = ShuffleSync::kOverlapped;
      const cmr::CmrResult overlapped = RunCmr(*app, cc);

      // Byte-identity: the overlap moves exactly the same traffic.
      CTS_CHECK_EQ(barrier.shuffled_payload_bytes,
                   overlapped.shuffled_payload_bytes);
      CTS_CHECK_EQ(barrier.total_iv_bytes, overlapped.total_iv_bytes);
      CTS_CHECK_EQ(barrier.traffic.at(stage::kShuffle).transmitted_bytes(),
                   overlapped.traffic.at(stage::kShuffle).transmitted_bytes());

      const double serial = simscen::NetMakespan(
          barrier.shuffle_log, rack, simnet::Discipline::kSerial);
      const double over = simscen::NetMakespan(
          overlapped.shuffle_log, rack,
          simnet::Discipline::kParallelFullDuplex,
          simnet::ReplayOrder::kPerSender);
      CTS_CHECK_LT(over, serial);  // K=16, r>1: strictly below
      table.add_row(
          {mode == cmr::ShuffleMode::kCoded ? "coded" : "uncoded",
           TextTable::Num(barrier.measured_payload_load(), 4) + " == " +
               TextTable::Num(overlapped.measured_payload_load(), 4),
           TextTable::Num(serial, 4), TextTable::Num(over, 4),
           TextTable::Num(serial / over, 2) + "x"});
    }
    table.render(std::cout);
    std::cout << '\n';
  }

  std::cout << "Under parallel schedules TeraSort's shuffle already drops\n"
               "~K-fold, while coded receivers still must take delivery of\n"
               "their full partitions — the coding speedup narrows toward\n"
               "(and below) 1. Coding pays when the network is serialized\n"
               "or oversubscribed, exactly the regime the paper evaluates.\n"
               "The overlapped rows show the engine can now realize the\n"
               "parallel schedules the closed forms only assumed.\n";
  json.write();
  return 0;
}
