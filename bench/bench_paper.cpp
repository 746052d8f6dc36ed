// The paper-reproduction driver: one preset per paper result.
//
//   bench_paper PRESET [--json[=path]] [--ledger[=path]]
//
// PRESET names every artifact: BENCH_<PRESET>.json, LEDGER_<PRESET>.jsonl
// and the ledger entry's bench field and fingerprint. One preset runs
// per process, so the registry snapshot each JSON embeds covers that
// preset alone. Scale knobs are the CTS_* environment variables of
// bench/bench_common.h.
//
// Every preset that sorts executes each of its runs once through one
// JobMatrix. The paper results price them (Priced below): the real
// algorithm runs at reduced scale and its measured byte/message
// counters are priced by the EC2-calibrated cost model at the paper's
// 12 GB. Ablations and ext_async re-price those same executions under
// variant models, counters or network disciplines; ext_async also
// replays their shuffle logs through job::RunJob on the cache that
// executed them. The scenario and mitigation sweeps replay their runs
// under a scenario axis instead (ReplaySweep). The sweeps and
// ext_async embed CTS_CHECK invariants (byte identity, strict replay
// ordering, the regimes each sweep must expose), so a clean exit is
// itself evidence.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analytics/cost_model.h"
#include "analytics/loads.h"
#include "analytics/report.h"
#include "analytics/time_model.h"
#include "bench/bench_common.h"
#include "cmr/cmr.h"
#include "combinatorics/subsets.h"
#include "common/check.h"
#include "common/table.h"
#include "job/matrix.h"
#include "job/parse.h"
#include "mitigate/policy.h"
#include "simscen/netsim.h"

namespace {

using namespace cts;
using namespace cts::bench;

// One row of a paper table (seconds; <0 marks a non-existent cell).
struct PaperRow {
  std::string name;
  double codegen = -1;
  double map = 0;
  double pack_encode = 0;
  double shuffle = 0;
  double unpack_decode = 0;
  double reduce = 0;

  double total() const {
    return (codegen > 0 ? codegen : 0) + map + pack_encode + shuffle +
           unpack_decode + reduce;
  }
};

TextTable PaperTable(const std::string& title,
                     const std::vector<PaperRow>& rows) {
  TextTable table(title);
  table.set_header({"Algorithm", "CodeGen", "Map", "Pack/Encode", "Shuffle",
                    "Unpack/Decode", "Reduce", "Total", "Speedup"});
  const double baseline = rows.empty() ? 0 : rows.front().total();
  for (const auto& row : rows) {
    std::string speedup = "-";
    if (&row != &rows.front()) {
      speedup = TextTable::Num(baseline / row.total(), 2) + "x";
    }
    table.add_row({row.name,
                   row.codegen < 0 ? "-" : TextTable::Num(row.codegen),
                   TextTable::Num(row.map), TextTable::Num(row.pack_encode),
                   TextTable::Num(row.shuffle),
                   TextTable::Num(row.unpack_decode),
                   TextTable::Num(row.reduce), TextTable::Num(row.total()),
                   speedup});
  }
  return table;
}

// Prints a side-by-side comparison of paper vs reproduced totals.
void PrintComparison(const std::vector<PaperRow>& paper,
                     const std::vector<StageBreakdown>& repro) {
  TextTable t("paper vs reproduced (total seconds, speedup over row 1)");
  t.set_header({"Algorithm", "paper total", "repro total", "paper speedup",
                "repro speedup"});
  for (std::size_t i = 0; i < paper.size() && i < repro.size(); ++i) {
    const double pt = paper[i].total();
    const double rt = repro[i].total();
    std::string ps = "-", rs = "-";
    if (i > 0) {
      ps = TextTable::Num(paper[0].total() / pt, 2) + "x";
      rs = TextTable::Num(repro[0].total() / rt, 2) + "x";
    }
    t.add_row({paper[i].name, TextTable::Num(pt), TextTable::Num(rt), ps, rs});
  }
  t.render(std::cout);
}

// Executes each cell once on `cache` and prices it at the paper's
// 12 GB with the calibrated CostModel. Each execution's sorted output
// is released after pricing; its counters stay on `execution` for
// re-pricing.
job::MatrixResults Priced(std::vector<job::AlgoAxis> algos,
                          job::RunCache& cache) {
  job::JobMatrix matrix;
  matrix.algos = std::move(algos);
  matrix.backend = job::Backend::kPriced;
  matrix.paper_records = kPaperRecords;
  return job::RunMatrix(matrix, cache);
}

job::MatrixResults Priced(std::vector<job::AlgoAxis> algos) {
  job::RunCache cache;
  return Priced(std::move(algos), cache);
}

// Prints the preset's heading and run banner, and returns the
// executed config at K workers (r = 1, CTS_* knobs applied).
SortConfig Start(const std::string& heading, int K,
                 std::uint64_t default_records) {
  const SortConfig config = BenchConfig(K, /*r=*/1, default_records);
  std::cout << "=== " << heading << " ===\n";
  PrintRunBanner(config);
  return config;
}

// TeraSort on `base` (cell "terasort") followed by CodedTeraSort at
// each r in `rs` (cells "coded_r<r>").
std::vector<job::AlgoAxis> CodedSweep(const SortConfig& base,
                                      const std::vector<int>& rs) {
  std::vector<job::AlgoAxis> algos = {{"terasort", "terasort", base}};
  for (const int r : rs) {
    SortConfig config = base;
    config.redundancy = r;
    algos.push_back({"coded_r" + std::to_string(r), "coded", config});
  }
  return algos;
}

// Paper Tables I–III: the paper's rows next to the reproduced
// breakdowns at K workers. Row 0 is TeraSort; row i > 0 is
// CodedTeraSort at r = kTableRs[i - 1]. CTS_TRIALS > 1 adds repeated
// trials, mimicking the paper's 5-run averaging. The only randomness
// there is the workload seed (distinct seeds are distinct cache keys,
// so each trial prices a fresh execution, exactly as the paper reran
// the cluster).
constexpr int kTableRs[] = {3, 5};

void ReproduceTable(JsonReport& json, const std::string& heading, int K,
                    const std::vector<PaperRow>& paper) {
  const std::vector<int> rs(kTableRs, kTableRs + (paper.size() - 1));
  const SortConfig base = Start(heading, K, 1'200'000);
  PaperTable("paper (" + heading.substr(0, heading.find(':')) + ")", paper)
      .render(std::cout);

  const job::MatrixResults results = Priced(CodedSweep(base, rs));
  std::vector<StageBreakdown> repro = {results.at("terasort").breakdown};
  json.add_breakdown("terasort", repro[0]);
  for (const int r : rs) {
    const std::string label = "coded_r" + std::to_string(r);
    repro.push_back(results.at(label).breakdown);
    repro.back().algorithm += " r=" + std::to_string(r);
    json.add_breakdown(label, repro.back());
    json.add(label + "/speedup", repro[0].total() / repro.back().total());
  }
  BreakdownTable("reproduced", repro).render(std::cout);
  if (rs.empty()) {
    const double shuffle_share = repro[0].shuffle() / repro[0].total();
    std::cout << "shuffle share of total: "
              << TextTable::Num(shuffle_share * 100, 1)
              << "% (paper: 98.4%)\n";
    std::cout << "shuffle / map ratio: "
              << TextTable::Num(
                     repro[0].shuffle() / repro[0].stage(stage::kMap), 1)
              << "x (paper: 508.5x)\n\n";
    json.add("terasort/shuffle_share", shuffle_share);
  }
  PrintComparison(paper, repro);
  json.write();

  const std::uint64_t trials = EnvU64("CTS_TRIALS", 1);
  if (trials <= 1) return;
  std::vector<std::vector<double>> totals(paper.size());
  for (std::uint64_t t = 0; t < trials; ++t) {
    SortConfig seeded = base;
    seeded.seed += t;
    const job::MatrixResults trial = Priced(CodedSweep(seeded, rs));
    for (std::size_t i = 0; i < totals.size(); ++i) {
      totals[i].push_back(trial.cells()[i].result.makespan);
    }
  }
  // Mean and sample standard deviation per row.
  const double n = static_cast<double>(trials);
  TextTable table("repeated trials: total seconds (mean +/- std)");
  table.set_header({"Algorithm", "mean", "std"});
  for (std::size_t i = 0; i < totals.size(); ++i) {
    double mean = 0, var = 0;
    for (const double v : totals[i]) mean += v;
    mean /= n;
    for (const double v : totals[i]) var += (v - mean) * (v - mean);
    table.add_row({paper[i].name, TextTable::Num(mean),
                   TextTable::Num(std::sqrt(var / (n - 1)))});
  }
  table.render(std::cout);
}

// Paper Table I: breakdown of plain TeraSort sorting 12 GB with K = 16
// workers on 100 Mbps links.
//
//   paper:  Map 1.86 | Pack 2.35 | Shuffle 945.72 | Unpack 0.85 |
//           Reduce 10.47 | Total 961.25  (98.4% of time in Shuffle)
void Table1(JsonReport& json) {
  ReproduceTable(json, "Table I: TeraSort, 12 GB, K=16, 100 Mbps", 16,
                 {{"TeraSort", -1, 1.86, 2.35, 945.72, 0.85, 10.47}});
}

// Paper Table II: sorting 12 GB with K = 16 workers at 100 Mbps —
// TeraSort vs CodedTeraSort with r = 3 and r = 5.
//
//   paper speedups: 2.16x (r=3), 3.39x (r=5)
void Table2(JsonReport& json) {
  ReproduceTable(
      json, "Table II: 12 GB, K=16, 100 Mbps", 16,
      {{"TeraSort", -1, 1.86, 2.35, 945.72, 0.85, 10.47},
       {"CodedTeraSort r=3", 6.06, 6.03, 5.79, 412.22, 2.41, 13.05},
       {"CodedTeraSort r=5", 23.47, 10.84, 8.10, 222.83, 3.69, 14.40}});
}

// Paper Table III: sorting 12 GB with K = 20 workers at 100 Mbps —
// TeraSort vs CodedTeraSort with r = 3 and r = 5.
//
//   paper speedups: 1.97x (r=3), 2.20x (r=5). Note the r=5 speedup is
//   LOWER than at K=16 because CodeGen grows as C(K, r+1) (38760
//   groups at K=20 vs 8008 at K=16) — the trend this table exists to
//   show.
void Table3(JsonReport& json) {
  ReproduceTable(
      json, "Table III: 12 GB, K=20, 100 Mbps", 20,
      {{"TeraSort", -1, 1.47, 2.00, 960.07, 0.62, 8.29},
       {"CodedTeraSort r=3", 19.32, 4.68, 4.89, 453.37, 1.87, 9.73},
       {"CodedTeraSort r=5", 140.91, 8.59, 7.51, 269.42, 3.70, 10.97}});
}

// Paper Fig. 2: communication load L versus computation load r —
// uncoded scheme (1 - r/K) against Coded MapReduce ((1/r)(1 - r/K)),
// for K = 10 nodes (the figure is from [9]).
//
// Both curves are printed twice: the analytic formula and the load
// MEASURED from real executions of the generic CMR engine (Grep
// workload), demonstrating that the implementation moves exactly the
// bytes the theory says. The registry's "cmr" entry sizes its files
// from the record count instead, so this preset calls the engine
// directly.
void Fig2(JsonReport& json) {
  const int K = 10;
  const int records_per_file = 120;
  std::cout << "=== Fig. 2: communication load vs computation load (K=" << K
            << ") ===\n";
  std::cout << "workload: Grep over " << records_per_file
            << " text records per file, N = C(K, r) files\n\n";

  const auto app = cmr::MakeGrepApp("e", records_per_file);

  TextTable table("L(r): uncoded vs Coded MapReduce");
  table.set_header({"r", "uncoded (theory)", "uncoded (measured)",
                    "CMR (theory)", "CMR (measured)", "gain"});
  for (int r = 1; r <= K - 1; ++r) {
    cmr::CmrConfig config;
    config.num_nodes = K;
    config.redundancy = r;
    config.seed = EnvU64("CTS_SEED", 2017);

    config.mode = cmr::ShuffleMode::kUncoded;
    const cmr::CmrResult uncoded = cmr::RunCmr(*app, config);
    config.mode = cmr::ShuffleMode::kCoded;
    const cmr::CmrResult coded = cmr::RunCmr(*app, config);

    const double mu = uncoded.measured_payload_load();
    const double mc = coded.measured_payload_load();
    json.add("r" + std::to_string(r) + "/uncoded_load", mu);
    json.add("r" + std::to_string(r) + "/coded_load", mc);
    json.add("r" + std::to_string(r) + "/gain", mc > 0 ? mu / mc : 0.0);
    table.add_row({std::to_string(r), TextTable::Num(UncodedLoad(K, r), 4),
                   TextTable::Num(mu, 4), TextTable::Num(CodedLoad(K, r), 4),
                   TextTable::Num(mc, 4),
                   TextTable::Num(mc > 0 ? mu / mc : 0.0, 2) + "x"});
  }
  table.render(std::cout);
  std::cout << "\nCMR reduces the load by exactly r (padding aside): the\n"
               "inversely-linear computation/communication tradeoff of\n"
               "paper eq. (2).\n";
  json.write();
}

// The paper's Section III-B analysis of Table I and the Section II
// execution-time model (eqs. (3)-(5)):
//
//   * shuffle consumes 98.4% of TeraSort's time (508.5x Map);
//   * the model-optimal redundancy is r* = ceil(sqrt(Ts/Tm)) = 23;
//   * coding theoretically promises ~10x on this workload.
//
// The stage inputs come from a real measured run priced at paper
// scale, not from hard-coded constants.
void Model(JsonReport& json) {
  const SortConfig config = Start(
      "Execution-time model analysis (paper Sections II & III-B)",
      /*K=*/16, 1'200'000);

  const StageBreakdown b =
      Priced(CodedSweep(config, {})).at("terasort").breakdown;

  const MapReduceTimes t{.map = b.stage(stage::kMap),
                         .shuffle = b.shuffle(),
                         .reduce = b.stage(stage::kReduce)};

  TextTable analysis("Section III-B analysis (paper values in parens)");
  analysis.set_header({"quantity", "value"});
  analysis.add_row({"Tshuffle / Tmap",
                    TextTable::Num(t.shuffle / t.map, 1) + " (508.5)"});
  analysis.add_row(
      {"shuffle share",
       TextTable::Num(100 * t.shuffle / t.total(), 1) + "% (98.4%)"});
  const int ideal_r =
      static_cast<int>(std::ceil(std::sqrt(t.shuffle / t.map)));
  analysis.add_row({"r* = ceil(sqrt(Ts/Tm))",
                    std::to_string(ideal_r) + " (23)"});
  analysis.add_row(
      {"promised speedup at r* (eq. 5)",
       TextTable::Num(t.total() / PredictOptimalCodedTotal(t), 1) +
           "x (~10x)"});
  analysis.render(std::cout);

  TextTable model("eq. (4) predictions: T(r) = r*Tmap + Tshuffle/r + Treduce");
  model.set_header({"r", "predicted total", "predicted speedup"});
  for (const int r : {1, 2, 3, 5, 8, 13, 23}) {
    model.add_row({std::to_string(r),
                   TextTable::Num(PredictCodedTotal(t, r)),
                   TextTable::Num(PredictSpeedup(t, r), 2) + "x"});
  }
  model.render(std::cout);
  std::cout << "\nNote: eq. (4) ignores CodeGen and multicast overheads — "
               "the gap\nbetween this promise and Tables II/III is what "
               "the paper's\n'Scalable Coding' future direction is about.\n";
  json.add("shuffle_over_map", t.shuffle / t.map);
  json.add("shuffle_share", t.shuffle / t.total());
  json.add("ideal_r", ideal_r);
  json.add("promised_speedup", t.total() / PredictOptimalCodedTotal(t));
  json.write();
}

// Section V-C trend: "the impact of worker number K".
//
// Sweeps K at fixed r = 3: one (TeraSort, CodedTeraSort) pair of cells
// per K. The paper observes the speedup decreases with K: (1)
// C(K, r+1) multicast groups make CodeGen longer, and (2) with more
// nodes each node maps a smaller fraction of the data, so less is
// locally available and relatively more must be shuffled.
void SweepK(JsonReport& json) {
  const int r = 3;
  const std::vector<int> ks = {8, 12, 16, 20};
  std::cout << "=== Sweep: speedup vs cluster size K (r=" << r << ") ===\n\n";

  std::vector<job::AlgoAxis> algos;
  for (const int K : ks) {
    const SortConfig base = BenchConfig(K, 1, 600'000);
    SortConfig coded = base;
    coded.redundancy = r;
    algos.push_back({"terasort_K" + std::to_string(K), "terasort", base});
    algos.push_back({"coded_K" + std::to_string(K), "coded", coded});
  }
  const job::MatrixResults results = Priced(std::move(algos));

  TextTable table("paper-scale totals vs K");
  table.set_header({"K", "groups", "TeraSort total", "Coded total",
                    "CodeGen", "Speedup"});
  double prev_speedup = 1e9;
  bool monotone = true;
  for (const int K : ks) {
    const StageBreakdown& baseline =
        results.at("terasort_K" + std::to_string(K)).breakdown;
    const StageBreakdown& b =
        results.at("coded_K" + std::to_string(K)).breakdown;
    const double speedup = baseline.total() / b.total();
    if (speedup > prev_speedup) monotone = false;
    prev_speedup = speedup;
    json.add("K" + std::to_string(K) + "/terasort_total_s", baseline.total());
    json.add("K" + std::to_string(K) + "/coded_total_s", b.total());
    json.add("K" + std::to_string(K) + "/speedup", speedup);
    table.add_row({std::to_string(K), std::to_string(Binomial(K, r + 1)),
                   TextTable::Num(baseline.total()), TextTable::Num(b.total()),
                   TextTable::Num(b.stage(stage::kCodeGen)),
                   TextTable::Num(speedup, 2) + "x"});
  }
  table.render(std::cout);
  std::cout << "\nspeedup decreases with K"
            << (monotone ? " (monotone, as the paper reports)" : "")
            << ": CodeGen grows as C(K, r+1) and the locally available\n"
               "fraction r/K of the data shrinks.\n";
  json.write();
}

// Section V-C trend: "the impact of redundancy parameter r".
//
// Sweeps r at fixed K = 20 (the TeraSort baseline and every coded r
// are cells of the same sweep) and reports the paper-scale totals. The
// paper observes: shuffle time drops ~r-fold, Map grows linearly,
// CodeGen grows as C(K, r+1) — so speedup rises for small r and falls
// once CodeGen dominates (the paper limits r <= 5 for this reason).
// K = 20 is used because its C(K, r+1) keeps growing through r = 9,
// which is exactly the regime where the paper's observation bites.
void SweepR(JsonReport& json) {
  const int K = 20;
  const SortConfig base = Start(
      "Sweep: speedup vs redundancy r (K=" + std::to_string(K) + ")", K,
      400'000);

  const std::vector<int> rs = {1, 2, 3, 4, 5, 6, 7};
  const job::MatrixResults results = Priced(CodedSweep(base, rs));
  const StageBreakdown& baseline = results.at("terasort").breakdown;

  TextTable table("paper-scale totals vs r (TeraSort total: " +
                  TextTable::Num(baseline.total()) + " s)");
  table.set_header({"r", "groups C(K,r+1)", "CodeGen", "Map", "Shuffle",
                    "Total", "Speedup"});
  double best_speedup = 0;
  int best_r = 0;
  for (const int r : rs) {
    const StageBreakdown& b =
        results.at("coded_r" + std::to_string(r)).breakdown;
    const double speedup = baseline.total() / b.total();
    if (speedup > best_speedup) {
      best_speedup = speedup;
      best_r = r;
    }
    json.add("r" + std::to_string(r) + "/coded_total_s", b.total());
    json.add("r" + std::to_string(r) + "/speedup", speedup);
    table.add_row({std::to_string(r),
                   std::to_string(Binomial(K, r + 1)),
                   TextTable::Num(b.stage(stage::kCodeGen)),
                   TextTable::Num(b.stage(stage::kMap)),
                   TextTable::Num(b.shuffle()), TextTable::Num(b.total()),
                   TextTable::Num(speedup, 2) + "x"});
  }
  table.render(std::cout);
  std::cout << "\nbest r = " << best_r << " at "
            << TextTable::Num(best_speedup, 2)
            << "x; speedup rises while coded shuffle shrinks, then falls "
               "as CodeGen's C(K, r+1) growth takes over.\n";
  json.add("terasort_total_s", baseline.total());
  json.add("best_r", best_r);
  json.add("best_speedup", best_speedup);
  json.write();
}

// Ablation: how much of the theoretical r-fold shuffle gain survives
// the application-layer multicast penalty (paper Section V-C,
// observation 3: measured shuffle gains are "slightly less than r"
// because MPI_Bcast costs grow logarithmically with fan-out).
//
// The same measured coded run is priced under different multicast
// penalty coefficients: 0 (ideal network-layer multicast), the
// calibrated 0.32, and a 2x-pessimistic 0.64; plus the degenerate
// "unicast fallback" where every coded packet is sent r times.
void AblationMulticast(JsonReport& json) {
  const int K = 16;
  const SortConfig base = Start(
      "Ablation: multicast overhead model (K=" + std::to_string(K) + ")", K,
      600'000);

  const job::MatrixResults results = Priced(CodedSweep(base, {3, 5}));
  const StageBreakdown& baseline = results.at("terasort").breakdown;
  const RunScale scale = PaperScale(base.num_records, kPaperRecords);
  std::cout << "TeraSort shuffle: " << TextTable::Num(baseline.shuffle())
            << " s, total: " << TextTable::Num(baseline.total()) << " s\n\n";

  TextTable table("coded shuffle under multicast penalty variants");
  table.set_header({"r", "coeff", "Shuffle", "shuffle gain", "Total",
                    "Speedup"});
  for (const int r : {3, 5}) {
    const AlgorithmResult& result =
        *results.at("coded_r" + std::to_string(r)).execution;
    StageBreakdown ideal;  // coeff 0
    for (const double coeff : {0.0, 0.32, 0.64}) {
      CostModel model;
      model.multicast_log_coeff = coeff;
      const StageBreakdown b = SimulateRun(result, model, scale);
      if (coeff == 0) ideal = b;
      json.add("r" + std::to_string(r) + "_coeff" +
                   TextTable::Num(coeff, 2) + "/total_s",
               b.total());
      table.add_row({std::to_string(r), TextTable::Num(coeff, 2),
                     TextTable::Num(b.shuffle()),
                     TextTable::Num(baseline.shuffle() / b.shuffle(), 2) + "x",
                     TextTable::Num(b.total()),
                     TextTable::Num(baseline.total() / b.total(), 2) + "x"});
    }
    // Unicast fallback: each packet unicast to its r receivers — the
    // coding gain collapses back to the uncoded-with-redundancy load.
    const double shuffle_unicast = ideal.shuffle() * r;
    const double total = ideal.total() - ideal.shuffle() + shuffle_unicast;
    table.add_row({std::to_string(r), "unicast",
                   TextTable::Num(shuffle_unicast),
                   TextTable::Num(baseline.shuffle() / shuffle_unicast, 2) +
                       "x",
                   TextTable::Num(total),
                   TextTable::Num(baseline.total() / total, 2) + "x"});
  }
  table.render(std::cout);
  std::cout << "\nWith coeff 0.32 the shuffle gain lands below r (the "
               "paper's\nobservation); true network-layer multicast "
               "(coeff 0) would recover\nnearly the full r-fold gain.\n";
  json.add("terasort/total_s", baseline.total());
  json.write();
}

// Ablation: coding overhead scalability (paper Section VI, "Scalable
// Coding" future direction).
//
// CodeGen cost grows as C(K, r+1) multicast groups, and encode/decode
// handle C(K-1, r) packets per node. This preset tabulates the
// combinatorial growth and prices it with the calibrated model,
// locating the crossover where coding overhead exceeds the shuffle
// savings — the reason the paper caps r at 5. It executes nothing.
void AblationCodegen(JsonReport& json) {
  const CostModel model;
  // Shuffle seconds of plain TeraSort at paper scale (12 GB, serial).
  std::cout << "=== Ablation: coding-overhead scalability ===\n\n";

  for (const int K : {16, 20}) {
    const double dataset = 12e9;
    const double uncoded_shuffle =
        model.unicast_seconds(dataset * TeraSortLoad(K));
    TextTable table("K=" + std::to_string(K) +
                    ": overhead vs shuffle saving (paper scale)");
    table.set_header({"r", "groups", "pkts/node", "CodeGen", "coded shuffle",
                      "saving", "net benefit"});
    for (int r = 1; r <= 8; ++r) {
      const std::uint64_t groups = Binomial(K, r + 1);
      const std::uint64_t packets = Binomial(K - 1, r);
      const double codegen = model.codegen_seconds(groups);
      const double coded_shuffle = model.multicast_seconds(
          dataset * CodedLoad(K, r), static_cast<double>(r));
      const double saving = uncoded_shuffle - coded_shuffle;
      const std::string key =
          "K" + std::to_string(K) + "_r" + std::to_string(r);
      json.add(key + "/codegen_s", codegen);
      json.add(key + "/net_benefit_s", saving - codegen);
      table.add_row(
          {std::to_string(r), std::to_string(groups),
           std::to_string(packets), TextTable::Num(codegen),
           TextTable::Num(coded_shuffle), TextTable::Num(saving),
           TextTable::Num(saving - codegen)});
    }
    table.render(std::cout);
    std::cout << '\n';
  }
  std::cout << "CodeGen stays negligible through r=5 but explodes\n"
               "combinatorially beyond it (C(20,9) = 167960 groups would\n"
               "cost ~10 minutes of setup alone) — matching the paper's\n"
               "choice to cap r at 5 and its call for scalable coding.\n";
  json.write();
}

// Returns `result` with node 0's compute counters inflated by `slow`
// (models a node whose CPU runs 1/slow as fast; byte counts are what
// the cost model prices, so scaling them scales the node's time).
AlgorithmResult WithStraggler(AlgorithmResult result, double slow) {
  auto& w = result.work.front();
  for (std::uint64_t* bytes :
       {&w.map_bytes, &w.pack_bytes, &w.unpack_bytes, &w.reduce_bytes,
        &w.codec.encode_xor_bytes, &w.codec.decoded_bytes}) {
    *bytes = static_cast<std::uint64_t>(static_cast<double>(*bytes) * slow);
  }
  return result;
}

// Ablation: straggler sensitivity.
//
// The paper's intro cites coded computing for straggler mitigation
// ([11]) as the other face of coding; CodedTeraSort itself, however,
// needs every node's Map output before any packet can be decoded, and
// its Map stage processes r x more data per node. This ablation prices
// the measured runs with one node's compute rate degraded by a factor
// s (compute stage time = max over nodes, so the slow node sets the
// pace; the serial shuffle is rate-bound, not compute-bound, and is
// unaffected).
//
// Expected shape: TeraSort degrades by (s-1) x a few seconds of
// compute; CodedTeraSort degrades r x faster in Map — but because the
// shuffle dominates both, coding still wins until the straggler is
// extreme.
void AblationStraggler(JsonReport& json) {
  const int K = 16;
  const SortConfig base = Start(
      "Ablation: one straggling node (K=" + std::to_string(K) + ")", K,
      600'000);

  const job::MatrixResults results = Priced(CodedSweep(base, {3}));
  const AlgorithmResult& plain = *results.at("terasort").execution;
  const AlgorithmResult& coded = *results.at("coded_r3").execution;
  const CostModel model;
  const RunScale scale = PaperScale(base.num_records, kPaperRecords);

  TextTable table("paper-scale totals with node 0 slowed by s");
  table.set_header({"s", "TeraSort Map", "TeraSort total", "Coded Map",
                    "Coded total", "Speedup"});
  for (const double s : {1.0, 1.5, 2.0, 4.0, 8.0}) {
    const StageBreakdown p =
        SimulateRun(WithStraggler(plain, s), model, scale);
    const StageBreakdown c =
        SimulateRun(WithStraggler(coded, s), model, scale);
    json.add("s" + TextTable::Num(s, 1) + "/terasort_total_s", p.total());
    json.add("s" + TextTable::Num(s, 1) + "/coded_total_s", c.total());
    json.add("s" + TextTable::Num(s, 1) + "/speedup",
             p.total() / c.total());
    table.add_row({TextTable::Num(s, 1),
                   TextTable::Num(p.stage(stage::kMap)),
                   TextTable::Num(p.total()),
                   TextTable::Num(c.stage(stage::kMap)),
                   TextTable::Num(c.total()),
                   TextTable::Num(p.total() / c.total(), 2) + "x"});
  }
  table.render(std::cout);
  std::cout << "\nThe coded Map slows r x faster than the baseline's "
               "(r x the\ndata per node), yet the speedup erodes only "
               "gradually because\nthe serial shuffle — unaffected by "
               "compute stragglers — still\ndominates. Integrating "
               "[11]-style coded computation against\nstragglers is the "
               "paper's complementary direction.\n";
  json.write();
}

// Extension: scalable coding (paper Section VI, second future
// direction — "design efficient and scalable coding procedures to
// maintain a low coding overhead").
//
// The paper creates its C(K, r+1) multicast groups with one
// MPI_Comm_split collective per group; at K=20, r=5 that is 38760
// collectives costing 140.91 s — nearly a third of CodedTeraSort's
// total. The batched CodeGen extension reserves communicator ids for
// ALL groups in a single collective and lets every node derive group
// memberships locally (MPI_Comm_create_group-style), dropping the
// per-group cost to plan bookkeeping.
//
// This preset reruns Table III (K=20) under both modes (cells
// split_r<r> and batched_r<r>), then pushes r beyond the paper's cap
// to show the speedup the paper left on the table.
void ExtScalableCodegen(JsonReport& json) {
  const int K = 20;
  const SortConfig base = Start(
      "Extension: batched CodeGen vs per-group comm splits (K=" +
          std::to_string(K) + ")",
      K, 600'000);

  const std::vector<int> rs = {3, 5, 6};
  std::vector<job::AlgoAxis> algos = {{"terasort", "terasort", base}};
  for (const int r : rs) {
    SortConfig config = base;
    config.redundancy = r;
    config.codegen_mode = CodeGenMode::kCommSplit;
    algos.push_back({"split_r" + std::to_string(r), "coded", config});
    config.codegen_mode = CodeGenMode::kBatched;
    algos.push_back({"batched_r" + std::to_string(r), "coded", config});
  }
  const job::MatrixResults results = Priced(std::move(algos));
  const StageBreakdown& baseline = results.at("terasort").breakdown;
  std::cout << "TeraSort total: " << TextTable::Num(baseline.total())
            << " s\n\n";

  TextTable table("CodedTeraSort totals by CodeGen mode");
  table.set_header({"r", "groups", "split CodeGen", "split total",
                    "split speedup", "batched CodeGen", "batched total",
                    "batched speedup"});
  for (const int r : rs) {
    const StageBreakdown& split =
        results.at("split_r" + std::to_string(r)).breakdown;
    const StageBreakdown& batched =
        results.at("batched_r" + std::to_string(r)).breakdown;
    json.add("r" + std::to_string(r) + "/split_total_s", split.total());
    json.add("r" + std::to_string(r) + "/batched_total_s", batched.total());
    table.add_row(
        {std::to_string(r), std::to_string(Binomial(K, r + 1)),
         TextTable::Num(split.stage(stage::kCodeGen)),
         TextTable::Num(split.total()),
         TextTable::Num(baseline.total() / split.total(), 2) + "x",
         TextTable::Num(batched.stage(stage::kCodeGen)),
         TextTable::Num(batched.total()),
         TextTable::Num(baseline.total() / batched.total(), 2) + "x"});
  }
  table.render(std::cout);
  std::cout << "\nBatched CodeGen removes the overhead that made r=5 barely\n"
               "better than r=3 at K=20 (paper Table III) and lets larger r\n"
               "keep paying off — a concrete answer to the paper's\n"
               "'Scalable Coding' question.\n";
  json.add("terasort_total_s", baseline.total());
  json.write();
}

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
// Beyond the closed forms, the engine EXECUTES asynchronously:
// ShuffleSync::kOverlapped rebuilds the shuffle hot paths on
// nonblocking isend/irecv (TeraSort posts all transfers up front,
// CodedTeraSort fires every multicast of the round before draining,
// CMR streams a file's values as soon as the file is mapped). Each
// sort runs once per shuffle synchronization (cells "<label>" and
// "<label>_overlapped"), and the flow DES (simscen::NetMakespan)
// replays both logs: the gap between the barrier-synchronous log and
// the overlapped log under the same parallel discipline is the cost of
// the paper's sender-serial ordering — closable by the engine, not
// just priced.
void ExtAsync(JsonReport& json) {
  const int K = 16;
  const SortConfig base = Start(
      "Extension: parallel (asynchronous) shuffling (K=" +
          std::to_string(K) + ")",
      K, 600'000);

  SortConfig overlapped = base;
  overlapped.shuffle_sync = ShuffleSync::kOverlapped;
  std::vector<job::AlgoAxis> algos = CodedSweep(base, {3, 5});
  for (job::AlgoAxis& axis : CodedSweep(overlapped, {3, 5})) {
    axis.label += "_overlapped";
    algos.push_back(std::move(axis));
  }
  job::RunCache cache;
  const job::MatrixResults results = Priced(std::move(algos), cache);

  // Row name and cell label of each barrier run.
  const std::pair<std::string, std::string> runs[] = {
      {"TeraSort", "terasort"},
      {"CodedTeraSort r=3", "coded_r3"},
      {"CodedTeraSort r=5", "coded_r5"},
  };
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
  const CostModel model;
  const RunScale scale = PaperScale(base.num_records, kPaperRecords);
  for (const auto& s : schedules) {
    std::vector<StageBreakdown> rows;
    for (const auto& [name, label] : runs) {
      // The matrix priced the serial schedule; the parallel ones
      // re-price the same execution.
      const job::JobResult& run = results.at(label);
      rows.push_back(s.schedule == simnet::Discipline::kSerial
                         ? run.breakdown
                         : SimulateRun(*run.execution, model, scale,
                                       s.schedule));
      rows.back().algorithm = name;
      json.add(std::string(s.json_key) + "/" + label + "_total_s",
               rows.back().total());
    }
    BreakdownTable(s.name, rows).render(std::cout);
    std::cout << '\n';
  }

  // ---- Measured overlapped execution ----
  // The transmission logs record the true initiation orders, and the
  // discrete-event replay prices both. Closed forms assume perfect
  // overlap; the replay shows what each initiation order actually
  // achieves on a parallel network. Barrier logs replay in recorded
  // (global) log order; overlapped logs replay per-sender, which is
  // their deterministic asynchronous semantics.
  //
  // Paper-scale Shuffle seconds of the cell's log: the Shuffle stage of
  // a kReplay job on the cached run under the baseline scenario.
  const auto replay_shuffle = [&](const std::string& label,
                                  simnet::Discipline discipline,
                                  simnet::ReplayOrder order) {
    job::JobSpec spec = results.at(label).spec;
    spec.backend = job::Backend::kReplay;
    spec.scenario = simscen::Scenario::Baseline(K);
    spec.scenario->discipline = discipline;
    spec.scenario->order = order;
    return job::RunJob(spec, cache).breakdown.shuffle();
  };
  {
    TextTable table(
        "shuffle makespan from transmission-log replay (simscen::NetMakespan; "
        "seconds at paper scale; 'overlapped' rows replay the nonblocking "
        "engine's logs)");
    table.set_header(
        {"algorithm", "serial", "parallel half-dup", "parallel full-dup"});
    for (const auto& [name, label] : runs) {
      for (const bool over : {false, true}) {
        const std::string cell = over ? label + "_overlapped" : label;
        const auto order = over ? simnet::ReplayOrder::kPerSender
                                : simnet::ReplayOrder::kLogOrder;
        table.add_row(
            {name + (over ? " overlapped" : " barrier"),
             TextTable::Num(replay_shuffle(cell, simnet::Discipline::kSerial,
                                           simnet::ReplayOrder::kLogOrder)),
             TextTable::Num(replay_shuffle(
                 cell, simnet::Discipline::kParallelHalfDuplex, order)),
             TextTable::Num(replay_shuffle(
                 cell, simnet::Discipline::kParallelFullDuplex, order))});
      }
    }
    table.render(std::cout);
    std::cout << '\n';
  }

  // The engine claims, enforced: at K=16, r>1, the overlapped
  // initiation order replayed on parallel links lands strictly below
  // the paper's serial schedule, while moving byte-identical traffic.
  CTS_CHECK_LT(replay_shuffle("coded_r3_overlapped",
                              simnet::Discipline::kParallelFullDuplex,
                              simnet::ReplayOrder::kPerSender),
               replay_shuffle("coded_r3", simnet::Discipline::kSerial,
                              simnet::ReplayOrder::kLogOrder));
  CTS_CHECK_EQ(results.at("coded_r3")
                   .execution->traffic.at(stage::kShuffle)
                   .transmitted_bytes(),
               results.at("coded_r3_overlapped")
                   .execution->traffic.at(stage::kShuffle)
                   .transmitted_bytes());

  // ---- Generic CMR engine: pipelined map/shuffle overlap ----
  // K=16, r=2 Grep: the uncoded engine streams each file's values as
  // soon as the file is mapped; the coded engine posts the round's
  // multicasts before draining. Loads are byte-identical to the
  // barrier runs — overlap changes WHEN bytes move, never how many.
  // The registry's "cmr" entry runs WordCount, so this section calls
  // the engine directly, as fig2 does.
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
      const cmr::CmrResult barrier = cmr::RunCmr(*app, cc);
      cc.sync = ShuffleSync::kOverlapped;
      const cmr::CmrResult over = cmr::RunCmr(*app, cc);

      // Byte-identity: the overlap moves exactly the same traffic.
      CTS_CHECK_EQ(barrier.shuffled_payload_bytes,
                   over.shuffled_payload_bytes);
      CTS_CHECK_EQ(barrier.total_iv_bytes, over.total_iv_bytes);
      CTS_CHECK_EQ(barrier.traffic.at(stage::kShuffle).transmitted_bytes(),
                   over.traffic.at(stage::kShuffle).transmitted_bytes());

      const double serial = simscen::NetMakespan(
          barrier.shuffle_log, rack, simnet::Discipline::kSerial);
      const double parallel = simscen::NetMakespan(
          over.shuffle_log, rack, simnet::Discipline::kParallelFullDuplex,
          simnet::ReplayOrder::kPerSender);
      CTS_CHECK_LT(parallel, serial);  // K=16, r>1: strictly below
      table.add_row(
          {mode == cmr::ShuffleMode::kCoded ? "coded" : "uncoded",
           TextTable::Num(barrier.measured_payload_load(), 4) + " == " +
               TextTable::Num(over.measured_payload_load(), 4),
           TextTable::Num(serial, 4), TextTable::Num(parallel, 4),
           TextTable::Num(serial / parallel, 2) + "x"});
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
}

// The replay sweeps below: TeraSort and CodedTeraSort at r = 3 and 5 on
// `base` (cells "terasort", "coded_r3", "coded_r5"), reported at the
// paper's 12 GB; each preset adds its scenario (and policy) axes.
job::JobMatrix ReplaySweep(const SortConfig& base) {
  job::JobMatrix matrix;
  matrix.algos = CodedSweep(base, {3, 5});
  matrix.backend = job::Backend::kReplay;
  matrix.paper_records = kPaperRecords;
  return matrix;
}

// The sweeps' network: a parallel full-duplex fabric with per-sender
// initiation (the asynchronous setting of paper Section VI) on a
// homogeneous single rack.
simscen::Scenario Fabric(int K) {
  simscen::Scenario scenario = simscen::Scenario::Baseline(K);
  scenario.discipline = simnet::Discipline::kParallelFullDuplex;
  scenario.order = simnet::ReplayOrder::kPerSender;
  return scenario;
}

// Evaluates a replay sweep: one execution per algorithm, every cell a
// replay of it.
job::MatrixResults Replayed(const job::JobMatrix& matrix) {
  job::MatrixResults results = job::RunMatrix(matrix);
  CTS_CHECK_EQ(results.executions(), static_cast<int>(matrix.algos.size()));
  return results;
}

// Scenario sweep: straggler intensity × core oversubscription × r.
//
// The paper evaluates a homogeneous cluster behind a serial shared
// medium — the regime where Coded TeraSort shines. This preset replays
// the SAME measured runs (compute records + transmission logs) through
// the scenario engine (src/simscen) across the two axes that flip the
// tradeoff:
//
//   * a straggling node stretches the redundant r× Map phase and
//     erodes the coding gain (TeraSort wins under strong stragglers);
//   * an oversubscribed core starves cross-rack shuffle traffic and
//     restores it (CodedTeraSort moves ~r× fewer bytes through the
//     core and wins when it is scarce).
//
// 3 algorithm cells × 16 scenario cells: 48 replayed cells off 3
// executions, on the sweeps' fabric with 2 nodes per rack once the
// core is oversubscribed.
void Scenarios(JsonReport& json) {
  const int K = 8;
  const int kNodesPerRack = 2;
  const SortConfig base = Start(
      "Scenario sweep: straggler x oversubscription x r (K=" +
          std::to_string(K) + ", " + std::to_string(kNodesPerRack) +
          " nodes/rack)",
      K, 120'000);

  job::JobMatrix matrix = ReplaySweep(base);
  const std::vector<double> slowdowns = {1.0, 2.0, 4.0, 8.0};
  const std::vector<double> oversubs = {0.0, 4.0, 16.0, 64.0};  // 0 = no racks
  const auto cell_label = [](double slowdown, double oversub) {
    return "slow" + TextTable::Num(slowdown, 0) + "_over" +
           TextTable::Num(oversub, 0);
  };
  for (const double slowdown : slowdowns) {
    for (const double oversub : oversubs) {
      simscen::Scenario scenario = Fabric(K);
      if (slowdown > 1.0) {
        scenario.cluster.straggler.kind = simscen::StragglerKind::kSlowNode;
        scenario.cluster.straggler.node = 0;
        scenario.cluster.straggler.slowdown = slowdown;
      }
      if (oversub > 0.0) {
        scenario.topology =
            simscen::Topology::Oversubscribed(K, kNodesPerRack, oversub);
      }
      matrix.scenarios.push_back({cell_label(slowdown, oversub), scenario});
    }
  }
  const job::MatrixResults results = Replayed(matrix);

  TextTable table(
      "paper-scale makespan (s): parallel full-duplex fabric, "
      "per-sender initiation");
  table.set_header({"slowdown", "oversub", "TeraSort", "Coded r=3",
                    "Coded r=5", "winner"});
  int terasort_wins = 0;
  int coded_wins = 0;
  for (const double slowdown : slowdowns) {
    for (const double oversub : oversubs) {
      const std::string cell = cell_label(slowdown, oversub);
      std::vector<double> totals;
      std::size_t best = 0;
      for (std::size_t i = 0; i < matrix.algos.size(); ++i) {
        const double t = results.at(matrix.algos[i].label, cell).makespan;
        totals.push_back(t);
        json.add(cell + "/" + matrix.algos[i].label + "_total_s", t);
        if (t < totals[best]) best = i;
      }
      if (best == 0) {
        ++terasort_wins;
      } else {
        ++coded_wins;
      }
      json.add(cell + "/coded_wins", best == 0 ? 0.0 : 1.0);
      table.add_row({TextTable::Num(slowdown, 0), TextTable::Num(oversub, 0),
                     TextTable::Num(totals[0]), TextTable::Num(totals[1]),
                     TextTable::Num(totals[2]),
                     best == 0 ? "TeraSort" : "Coded r=" +
                         std::string(best == 1 ? "3" : "5")});
    }
  }
  table.render(std::cout);

  json.add("regimes/terasort_wins", terasort_wins);
  json.add("regimes/coded_wins", coded_wins);
  std::cout << "\nregimes won — TeraSort: " << terasort_wins
            << ", CodedTeraSort: " << coded_wins << "\n";
  std::cout
      << "On the fast fabric the r× Map (plus a straggler stretching it\n"
         "r× further) hands the win to TeraSort; once the core is\n"
         "oversubscribed the coded shuffle's ~r×-smaller cross-rack\n"
         "footprint dominates and Coded TeraSort takes it back —\n"
         "the paper's tradeoff, now priced per scenario.\n";
  CTS_CHECK_GT(terasort_wins, 0);
  CTS_CHECK_GT(coded_wins, 0);
  json.write();
}

// Mitigation sweep: straggler scenario × mitigation policy × r.
//
// The scenario engine prices stragglers; src/mitigate acts on them.
// This preset replays the same measured runs under a straggler sweep,
// pricing all three policies head-to-head on every cell:
//
//   none  — the paper's wait-for-the-slowest barrier;
//   spec  — speculative re-execution (quantile-triggered backups);
//   coded — [11]-style K-of-N coded Map completion, exploiting the
//           C(K, r) placement: the Map barrier tolerates r-1
//           stragglers at zero extra traffic.
//
// 3 algorithm cells × 6 straggler scenarios × 3 policies = 54 cells
// replayed off 3 executions, on the sweeps' fabric (the mitigation
// story is orthogonal to core contention, which `scenarios` sweeps).
// Straggler scenarios are built from the same textual specs ctsort
// accepts (job::ParseStraggler), so a sweep cell and a CLI invocation
// mean the same experiment.
//
// The headline regime: under a fail-stop outage that ends before the
// post-Map stages need the node, the coded barrier releases the
// instant K-r+1 nodes finish — beating both no-mitigation (which
// waits out the outage) and speculation (whose trigger fires too late
// to beat a short outage). The crossover is also in the sweep: as the
// outage stretches past the Map, the un-droppable later-stage
// barriers gate the coded run while speculation re-executes those
// shares too, and the winner flips.
void Mitigation(JsonReport& json) {
  const int K = 8;
  const SortConfig base = Start(
      "Mitigation sweep: straggler x policy x r (K=" + std::to_string(K) +
          ")",
      K, 120'000);

  job::JobMatrix matrix = ReplaySweep(base);
  // Straggler axis, described in the shared ctsort spec syntax. The
  // fail-stop outages grow in length, all striking 2 s into the run
  // (inside every algorithm's Map, which spans ~11-90 s at paper
  // scale): the shortest outage ends while the Map is still running —
  // the node rejoins before any later barrier needs it, so the coded
  // Map absorbs the failure outright. The sweep then walks the outage
  // past the Map end, where the un-droppable later-stage barriers
  // take over and the winner flips.
  const std::pair<std::string, std::string> stragglers[] = {
      {"healthy", "none"},
      {"slow4", "slow:0:4"},
      {"exp1_05", "exp:1:0.5"},
      {"fail8", "failstop:2:8:0"},
      {"fail60", "failstop:2:60:0"},
      {"fail1200", "failstop:2:1200:0"},
  };
  for (const auto& [label, spec] : stragglers) {
    std::string error;
    const auto model = job::ParseStraggler(spec, K, &error);
    CTS_CHECK_MSG(model.has_value(), "bad straggler spec: " << error);
    simscen::Scenario scenario = Fabric(K);
    scenario.cluster.straggler = *model;
    matrix.scenarios.push_back({label, scenario});
  }
  for (const auto& policy :
       {mitigate::MitigationPolicy::None(),
        mitigate::MitigationPolicy::Speculative(),
        mitigate::MitigationPolicy::CodedMap()}) {
    matrix.policies.push_back({mitigate::PolicyName(policy.kind), policy});
  }
  const job::MatrixResults results = Replayed(matrix);

  TextTable table(
      "paper-scale makespan (s) per mitigation policy; waste in "
      "parentheses (thrown-away compute-seconds)");
  table.set_header({"straggler", "algorithm", "none", "spec", "coded",
                    "winner"});
  // Makespan and waste per (straggler, algorithm) and policy.
  struct Cell {
    double total = 0;
    double wasted = 0;
  };
  std::map<std::string, std::map<std::string, std::vector<Cell>>> cells;
  for (const auto& strag : matrix.scenarios) {
    for (const auto& algo : matrix.algos) {
      std::vector<Cell> row;
      std::vector<std::string> rendered;
      std::size_t best = 0;
      for (const auto& policy : matrix.policies) {
        const job::JobResult& result =
            results.at(algo.label, strag.label, policy.label);
        Cell cell{result.makespan, result.wasted_seconds};
        json.add(strag.label + "/" + algo.label + "/" + policy.label +
                     "_total_s",
                 cell.total);
        json.add(strag.label + "/" + algo.label + "/" + policy.label +
                     "_wasted_s",
                 cell.wasted);
        std::string text = TextTable::Num(cell.total);
        if (cell.wasted > 0) {
          text += " (" + TextTable::Num(cell.wasted) + ")";
        }
        rendered.push_back(std::move(text));
        row.push_back(cell);
      }
      for (std::size_t p = 0; p < row.size(); ++p) {
        if (row[p].total < row[best].total) best = p;
      }
      table.add_row({strag.label, algo.label, rendered[0], rendered[1],
                     rendered[2], matrix.policies[best].label});
      cells[strag.label][algo.label] = row;
    }
  }
  table.render(std::cout);

  // ---- The regimes the sweep must expose ----
  // (Indices: 0 = none, 1 = spec, 2 = coded.)

  // Healthy cluster: no policy may hurt (equal-split stages mean no
  // node is late enough to trigger anything).
  for (const auto& algo : matrix.algos) {
    const auto& row = cells["healthy"][algo.label];
    CTS_CHECK_LE(row[1].total, row[0].total * 1.0001);
    CTS_CHECK_LE(row[2].total, row[0].total * 1.0001);
  }

  // Short fail-stop outage: the K-of-N coded Map beats BOTH
  // no-mitigation and speculation on the coded runs — the node is
  // back before anyone needs it again, so the Map barrier was the
  // whole cost and the placement absorbs it.
  int coded_policy_wins = 0;
  for (const std::string algo : {"coded_r3", "coded_r5"}) {
    const auto& row = cells["fail8"][algo];
    if (row[2].total < row[0].total && row[2].total < row[1].total) {
      ++coded_policy_wins;
    }
  }
  CTS_CHECK_GT(coded_policy_wins, 0);
  json.add("regimes/coded_policy_wins", coded_policy_wins);

  // Crossover: once the outage outlasts the Map, the un-droppable
  // later-stage barriers gate the coded policy while speculation
  // re-executes those shares too — the winner flips within the same
  // sweep.
  int spec_policy_wins = 0;
  for (const std::string algo : {"coded_r3", "coded_r5"}) {
    const auto& row = cells["fail1200"][algo];
    if (row[1].total < row[2].total) ++spec_policy_wins;
  }
  CTS_CHECK_GT(spec_policy_wins, 0);
  json.add("regimes/spec_policy_wins", spec_policy_wins);

  // Plain TeraSort has no replicated inputs: the coded policy must
  // degenerate to none on every scenario.
  for (const auto& [scen, algo_rows] : cells) {
    const auto& row = algo_rows.at("terasort");
    CTS_CHECK_LE(std::abs(row[2].total - row[0].total),
                 row[0].total * 1e-9);
  }

  std::cout << "\ncoded-policy wins (short outages, coded runs): "
            << coded_policy_wins
            << "; speculation wins (fail1200 crossover): "
            << spec_policy_wins << "\n";
  std::cout
      << "A short outage is absorbed by the r-replicated placement —\n"
         "the Map barrier releases at K-r+1 completions and the node\n"
         "is back before the next stage needs it. Stretch the outage\n"
         "past the Map and the later (unreplicated) barriers dominate:\n"
         "speculative re-execution, which also re-runs those shares,\n"
         "takes the win — the crossover this sweep prices.\n";
  json.write();
}

struct Preset {
  std::string_view name;
  void (*run)(JsonReport&);
};

constexpr Preset kPresets[] = {
    {"table1", Table1},
    {"table2", Table2},
    {"table3", Table3},
    {"fig2", Fig2},
    {"model", Model},
    {"sweep_k", SweepK},
    {"sweep_r", SweepR},
    {"ablation_multicast", AblationMulticast},
    {"ablation_codegen", AblationCodegen},
    {"ablation_straggler", AblationStraggler},
    {"ext_scalable_codegen", ExtScalableCodegen},
    {"ext_async", ExtAsync},
    {"scenarios", Scenarios},
    {"mitigation", Mitigation},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string_view name = argc > 1 ? argv[1] : "";
  for (const Preset& preset : kPresets) {
    if (preset.name == name) {
      JsonReport json(std::string(name), argc - 1, argv + 1);
      preset.run(json);
      return 0;
    }
  }
  if (!name.empty()) {
    std::cerr << "bench_paper: unknown preset " << name << "\n";
  }
  std::cerr << "usage: bench_paper PRESET [--json[=path]] [--ledger[=path]]\n"
               "presets:";
  for (const Preset& preset : kPresets) std::cerr << ' ' << preset.name;
  std::cerr << "\n";
  return 2;
}
