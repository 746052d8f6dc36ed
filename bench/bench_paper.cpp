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
// priced JobMatrix (Priced below): the real algorithm runs at reduced
// scale and its measured byte/message counters are priced by the
// EC2-calibrated cost model at the paper's 12 GB. Ablations re-price
// those same executions under variant models or counters.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "analytics/cost_model.h"
#include "analytics/loads.h"
#include "analytics/report.h"
#include "analytics/time_model.h"
#include "bench/bench_common.h"
#include "cmr/cmr.h"
#include "combinatorics/subsets.h"
#include "common/table.h"
#include "job/matrix.h"

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

// Executes each cell once and prices it at the paper's 12 GB with the
// calibrated CostModel. Each execution's sorted output is released
// after pricing; its counters stay on `execution` for re-pricing.
job::MatrixResults Priced(std::vector<job::AlgoAxis> algos) {
  job::JobMatrix matrix;
  matrix.algos = std::move(algos);
  matrix.backend = job::Backend::kPriced;
  matrix.paper_records = kPaperRecords;
  return job::RunMatrix(matrix);
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
