// Shared support for the table/figure reproduction harnesses.
//
// Each bench binary reruns the paper's experiment at a reduced scale
// (default 1/100: 1.2 M records standing for the paper's 12 GB =
// 120 M records), prices the measured counters with the calibrated
// CostModel, and prints the paper's numbers next to the reproduced
// ones.
//
// Environment knobs:
//   CTS_RECORDS  — executed record count (default per bench)
//   CTS_SEED     — workload seed (default 2017)
//
// The benches default to the kBalanced key stream: at 1/100 scale a
// uniform stream's per-value Poisson noise inflates zero-padding in
// ways that vanish at paper scale (387 records per intermediate value
// at 12 GB/K=20/r=5, but only ~4 at our scale). The balanced stream has
// the concentration the uniform stream only reaches at full scale.
// Set CTS_UNIFORM=1 to use the uniform stream anyway.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analytics/report.h"
#include "common/table.h"
#include "driver/run_result.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

namespace cts::bench {

// Machine-readable bench output: every bench binary accepts
//   --json            write BENCH_<name>.json in the working directory
//   --json=<path>     write to an explicit path
//   --ledger[=path]   append one run-ledger entry (obs/ledger.h) to
//                     LEDGER_<name>.jsonl or the given file
// and dumps a flat metric -> value object, so CI can record the perf
// trajectory run over run. Keys are stable identifiers
// ("terasort/total_s"); values are doubles.
class JsonReport {
 public:
  JsonReport(std::string bench_name, int argc, char** argv)
      : bench_name_(std::move(bench_name)) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        path_ = "BENCH_" + bench_name_ + ".json";
      } else if (arg.rfind("--json=", 0) == 0) {
        path_ = arg.substr(7);
        if (path_.empty()) {
          std::cerr << bench_name_ << ": --json= needs a path\n";
          std::exit(2);
        }
      } else if (arg == "--ledger") {
        ledger_path_ = "LEDGER_" + bench_name_ + ".jsonl";
      } else if (arg.rfind("--ledger=", 0) == 0) {
        ledger_path_ = arg.substr(9);
        if (ledger_path_.empty()) {
          std::cerr << bench_name_ << ": --ledger= needs a path\n";
          std::exit(2);
        }
      } else {
        std::cerr << bench_name_ << ": unknown flag " << arg
                  << " (only --json[=path] and --ledger[=path] are "
                     "supported; scale knobs are CTS_* environment "
                     "variables)\n";
        std::exit(2);
      }
    }
  }

  // Programmatic variant (no flag parsing): used by tools like ctsort
  // whose flag surface is larger than --json, and by tests. An empty
  // path disables the report like a missing --json flag would.
  JsonReport(std::string bench_name, std::string path)
      : bench_name_(std::move(bench_name)), path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }

  void add(const std::string& key, double value) { metrics_[key] = value; }

  // Bulk ingestion of an already-flat metric map (e.g.
  // job::JobResult::metrics).
  void add_all(const std::map<std::string, double>& metrics) {
    for (const auto& [key, value] : metrics) add(key, value);
  }

  // One metric per stage plus the total, prefixed "<algo>/".
  void add_breakdown(const std::string& prefix, const StageBreakdown& b) {
    for (const auto& s : b.stages) {
      if (s.seconds != 0) add(prefix + "/" + s.name + "_s", s.seconds);
    }
    add(prefix + "/total_s", b.total());
  }

  // Flight-recorder export: each series of `tl` contributes three
  // flat keys under the artifact's nested "timeline" block —
  // <prefix>/<key>/samples, .../final (the last sampled value) and
  // .../digest (the series' FNV digest XOR-folded to 32 bits, exactly
  // representable as a JSON number) — and, when a ledger is being
  // written, its full 64-bit digest in the entry's timeline map.
  void add_timeline(const std::string& prefix, const obs::Timeline& tl) {
    for (const auto& [key, samples] : tl.series()) {
      const std::string base = prefix.empty() ? key : prefix + "/" + key;
      const std::uint64_t digest = tl.SeriesDigest(key);
      timeline_[base + "/samples"] =
          static_cast<double>(samples.size());
      timeline_[base + "/final"] =
          samples.empty() ? 0.0 : samples.back().value;
      timeline_[base + "/digest"] = static_cast<double>(
          (digest >> 32) ^ (digest & 0xffffffffULL));
      ledger_timeline_[base] = obs::HexDigest(digest);
    }
  }

  // Ledger identity: axes are the filterable spec coordinates of this
  // invocation; the fingerprint defaults to the FNV hash of
  // bench/run/axes and may be pinned explicitly (ctsort hashes the
  // RunCache key instead, so equal cells fingerprint equal across
  // tools).
  void set_axis(const std::string& key, const std::string& value) {
    axes_[key] = value;
  }
  void set_run(const std::string& run) { run_ = run; }
  void set_fingerprint(const std::string& fp) { fingerprint_ = fp; }
  bool ledger_enabled() const { return !ledger_path_.empty(); }
  const std::string& ledger_path() const { return ledger_path_; }

  // Writes the artifacts. Returns true if the JSON file was written
  // (no-op without --json); the ledger entry appends independently
  // behind --ledger. Alongside the flat bench metrics, the artifact
  // embeds the process-wide obs::MetricRegistry snapshot under one
  // nested "metrics" object (omitted while the registry is empty) and
  // the flight-recorder summary under a nested "timeline" object
  // (omitted while no timeline was added), so every bench JSON
  // doubles as an observability readout — CheckBenchJsonSchema
  // validates both extensions and ctstat flattens them into
  // "metrics/<name>" / "timeline/<name>" keys (obs::ParseBenchJson).
  bool write() const {
    const std::map<std::string, double> snapshot =
        obs::MetricRegistry::Global().Snapshot();
    WriteLedger(snapshot);
    if (!enabled()) return false;
    std::ofstream out(path_);
    if (!out) {
      std::cerr << bench_name_ << ": cannot write " << path_ << "\n";
      std::exit(1);
    }
    const auto number = [&out](double value) {
      // JSON has no Inf/NaN literals.
      if (std::isfinite(value)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        out << buf;
      } else {
        out << "null";
      }
    };
    const auto nested = [&](const char* name,
                            const std::map<std::string, double>& block) {
      if (block.empty()) return;
      out << ",\n  \"" << name << "\": {";
      bool first = true;
      for (const auto& [key, value] : block) {
        out << (first ? "\n    \"" : ",\n    \"") << key << "\": ";
        number(value);
        first = false;
      }
      out << "\n  }";
    };
    out << "{\n  \"bench\": \"" << bench_name_ << "\"";
    for (const auto& [key, value] : metrics_) {
      out << ",\n  \"" << key << "\": ";
      number(value);
    }
    nested("metrics", snapshot);
    nested("timeline", timeline_);
    out << "\n}\n";
    std::cout << "wrote " << path_ << " (" << metrics_.size()
              << " metrics, " << snapshot.size() << " registry entries)\n";
    return true;
  }

 private:
  void WriteLedger(const std::map<std::string, double>& snapshot) const {
    if (ledger_path_.empty()) return;
    obs::LedgerEntry entry;
    entry.bench = bench_name_;
    entry.run = run_.empty() ? bench_name_ : run_;
    entry.code_version = obs::CodeVersion();
    entry.axes = axes_;
    entry.values = metrics_;
    for (const auto& [key, value] : snapshot) {
      entry.values["metrics/" + key] = value;
    }
    entry.timeline = ledger_timeline_;
    if (!fingerprint_.empty()) {
      entry.fingerprint = fingerprint_;
    } else {
      std::string identity = bench_name_ + "|" + entry.run;
      for (const auto& [k, v] : axes_) identity += "|" + k + "=" + v;
      entry.fingerprint = obs::HexDigest(obs::Fingerprint64(identity));
    }
    if (!obs::AppendEntry(ledger_path_, entry)) {
      std::cerr << bench_name_ << ": cannot append to ledger "
                << ledger_path_ << "\n";
      std::exit(1);
    }
    std::cout << "appended ledger entry " << entry.fingerprint << " to "
              << ledger_path_ << "\n";
  }

  std::string bench_name_;
  std::string path_;
  std::string ledger_path_;
  std::string run_;
  std::string fingerprint_;
  std::map<std::string, std::string> axes_;
  std::map<std::string, double> metrics_;  // sorted, deterministic
  std::map<std::string, double> timeline_;
  std::map<std::string, std::string> ledger_timeline_;
};

// Validates the flat bench-JSON schema JsonReport emits, so the CI
// artifacts stay machine-parseable (ctstat gates them): the rules of
// obs::ParseBenchJson, plus `required` — flattened metric keys that
// must be present (a null counts as present). Returns an empty string
// on success, else a description of the first violation.
inline std::string CheckBenchJsonSchema(
    const std::string& content,
    const std::vector<std::string>& required = {}) {
  obs::LedgerEntry entry;
  std::string error;
  if (!obs::ParseBenchJson(content, &entry, &error)) return error;
  for (const std::string& key : required) {
    if (!entry.values.count(key)) {
      return "missing required key \"" + key + "\"";
    }
  }
  return "";
}

// The paper's workload: 12 GB = 120 M 100-byte records.
inline constexpr std::uint64_t kPaperRecords = 120'000'000;

inline std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
}

inline SortConfig BenchConfig(int K, int r, std::uint64_t default_records) {
  SortConfig config;
  config.num_nodes = K;
  config.redundancy = r;
  config.num_records = EnvU64("CTS_RECORDS", default_records);
  config.seed = EnvU64("CTS_SEED", 2017);
  config.distribution = EnvU64("CTS_UNIFORM", 0) != 0
                            ? KeyDistribution::kUniform
                            : KeyDistribution::kBalanced;
  return config;
}

// The calibrated-testbed pricing every bench uses: the EC2 CostModel
// plus the RunScale mapping the executed record count to the reported
// paper workload. One helper instead of the same two lines at the top
// of every bench main.
struct BenchPricing {
  CostModel model;
  RunScale scale;
};

inline BenchPricing PaperPricing(const SortConfig& config,
                                 std::uint64_t reported_records =
                                     kPaperRecords) {
  return BenchPricing{CostModel{},
                      PaperScale(config.num_records, reported_records)};
}

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

inline TextTable PaperTable(const std::string& title,
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
inline void PrintComparison(const std::vector<PaperRow>& paper,
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

// Mean and sample standard deviation of repeated-trial totals. The
// paper reports 5-run averages; set CTS_TRIALS to mimic (the spread
// here comes only from the workload seed — there is no EC2 jitter).
struct TrialStats {
  double mean = 0;
  double stddev = 0;
};

inline TrialStats Summarize(const std::vector<double>& samples) {
  TrialStats s;
  if (samples.empty()) return s;
  for (const double v : samples) s.mean += v;
  s.mean /= static_cast<double>(samples.size());
  if (samples.size() > 1) {
    double var = 0;
    for (const double v : samples) var += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(var / static_cast<double>(samples.size() - 1));
  }
  return s;
}

// Runs `run(seed)` for CTS_TRIALS distinct seeds (default 1) and
// returns the per-trial totals.
template <typename Fn>
std::vector<double> RunTrials(const SortConfig& base, Fn&& run) {
  const std::uint64_t trials = EnvU64("CTS_TRIALS", 1);
  std::vector<double> totals;
  totals.reserve(trials);
  for (std::uint64_t t = 0; t < trials; ++t) {
    totals.push_back(run(base.seed + t));
  }
  return totals;
}

inline void PrintRunBanner(const SortConfig& config) {
  std::cout << "executed scale: " << config.num_records << " records ("
            << HumanBytes(static_cast<double>(config.total_bytes()))
            << "), reported at paper scale " << kPaperRecords
            << " records (12.00 GB); K=" << config.num_nodes
            << ", seed=" << config.seed << "\n\n";
}

}  // namespace cts::bench
