// Shared support for bench_paper's presets and the tools' JSON and
// ledger output.
//
// Each preset reruns the paper's experiment at a reduced scale
// (default 1/100: 1.2 M records standing for the paper's 12 GB =
// 120 M records), prices the measured counters with the calibrated
// CostModel, and prints the paper's numbers next to the reproduced
// ones.
//
// Environment knobs, each a whole base-10 number (anything else exits
// 2 with the variable named):
//   CTS_RECORDS  — executed record count (default per preset; >= 1)
//   CTS_SEED     — workload seed (default 2017)
//   CTS_TRIALS   — repeated trials of the paper tables (default 1)
//   CTS_UNIFORM  — nonzero selects the uniform key stream
//
// The presets default to the kBalanced key stream: at 1/100 scale a
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
#include <optional>
#include <string>
#include <vector>

#include "common/numparse.h"
#include "common/table.h"
#include "common/units.h"
#include "driver/run_result.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

namespace cts::bench {

// Machine-readable bench output: every bench_paper preset accepts
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

  // Flight-recorder export: each series of `tl` contributes three
  // flat keys under the artifact's nested "timeline" block —
  // <prefix>/<key>/samples, .../final (the last sampled value) and
  // .../digest (the series' FNV digest XOR-folded to 32 bits, exactly
  // representable as a JSON number).
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
    }
  }

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
  // One entry per invocation: run = the bench name, no axes, and the
  // fingerprint is the FNV hash of "<bench>|<bench>".
  void WriteLedger(const std::map<std::string, double>& snapshot) const {
    if (ledger_path_.empty()) return;
    obs::LedgerEntry entry;
    entry.bench = bench_name_;
    entry.run = bench_name_;
    entry.code_version = obs::CodeVersion();
    entry.values = metrics_;
    for (const auto& [key, value] : snapshot) {
      entry.values["metrics/" + key] = value;
    }
    entry.fingerprint =
        obs::HexDigest(obs::Fingerprint64(bench_name_ + "|" + bench_name_));
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
  std::map<std::string, double> metrics_;  // sorted, deterministic
  std::map<std::string, double> timeline_;
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

// Reads a whole base-10 uint64 knob (ParseU64); an unset or empty
// variable keeps `fallback`. Anything else — a sign, a space, an
// exponent, trailing text, a value past 2^64 - 1 or below `min` —
// prints the variable and exits 2.
inline std::uint64_t EnvU64(const char* name, std::uint64_t fallback,
                            std::uint64_t min = 0) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::optional<std::uint64_t> value = ParseU64(v);
  if (!value || *value < min) {
    std::cerr << name << "=" << v << ": expected a whole number";
    if (min > 0) std::cerr << " >= " << min;
    std::cerr << "\n";
    std::exit(2);
  }
  return *value;
}

inline SortConfig BenchConfig(int K, int r, std::uint64_t default_records) {
  SortConfig config;
  config.num_nodes = K;
  config.redundancy = r;
  config.num_records = EnvU64("CTS_RECORDS", default_records, 1);
  config.seed = EnvU64("CTS_SEED", 2017);
  config.distribution = EnvU64("CTS_UNIFORM", 0) != 0
                            ? KeyDistribution::kUniform
                            : KeyDistribution::kBalanced;
  return config;
}

inline void PrintRunBanner(const SortConfig& config) {
  std::cout << "executed scale: " << config.num_records << " records ("
            << HumanBytes(static_cast<double>(config.total_bytes()))
            << "), reported at paper scale " << kPaperRecords
            << " records (12.00 GB); K=" << config.num_nodes
            << ", seed=" << config.seed << "\n\n";
}

}  // namespace cts::bench
