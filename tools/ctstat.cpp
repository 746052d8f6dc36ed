// ctstat — trend queries over run ledgers (obs/ledger.h): the query
// half of the flight recorder, and the repo's one regression gate.
// ctsort and the bench binaries append one JSONL entry per evaluated
// run behind --ledger=FILE and write bench --json artifacts; ctstat
// lists, filters, diffs and gates those entries so CI (and a human
// with two ledgers or two artifacts) can answer "did this cell move?"
// without replaying anything.
//
// Usage: ctstat --ledger=FILE[,FILE...] [--flags]
//   --ledger=FILE,...       inputs (required): run ledgers, bench
//                           --json artifacts and Google Benchmark
//                           --benchmark_out files, told apart by
//                           content; each artifact is one entry
//                           fingerprinted by its bench name, and
//                           artifacts of two benches are an error
//   --filter=K=V,...        keep entries matching every K=V; K is an
//                           axis name or one of the pseudo-axes
//                           bench, run, fingerprint, code_version
//                           (fingerprint matches by prefix)
//   --metric=KEY            value column of the list view (default:
//                           the entry's first key ending in the gate
//                           suffix)
//   --compare=FPA,FPB       per-metric deltas between the latest
//                           entry of each fingerprint (prefixes ok),
//                           including timeline digest drift
//   --check                 gate: per fingerprint with >= 2 entries,
//                           compare latest vs first on every key
//                           ending in --suffix; growth beyond
//                           --threshold exits 1; a lone artifact
//                           (the only --ledger file) must carry a
//                           finite --suffix key and no null one
//   --suffix=total_s        gating key suffix
//   --threshold=0.15        allowed relative growth
//   --re-emit               print each kept entry's canonical
//                           serialization — byte-identical to the
//                           file for well-formed ledgers, which
//                           ledger_test pins as the exactness check
//   --csv[=PATH]            long-form CSV (one row per entry value)
//                           to stdout (bare) or PATH
//   --json=PATH             bench-schema JSON summary (ctstat/entries,
//                           ctstat/regressions, ...)
//   --quiet                 suppress the text tables
//
// Exit status: 0 clean, 1 gate failure (--check only), 2 usage or
// parse error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/table.h"
#include "obs/ledger.h"
#include "tools/flag_parser.h"

namespace {

using namespace cts;
using cts::tools::Flags;
using cts::tools::Split;
using obs::LedgerEntry;

// A --filter clause: axis (or pseudo-axis) name -> required value.
struct Filter {
  std::string key;
  std::string value;
};

bool Matches(const LedgerEntry& e, const Filter& f) {
  if (f.key == "bench") return e.bench == f.value;
  if (f.key == "run") return e.run == f.value;
  if (f.key == "code_version") return e.code_version == f.value;
  if (f.key == "fingerprint") {
    return e.fingerprint.rfind(f.value, 0) == 0;  // prefix match
  }
  const auto it = e.axes.find(f.key);
  return it != e.axes.end() && it->second == f.value;
}

// Ends-with match for gating keys ("coded/total_s" gates under suffix
// "total_s"; a bare key equal to the suffix gates too).
bool GatedKey(const std::string& key, const std::string& suffix) {
  if (key == suffix) return true;
  return key.size() > suffix.size() &&
         key.compare(key.size() - suffix.size(), suffix.size(), suffix) ==
             0 &&
         (key[key.size() - suffix.size() - 1] == '/' ||
          key[key.size() - suffix.size() - 1] == '_');
}

// Relative growth new vs old. A non-positive baseline has no relative
// scale: growing from it counts as infinite growth (a makespan that
// used to be free now costs time), anything else as none.
double Growth(double oldv, double newv) {
  if (oldv <= 0) {
    return newv > oldv ? std::numeric_limits<double>::infinity() : 0;
  }
  return (newv - oldv) / oldv;
}

// The latest entry whose fingerprint starts with `prefix`, or null.
const LedgerEntry* FindByFingerprint(const std::vector<LedgerEntry>& entries,
                                     const std::string& prefix) {
  const LedgerEntry* found = nullptr;
  for (const LedgerEntry& e : entries) {
    if (e.fingerprint.rfind(prefix, 0) == 0) found = &e;
  }
  return found;
}

std::string Short(const std::string& fingerprint) {
  return fingerprint.size() > 8 ? fingerprint.substr(0, 8) : fingerprint;
}

// One gate comparison: latest vs first entry of a fingerprint group.
struct GateRow {
  std::string fingerprint;
  std::string run;
  std::string key;
  double base = 0;
  double latest = 0;
  double growth = 0;
  bool regressed = false;
};

std::vector<GateRow> GateFingerprints(const std::vector<LedgerEntry>& entries,
                                      const std::string& suffix,
                                      double threshold) {
  // Group in file order: first entry is the baseline, last the
  // candidate — the append-only discipline makes file order time
  // order.
  std::vector<std::string> order;
  std::map<std::string, std::pair<const LedgerEntry*, const LedgerEntry*>>
      groups;
  for (const LedgerEntry& e : entries) {
    auto [it, fresh] = groups.try_emplace(e.fingerprint, &e, &e);
    if (fresh) {
      order.push_back(e.fingerprint);
    } else {
      it->second.second = &e;
    }
  }
  std::vector<GateRow> rows;
  for (const std::string& fp : order) {
    const auto& [base, latest] = groups[fp];
    if (base == latest) continue;  // single entry: nothing to gate
    for (const auto& [key, oldv] : base->values) {
      if (!GatedKey(key, suffix)) continue;
      const auto it = latest->values.find(key);
      // Added, removed and null (NaN) metrics never gate.
      if (it == latest->values.end() || std::isnan(oldv) ||
          std::isnan(it->second)) {
        continue;
      }
      GateRow row;
      row.fingerprint = fp;
      row.run = latest->run;
      row.key = key;
      row.base = oldv;
      row.latest = it->second;
      row.growth = Growth(oldv, it->second);
      row.regressed = row.growth > threshold;
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

// Why an artifact with nothing to compare against cannot gate, or ""
// when it can: it needs a finite key under the gate suffix, and a null
// one means the bench stopped producing the number the gate watches.
std::string Ungatable(const LedgerEntry& e, const std::string& suffix) {
  std::string nulls;
  bool gates = false;
  for (const auto& [key, value] : e.values) {
    if (!GatedKey(key, suffix)) continue;
    if (std::isnan(value)) {
      nulls += (nulls.empty() ? "" : ", ") + key;
    } else {
      gates = true;
    }
  }
  if (!nulls.empty()) return "null (non-finite) metric(s): " + nulls;
  if (!gates) return "no *" + suffix + " metric, so it cannot gate";
  return "";
}

void WriteCsv(const std::vector<LedgerEntry>& entries, std::ostream& out) {
  out << "bench,run,fingerprint,code_version,key,value\n";
  for (const LedgerEntry& e : entries) {
    for (const auto& [key, value] : e.values) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out << e.bench << ',' << e.run << ',' << e.fingerprint << ','
          << e.code_version << ',' << key << ',' << buf << '\n';
    }
  }
}

// The list view's value column: --metric if given, else the entry's
// first key ending in the gate suffix.
std::string MetricCell(const LedgerEntry& e, const std::string& metric,
                       const std::string& suffix) {
  if (!metric.empty()) {
    const auto it = e.values.find(metric);
    return it == e.values.end() ? "-" : TextTable::Num(it->second, 4);
  }
  for (const auto& [key, value] : e.values) {
    if (GatedKey(key, suffix)) {
      return key + "=" + TextTable::Num(value, 4);
    }
  }
  return "-";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, "ctstat");

  const std::string ledger = flags.Get("ledger", "");
  std::vector<Filter> filters;
  for (const std::string& clause : Split(flags.Get("filter", ""))) {
    if (clause.empty()) continue;
    const auto eq = clause.find('=');
    if (eq == std::string::npos || eq == 0) {
      Flags::Fail("--filter clause '" + clause + "' is not K=V");
    }
    filters.push_back({clause.substr(0, eq), clause.substr(eq + 1)});
  }
  const std::string metric = flags.Get("metric", "");
  const std::string compare = flags.Get("compare", "");
  const bool check = flags.GetBool("check");
  const std::string suffix = flags.Get("suffix", "total_s");
  const double threshold = flags.GetDouble("threshold", 0.15);
  const bool re_emit = flags.GetBool("re-emit");
  const std::string csv = flags.Get("csv", "");
  const std::string json = flags.Get("json", "");
  const bool quiet = flags.GetBool("quiet");
  flags.CheckAllConsumed();
  if (ledger.empty()) Flags::Fail("--ledger=FILE is required");

  std::vector<LedgerEntry> all;
  const std::vector<std::string> paths = Split(ledger);
  std::string artifact_bench;
  bool alone = false;  // one artifact and no other input: no baseline
  for (const std::string& path : paths) {
    std::string error;
    bool artifact = false;
    std::vector<LedgerEntry> read = obs::ReadLedger(path, &error, &artifact);
    if (!error.empty()) Flags::Fail(error);
    if (artifact) {
      const std::string& bench = read.front().bench;
      if (!artifact_bench.empty() && bench != artifact_bench) {
        Flags::Fail("comparing different benches ('" + artifact_bench +
                    "' vs '" + bench + "')");
      }
      artifact_bench = bench;
      alone = paths.size() == 1;
    }
    for (LedgerEntry& e : read) all.push_back(std::move(e));
  }

  std::vector<LedgerEntry> entries;
  for (LedgerEntry& e : all) {
    bool keep = true;
    for (const Filter& f : filters) keep = keep && Matches(e, f);
    if (keep) entries.push_back(std::move(e));
  }

  if (re_emit) {
    for (const LedgerEntry& e : entries) {
      std::cout << obs::SerializeEntry(e) << '\n';
    }
  }

  if (!quiet && !re_emit && compare.empty() && !check) {
    TextTable table("ctstat — " + ledger + ": " +
                    std::to_string(entries.size()) + " of " +
                    std::to_string(all.size()) + " entries");
    table.set_header({"bench", "run", "fingerprint", "code", "values",
                      "series", "metric"});
    for (const LedgerEntry& e : entries) {
      table.add_row({e.bench, e.run, Short(e.fingerprint),
                     Short(e.code_version),
                     std::to_string(e.values.size()),
                     std::to_string(e.timeline.size()),
                     MetricCell(e, metric, suffix)});
    }
    table.render(std::cout);
  }

  if (!compare.empty()) {
    const std::vector<std::string> fps = Split(compare);
    if (fps.size() != 2) Flags::Fail("--compare expects FPA,FPB");
    const LedgerEntry* a = FindByFingerprint(entries, fps[0]);
    const LedgerEntry* b = FindByFingerprint(entries, fps[1]);
    if (a == nullptr) Flags::Fail("no entry matches fingerprint " + fps[0]);
    if (b == nullptr) Flags::Fail("no entry matches fingerprint " + fps[1]);
    if (!quiet) {
      TextTable table("ctstat compare — " + a->run + " (" +
                      Short(a->fingerprint) + ") vs " + b->run + " (" +
                      Short(b->fingerprint) + ")");
      table.set_header({"metric", "a", "b", "delta", "growth"});
      for (const auto& [key, av] : a->values) {
        const auto it = b->values.find(key);
        if (it == b->values.end()) {
          table.add_row({key, TextTable::Num(av, 4), "-", "-", "-"});
          continue;
        }
        const double g = Growth(av, it->second);
        table.add_row({key, TextTable::Num(av, 4),
                       TextTable::Num(it->second, 4),
                       TextTable::Num(it->second - av, 4),
                       std::isfinite(g)
                           ? TextTable::Num(g * 100, 1) + "%"
                           : "inf"});
      }
      for (const auto& [key, bv] : b->values) {
        if (!a->values.count(key)) {
          table.add_row({key, "-", TextTable::Num(bv, 4), "-", "-"});
        }
      }
      // Timeline drift: digest equality per series — a drifted digest
      // means the flight recorder saw a different run, even if the
      // scalar metrics agree.
      for (const auto& [key, da] : a->timeline) {
        const auto it = b->timeline.find(key);
        const std::string verdict =
            it == b->timeline.end() ? "missing"
            : it->second == da      ? "same"
                                    : "drift";
        table.add_row({"timeline " + key, Short(da),
                       it == b->timeline.end() ? "-" : Short(it->second),
                       verdict, "-"});
      }
      table.render(std::cout);
    }
  }

  int regressions = 0;
  double max_growth = 0;
  bool ungatable = false;
  if (check) {
    const std::vector<GateRow> rows =
        GateFingerprints(entries, suffix, threshold);
    if (!quiet) {
      TextTable table("ctstat check — suffix " + suffix + ", threshold " +
                      TextTable::Num(threshold * 100, 0) + "%");
      table.set_header({"fingerprint", "run", "metric", "first", "latest",
                        "growth", "status"});
      for (const GateRow& row : rows) {
        table.add_row({Short(row.fingerprint), row.run, row.key,
                       TextTable::Num(row.base, 4),
                       TextTable::Num(row.latest, 4),
                       std::isfinite(row.growth)
                           ? TextTable::Num(row.growth * 100, 1) + "%"
                           : "inf",
                       row.regressed ? "REGRESSION" : "ok"});
      }
      table.render(std::cout);
    }
    for (const GateRow& row : rows) {
      if (row.regressed) ++regressions;
      if (std::isfinite(row.growth)) {
        max_growth = std::max(max_growth, row.growth);
      }
    }
    if (regressions > 0) {
      std::cerr << "ctstat: " << regressions << " metric(s) grew beyond "
                << TextTable::Num(threshold * 100, 0) << "% in " << ledger
                << "\n";
    }
    if (alone && !entries.empty()) {
      const std::string why = Ungatable(entries.front(), suffix);
      if (!why.empty()) {
        std::cerr << "ctstat: " << entries.front().bench << ": " << why
                  << "\n";
        ungatable = true;
      }
    }
  }

  if (!csv.empty()) {
    if (csv == "true") {  // bare --csv
      WriteCsv(entries, std::cout);
    } else {
      std::ofstream out(csv);
      if (!out) Flags::Fail("cannot write " + csv);
      WriteCsv(entries, out);
    }
  }

  bench::JsonReport report("ctstat", json);
  report.add("ctstat/entries", static_cast<double>(entries.size()));
  report.add("ctstat/filtered_out",
             static_cast<double>(all.size() - entries.size()));
  if (check) {
    report.add("ctstat/regressions", regressions);
    report.add("ctstat/max_growth", max_growth);
  }
  report.write();

  return regressions > 0 || ungatable ? 1 : 0;
}
