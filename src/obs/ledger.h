// The run ledger: an append-only on-disk JSONL record of evaluated
// runs — the first durable artifact on the ROADMAP's path from the
// in-memory RunCache to a persistent, multi-tenant job service.
//
// One line per recorded run:
//
//   {"bench":"ctsort","run":"terasort","fingerprint":"9e10…",
//    "code_version":"3fd0885","axes":{"K":"16","backend":"priced"},
//    "values":{"terasort/total_s":"0x1.9f…p+9"},
//    "timeline":{"des/inflight_flows":"c0ffee…"}}
//
// Design rules:
//   * Exactness. Every double is serialized as a C hex float ("%a"),
//     so write -> read -> re-emit reproduces each value bit for bit
//     (ledger_test pins it; Python reads them via float.fromhex).
//     JSON numbers would round through decimal; strings of hex floats
//     do not.
//   * Canonical form. Maps serialize in key order with no
//     discretionary whitespace, so equal entries serialize to equal
//     bytes — diffing two ledger lines is diffing two runs.
//   * Append-only. AppendEntry opens O_APPEND-style and writes one
//     line; concurrent writers interleave whole lines, and a reader
//     can always take the latest entry per fingerprint as "current".
//   * Identity. `fingerprint` is FNV-1a over whatever spec identity
//     string the producer chose (ctsort uses the RunCache key plus
//     backend/scenario axes) — entries with equal fingerprints are
//     comparable runs of the same cell; `code_version` (the
//     CTS_CODE_VERSION compile definition, the git revision in CI)
//     tells releases apart. Timeline series are stored as per-series
//     digests, enough for ctstat to flag drift without replaying.
//
// tools/ctstat queries ledgers (list / filter / compare / --check);
// bench/bench_common.h writes entries behind --ledger=FILE. The same
// JSON scanner reads bench --json artifacts and Google Benchmark output.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/timeline.h"

namespace cts::obs {

struct LedgerEntry {
  std::string bench;         // producing tool or bench binary
  std::string run;           // row label within the bench (axis "run")
  std::string fingerprint;   // 16 lowercase hex chars (Fingerprint64)
  std::string code_version;  // CodeVersion() at write time
  // Spec axes as strings (K, r, backend, scenario, …): the filterable
  // identity of the cell, beyond the fingerprint hash.
  std::map<std::string, std::string> axes;
  // Recorded metrics — breakdown seconds, registry snapshot entries,
  // dollar costs. Exact doubles (hex-float on disk).
  std::map<std::string, double> values;
  // Timeline series key -> 16-hex FNV digest of the series.
  std::map<std::string, std::string> timeline;

  friend bool operator==(const LedgerEntry& a, const LedgerEntry& b) {
    return a.bench == b.bench && a.run == b.run &&
           a.fingerprint == b.fingerprint &&
           a.code_version == b.code_version && a.axes == b.axes &&
           a.values == b.values && a.timeline == b.timeline;
  }
};

// FNV-1a 64 of a spec identity string (same primitive the timeline
// digests use), and its canonical 16-char lowercase hex form.
std::uint64_t Fingerprint64(const std::string& s);
std::string HexDigest(std::uint64_t h);

// Exact textual double: C hex float ("%a"), bit-for-bit reversible
// via strtod / Python float.fromhex.
std::string HexFloat(double v);

// The compiled-in code identity (CTS_CODE_VERSION, "unknown" outside
// a stamped build).
const char* CodeVersion();

// Fills entry.timeline with the per-series digests of `tl`.
void DigestTimeline(const Timeline& tl, LedgerEntry& entry);

// Canonical one-line JSON (no trailing newline).
std::string SerializeEntry(const LedgerEntry& entry);

// Parses one ledger line. Returns false (and sets *error) on
// malformed input; recognizes exactly the subset SerializeEntry
// writes plus arbitrary JSON string escapes.
bool ParseEntry(const std::string& line, LedgerEntry* out,
                std::string* error);

// Bench artifacts read as one entry each, named and fingerprinted by
// the bench (bench == run), nested "metrics"/"timeline" blocks
// flattened to "metrics/<key>"/"timeline/<key>", and JSON null
// (JsonReport's non-finite) read as NaN. ParseBenchJson enforces
// JsonReport's schema: one object, a "bench" string, every other key a
// number or null, no duplicate keys, nesting only under
// "metrics"/"timeline" (flat objects of numbers or nulls).
bool ParseBenchJson(const std::string& content, LedgerEntry* out,
                    std::string* error);

// A Google Benchmark --benchmark_out file: bench "gbench:<executable
// basename>", "<benchmark>/real_time_s" and ".../cpu_time_s" in
// seconds per non-aggregate benchmark.
bool ParseGbenchJson(const std::string& content, LedgerEntry* out,
                     std::string* error);

// Appends one line to `path` (creating the file), returning false on
// I/O failure.
bool AppendEntry(const std::string& path, const LedgerEntry& entry);

// All entries of one file in file order, telling three formats apart
// by the keys of the file's first object: "benchmarks" marks Google
// Benchmark output, "fingerprint" a run ledger (one entry per line),
// anything else a bench --json artifact. An artifact reads as a
// single entry; *artifact tells which kind was read. Malformed input,
// an empty file included, aborts the read: *error names the file (and
// line), and the entries parsed so far are returned.
std::vector<LedgerEntry> ReadLedger(const std::string& path,
                                    std::string* error,
                                    bool* artifact = nullptr);

}  // namespace cts::obs
