// The run ledger (src/obs/ledger.h): exact hex-float round-trips —
// write -> parse -> re-emit must reproduce every double bit for bit
// and every line byte for byte —, the bench-JSON and Google Benchmark
// readers that share the ledger's JSON scanner, plus the ctstat
// regression gate over all three formats: an injected >15% makespan
// growth on a fingerprint must make `ctstat --check` exit nonzero
// (driven through the real binary via CTSTAT_BIN, which CMake points
// at the built ctstat).
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

namespace cts::obs {
namespace {

std::uint64_t Bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, 8);
  return b;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

// A Google Benchmark --benchmark_out file: two raw runs in different
// time units around a repetition aggregate.
std::string GbenchJson(double pack_cpu_ns) {
  return R"({"context": {"executable": "/build/bench_micro",
                  "num_cpus": 4, "caches": [{"type": "Data", "level": 1}]},
  "benchmarks": [
    {"name": "BM_Pack", "run_type": "iteration", "iterations": 1000,
     "real_time": 250.0, "cpu_time": )" +
         std::to_string(pack_cpu_ns) + R"(, "time_unit": "ns"},
    {"name": "BM_Pack_mean", "run_type": "aggregate",
     "aggregate_name": "mean", "real_time": 1.0, "cpu_time": 1.0,
     "time_unit": "ns"},
    {"name": "BM_Sort", "run_type": "iteration", "real_time": 2.0,
     "cpu_time": 1.5, "time_unit": "ms", "label": "x", "ok": true,
     "bytes_per_second": Infinity, "items_per_second": NaN}
  ]})";
}

LedgerEntry SampleEntry() {
  LedgerEntry e;
  e.bench = "ctsort";
  e.run = "terasort";
  e.fingerprint = "00c0ffee00c0ffee";
  e.code_version = "deadbee";
  e.axes = {{"K", "4"}, {"backend", "priced"}};
  e.values = {{"terasort/total_s", 123.456}};
  e.timeline = {{"des/inflight_flows", "0123456789abcdef"}};
  return e;
}

TEST(Ledger, HexFloatIsExact) {
  const std::vector<double> nasty = {
      0.0,
      -0.0,
      1.0 / 3.0,
      0.1,
      3.141592653589793,
      1e308,
      -1.7976931348623157e308,   // -DBL_MAX
      2.2250738585072014e-308,   // DBL_MIN
      4.9406564584124654e-324,   // smallest denormal
      -4.9406564584124654e-324,
      std::numeric_limits<double>::infinity(),
  };
  for (const double v : nasty) {
    const std::string text = HexFloat(v);
    char* end = nullptr;
    const double back = std::strtod(text.c_str(), &end);
    ASSERT_NE(end, text.c_str()) << text;
    EXPECT_EQ(*end, '\0') << text;
    std::uint64_t vb = 0, bb = 0;
    std::memcpy(&vb, &v, 8);
    std::memcpy(&bb, &back, 8);
    EXPECT_EQ(vb, bb) << text;  // bitwise, so -0.0 stays -0.0
  }
}

TEST(Ledger, SerializeParseRoundTripsBytes) {
  LedgerEntry e = SampleEntry();
  e.values["nasty/third"] = 1.0 / 3.0;
  e.values["nasty/neg_zero"] = -0.0;
  e.values["nasty/denormal"] = 4.9406564584124654e-324;
  e.axes["quote\"and\\slash"] = "tab\there";

  const std::string line = SerializeEntry(e);
  LedgerEntry parsed;
  std::string error;
  ASSERT_TRUE(ParseEntry(line, &parsed, &error)) << error;
  EXPECT_TRUE(parsed == e);
  EXPECT_EQ(SerializeEntry(parsed), line);

  // -0.0 must survive as -0.0, not 0.0: map equality uses ==, which
  // aliases the two, so check the sign bit explicitly.
  EXPECT_TRUE(std::signbit(parsed.values.at("nasty/neg_zero")));
}

TEST(Ledger, ParseRejectsMalformedLines) {
  LedgerEntry out;
  std::string error;
  EXPECT_FALSE(ParseEntry("", &out, &error));
  EXPECT_FALSE(ParseEntry("{}", &out, &error));
  EXPECT_FALSE(ParseEntry("{\"unknown\":\"x\"}", &out, &error));
  EXPECT_FALSE(ParseEntry("{\"bench\":\"b\"} trailing", &out, &error));
  EXPECT_FALSE(
      ParseEntry("{\"values\":{\"k\":\"not-a-number\"}}", &out, &error));
  EXPECT_FALSE(
      ParseEntry("{\"axes\":{\"k\":\"a\",\"k\":\"b\"}}", &out, &error));
}

// JsonReport's nested registry and timeline blocks flatten into
// namespaced keys that never gate; nulls read as NaN.
TEST(Ledger, BenchJsonFlattensNestedBlocks) {
  LedgerEntry e;
  std::string error;
  ASSERT_TRUE(ParseBenchJson(R"({"bench": "demo", "terasort/total_s": 1.5,
    "metrics": {"simmpi/Shuffle/unicast_bytes": 4096.0, "bad": null},
    "timeline": {"terasort/des/inflight_flows/digest": 3133078222}})",
                             &e, &error))
      << error;
  EXPECT_EQ(e.bench, "demo");
  EXPECT_EQ(e.run, "demo");
  EXPECT_EQ(e.fingerprint, HexDigest(Fingerprint64("demo")));
  EXPECT_TRUE(std::isnan(e.values.at("metrics/bad")));
  e.values.erase("metrics/bad");
  EXPECT_EQ(e.values,
            (std::map<std::string, double>{
                {"terasort/total_s", 1.5},
                {"metrics/simmpi/Shuffle/unicast_bytes", 4096.0},
                {"timeline/terasort/des/inflight_flows/digest",
                 3133078222.0}}));
  // A top-level key colliding with a flattened nested one is ambiguous.
  EXPECT_FALSE(ParseBenchJson(
      R"({"bench":"x","metrics/a":1,"metrics":{"a":2}})", &e, &error));
}

TEST(Ledger, GbenchDropsAggregatesAndConvertsUnits) {
  LedgerEntry e;
  std::string error;
  ASSERT_TRUE(ParseGbenchJson(GbenchJson(200.0), &e, &error)) << error;
  EXPECT_EQ(e.bench, "gbench:bench_micro");
  ASSERT_EQ(e.values.size(), 4u);
  EXPECT_EQ(e.values.at("BM_Pack/real_time_s"), 250.0 * 1e-9);
  EXPECT_EQ(e.values.at("BM_Pack/cpu_time_s"), 200.0 * 1e-9);
  EXPECT_EQ(e.values.at("BM_Sort/real_time_s"), 2.0 * 1e-3);
  EXPECT_EQ(e.values.at("BM_Sort/cpu_time_s"), 1.5 * 1e-3);

  // An unknown time unit or a nameless run is malformed.
  EXPECT_FALSE(ParseGbenchJson(
      R"({"benchmarks":[{"name":"a","real_time":1,"time_unit":"ks"}]})", &e,
      &error));
  EXPECT_FALSE(
      ParseGbenchJson(R"({"benchmarks":[{"real_time":1}]})", &e, &error));
  // Skipped values still scan; nesting deep enough to exhaust the
  // stack fails cleanly.
  const std::string deep = std::string(100000, '[') + std::string(100000, ']');
  EXPECT_FALSE(ParseGbenchJson(R"({"unused":)" + deep + "}", &e, &error));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

// The same JsonReport::write() emits both artifacts; the JSON (decimal
// "%.17g") and the ledger entry (hex floats) must carry the same bits
// for every value, so gating either one gates the same numbers.
TEST(Ledger, JsonReportAndLedgerEntryHoldIdenticalBits) {
  const std::string json = "ledger_test_bits.json";
  const std::string ledger = "ledger_test_bits.jsonl";
  std::remove(ledger.c_str());
  char arg0[] = "ledger_test";
  std::string json_flag = "--json=" + json;
  std::string ledger_flag = "--ledger=" + ledger;
  char* argv[] = {arg0, json_flag.data(), ledger_flag.data()};
  bench::JsonReport report("bits", 3, argv);
  for (const double v : {1.0 / 3.0, 0.1, 4.9406564584124654e-324, -0.0,
                         1.7976931348623157e308,
                         std::numeric_limits<double>::infinity()}) {
    report.add("v" + HexFloat(v) + "/total_s", v);
  }
  MetricRegistry::Global().counter("test/ledger_bits").add(7);
  ASSERT_TRUE(report.write());

  std::string error;
  bool artifact = false;
  const std::vector<LedgerEntry> from_json = ReadLedger(json, &error, &artifact);
  ASSERT_EQ(from_json.size(), 1u) << error;
  EXPECT_TRUE(artifact);
  const std::vector<LedgerEntry> from_ledger =
      ReadLedger(ledger, &error, &artifact);
  ASSERT_EQ(from_ledger.size(), 1u) << error;
  EXPECT_FALSE(artifact);
  const auto& jv = from_json[0].values;
  const auto& lv = from_ledger[0].values;
  EXPECT_EQ(jv.size(), lv.size());
  EXPECT_TRUE(lv.count("metrics/test/ledger_bits"));
  for (const auto& [key, value] : lv) {
    ASSERT_TRUE(jv.count(key)) << key;
    // JSON spells a non-finite value null, which reads back as NaN.
    EXPECT_EQ(Bits(jv.at(key)),
              Bits(std::isfinite(value) ? value
                                        : std::numeric_limits<double>::quiet_NaN()))
        << key;
  }
  std::remove(json.c_str());
  std::remove(ledger.c_str());
}

TEST(Ledger, AppendAndReadBack) {
  const std::string path = "ledger_test_appends.jsonl";
  std::remove(path.c_str());
  LedgerEntry first = SampleEntry();
  LedgerEntry second = SampleEntry();
  second.run = "coded";
  second.values["coded/total_s"] = 0.25;
  ASSERT_TRUE(AppendEntry(path, first));
  ASSERT_TRUE(AppendEntry(path, second));

  std::string error;
  const std::vector<LedgerEntry> entries = ReadLedger(path, &error);
  EXPECT_EQ(error, "");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0] == first);
  EXPECT_TRUE(entries[1] == second);
  std::remove(path.c_str());
}

// Malformed files fail the read with the file and line: an empty file,
// a ledger whose first line breaks before its "fingerprint" key (the
// format is not yet known there), a later ledger line, and a bench
// artifact broken a few lines in.
TEST(Ledger, ReadReportsWhereAFileBreaks) {
  const std::string path = "ledger_test_broken.jsonl";
  const std::string good = SerializeEntry(SampleEntry());
  const struct {
    std::string content;
    std::string prefix;
  } cases[] = {
      {"", path + ": empty file"},
      {" \n\n", path + ": empty file"},
      {"{\"bench\":\"x\",\"run\":}\n" + good + "\n", path + ":1: "},
      {good + "\n{\"bench\":\n", path + ":2: "},
      {"{\n  \"bench\": \"x\",\n  \"a/total_s\": ,\n}\n", path + ":3: "},
  };
  for (const auto& c : cases) {
    WriteFile(path, c.content);
    std::string error;
    const std::vector<LedgerEntry> entries = ReadLedger(path, &error);
    EXPECT_EQ(error.rfind(c.prefix, 0), 0u) << c.content << " -> " << error;
    EXPECT_LE(entries.size(), 1u);
  }
  std::remove(path.c_str());
}

TEST(Ledger, DigestTimelineFillsSeriesDigests) {
  Timeline tl;
  tl.Sample("des/inflight_flows", 0, 1);
  tl.Sample("live/arena_hit_rate", 0, 0.5);
  LedgerEntry e;
  DigestTimeline(tl, e);
  ASSERT_EQ(e.timeline.size(), 2u);
  EXPECT_EQ(e.timeline.at("des/inflight_flows"),
            HexDigest(tl.SeriesDigest("des/inflight_flows")));
  EXPECT_EQ(e.timeline.at("des/inflight_flows").size(), 16u);
}

TEST(Ledger, FingerprintIsStable) {
  EXPECT_EQ(Fingerprint64("abc"), Fingerprint64("abc"));
  EXPECT_NE(Fingerprint64("abc"), Fingerprint64("abd"));
  EXPECT_EQ(HexDigest(0).size(), 16u);
  EXPECT_EQ(HexDigest(0xdeadbeefULL),
            "00000000deadbeef");
}

// ---- The built ctstat binary, end to end ----

class CtstatGate : public ::testing::Test {
 protected:
  void SetUp() override {
    bin_ = std::getenv("CTSTAT_BIN");
    if (bin_ == nullptr || *bin_ == '\0') {
      GTEST_SKIP() << "CTSTAT_BIN not set (run through ctest)";
    }
  }

  int Run(const std::string& args) {
    const std::string cmd = std::string(bin_) + " " + args;
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  // Two entries per fingerprint: baseline 100 s, candidate
  // 100 * (1 + growth) s.
  static void WriteGateLedger(const std::string& path, double growth) {
    std::remove(path.c_str());
    LedgerEntry base = SampleEntry();
    base.values = {{"terasort/total_s", 100.0}};
    LedgerEntry candidate = base;
    candidate.values = {{"terasort/total_s", 100.0 * (1.0 + growth)}};
    ASSERT_TRUE(AppendEntry(path, base));
    ASSERT_TRUE(AppendEntry(path, candidate));
  }

  const char* bin_ = nullptr;
};

TEST_F(CtstatGate, CheckFailsOnInjectedRegression) {
  const std::string path = "ledger_test_regressed.jsonl";
  WriteGateLedger(path, /*growth=*/0.20);  // 20% > the 15% threshold
  EXPECT_EQ(Run("--ledger=" + path + " --check --quiet > /dev/null 2>&1"),
            1);
  std::remove(path.c_str());
}

TEST_F(CtstatGate, CheckPassesWithinThreshold) {
  const std::string path = "ledger_test_clean.jsonl";
  WriteGateLedger(path, /*growth=*/0.05);
  EXPECT_EQ(Run("--ledger=" + path + " --check --quiet > /dev/null 2>&1"),
            0);
  std::remove(path.c_str());
}

TEST_F(CtstatGate, UsageErrorsExitTwo) {
  EXPECT_EQ(Run("--check --quiet > /dev/null 2>&1"), 2);  // no --ledger
  EXPECT_EQ(Run("--ledger=ledger_test_does_not_exist.jsonl --quiet "
                "> /dev/null 2>&1"),
            2);
}

// ---- ctstat over bench artifacts: the cases the retired Python gate
// pinned, now run through the one C++ gate ----

class CtstatArtifacts : public CtstatGate {
 protected:
  void TearDown() override {
    std::remove(kOld);
    std::remove(kNew);
  }

  // `ctstat --check` over OLD then NEW (JSON text), exit status.
  int Gate(const std::string& old_json, const std::string& new_json,
           const std::string& flags = "") {
    WriteFile(kOld, old_json);
    WriteFile(kNew, new_json);
    return Run(std::string("--ledger=") + kOld + "," + kNew +
               " --check --quiet " + flags + " > /dev/null 2>&1");
  }

  // `ctstat --check` over one artifact, exit status.
  int GateAlone(const std::string& json) {
    WriteFile(kNew, json);
    return Run(std::string("--ledger=") + kNew +
               " --check --quiet > /dev/null 2>&1");
  }

  static constexpr const char* kOld = "ctstat_artifact_old.json";
  static constexpr const char* kNew = "ctstat_artifact_new.json";
  static constexpr const char* kBase =
      R"({"bench":"demo","a/total_s":10,"b/total_s":10,"c/wasted_s":1})";
};

// The cases the retired Python gate's self-test pinned: the threshold
// edge; non-gating, improved, added, removed and null keys never fail;
// growth from a zero baseline is infinite, zero staying zero is none.
TEST_F(CtstatArtifacts, GatesTheSelfTestCases) {
  const struct {
    const char* old_json;
    const char* new_json;
    int status;
  } cases[] = {
      {kBase, R"({"bench":"demo","a/total_s":11.4,"b/total_s":10})", 0},
      {kBase, R"({"bench":"demo","a/total_s":11.6,"b/total_s":10})", 1},
      {kBase, R"({"bench":"demo","a/total_s":10,"c/wasted_s":100})", 0},
      {kBase, R"({"bench":"demo","a/total_s":1,"b/total_s":10})", 0},
      {kBase, R"({"bench":"demo","a/total_s":10,"d/total_s":99})", 0},
      {kBase, R"({"bench":"demo","a/total_s":null,"b/total_s":10})", 0},
      {R"({"bench":"demo","a/total_s":1,"metrics":{"x":1}})",
       R"({"bench":"demo","a/total_s":1,"metrics":{"x":9}})", 0},
      {R"({"bench":"demo","z/total_s":0})", R"({"bench":"demo","z/total_s":5})",
       1},
      {R"({"bench":"demo","z/total_s":0})", R"({"bench":"demo","z/total_s":0})",
       0},
      {R"({"bench":"demo","z/total_s":1,"c/wasted_s":0})",
       R"({"bench":"demo","z/total_s":1,"c/wasted_s":5})", 0},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(Gate(c.old_json, c.new_json), c.status) << c.new_json;
  }
}

TEST_F(CtstatArtifacts, GbenchGatesCpuTime) {
  const std::string flags = "--suffix=cpu_time_s --threshold=0.5";
  EXPECT_EQ(Gate(GbenchJson(200.0), GbenchJson(320.0), flags), 1);  // +60%
  EXPECT_EQ(Gate(GbenchJson(200.0), GbenchJson(280.0), flags), 0);  // +40%
}

TEST_F(CtstatArtifacts, AloneGetsTheSchemaRules) {
  EXPECT_EQ(GateAlone(kBase), 0);
  EXPECT_EQ(Gate(kBase, kBase), 0);  // against itself
  // Its only makespan null or absent: the artifact cannot gate.
  EXPECT_EQ(GateAlone(R"({"bench":"demo","a/total_s":null,"c/wasted_s":1})"),
            1);
  EXPECT_EQ(GateAlone(R"({"bench":"demo","c/wasted_s":1})"), 1);
  EXPECT_EQ(GateAlone(R"({"bench":"demo","a/total_s":1,"b/total_s":null})"),
            1);
}

TEST_F(CtstatArtifacts, MalformedOrMismatchedExitTwo) {
  EXPECT_EQ(GateAlone(R"({"bench":"demo","a/total_s":})"), 2);
  EXPECT_EQ(GateAlone(R"({"bench":"demo","a/total_s":"1"})"), 2);
  EXPECT_EQ(Gate(kBase, R"({"bench":"other","a/total_s":10})"), 2);
  // An empty or truncated-to-nothing artifact cannot pass the gate.
  EXPECT_EQ(GateAlone(""), 2);
  EXPECT_EQ(GateAlone(" \n\n"), 2);
  EXPECT_EQ(Gate(kBase, ""), 2);
  EXPECT_EQ(Gate("", kBase), 2);
  // A threshold that is not a finite, non-negative number must not
  // wave a 5x regression through.
  const char* old_json = R"({"bench":"demo","a/total_s":1.0})";
  const char* new_json = R"({"bench":"demo","a/total_s":5.0})";
  EXPECT_EQ(Gate(old_json, new_json), 1);
  for (const char* threshold :
       {"nan", "inf", "-inf", "1e999", "-0.1", "0.15x", ""}) {
    EXPECT_EQ(Gate(old_json, new_json,
                   std::string("--threshold=") + threshold),
              2)
        << "--threshold=" << threshold;
  }
}

// `ctstat --re-emit` must reproduce a well-formed ledger byte for
// byte — the end-to-end form of the exactness rule.
TEST_F(CtstatGate, ReEmitIsByteIdentical) {
  const std::string path = "ledger_test_reemit.jsonl";
  const std::string out_path = "ledger_test_reemit.out";
  std::remove(path.c_str());
  LedgerEntry e = SampleEntry();
  e.values["nasty/third"] = 1.0 / 3.0;
  e.values["nasty/denormal"] = 4.9406564584124654e-324;
  ASSERT_TRUE(AppendEntry(path, e));
  e.run = "coded";
  e.values["nasty/third"] = -1.0 / 3.0;
  ASSERT_TRUE(AppendEntry(path, e));

  ASSERT_EQ(Run("--ledger=" + path + " --re-emit --quiet > " + out_path),
            0);
  const auto slurp = [](const std::string& p) {
    std::ifstream in(p);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  EXPECT_EQ(slurp(out_path), slurp(path));
  std::remove(path.c_str());
  std::remove(out_path.c_str());
}

}  // namespace
}  // namespace cts::obs
