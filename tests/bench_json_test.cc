// Golden-schema test for the bench --json artifacts: JsonReport's
// output must stay machine-parseable (CI archives it and ctstat diffs
// consecutive runs), so the schema checker in bench/bench_common.h
// validates what JsonReport writes and rejects everything that would
// break the pipeline.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "bench/bench_common.h"
#include "obs/metrics.h"

namespace cts::bench {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// A JsonReport writing through the real --json=path flag path; the
// file it produces must satisfy its own schema, required keys
// included.
TEST(BenchJsonSchema, JsonReportOutputValidates) {
  const std::string path =
      ::testing::TempDir() + "/bench_json_schema_roundtrip.json";
  const std::string flag = "--json=" + path;
  char arg0[] = "bench_json_test";
  std::string flag_copy = flag;
  char* argv[] = {arg0, flag_copy.data()};
  JsonReport json("demo", 2, argv);
  ASSERT_TRUE(json.enabled());
  json.add("terasort/total_s", 12.5);
  json.add("coded_r3/total_s", 7.25);
  json.add("regimes/coded_wins", 1.0);
  ASSERT_TRUE(json.write());

  const std::string content = ReadFile(path);
  EXPECT_EQ(CheckBenchJsonSchema(content), "");
  EXPECT_EQ(CheckBenchJsonSchema(
                content, {"terasort/total_s", "coded_r3/total_s"}),
            "");
  // A key the artifact does not carry is reported by name.
  const std::string err =
      CheckBenchJsonSchema(content, {"missing/total_s"});
  EXPECT_NE(err.find("missing/total_s"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(BenchJsonSchema, NonFiniteMetricsSerializeAsNull) {
  const std::string path =
      ::testing::TempDir() + "/bench_json_schema_null.json";
  const std::string flag = "--json=" + path;
  char arg0[] = "bench_json_test";
  std::string flag_copy = flag;
  char* argv[] = {arg0, flag_copy.data()};
  JsonReport json("demo", 2, argv);
  json.add("inf_metric", std::numeric_limits<double>::infinity());
  ASSERT_TRUE(json.write());
  const std::string content = ReadFile(path);
  EXPECT_NE(content.find("null"), std::string::npos);
  EXPECT_EQ(CheckBenchJsonSchema(content, {"inf_metric"}), "");
  std::remove(path.c_str());
}

TEST(BenchJsonSchema, AcceptsTheDocumentedShapeDirectly) {
  EXPECT_EQ(CheckBenchJsonSchema(
                "{\n  \"bench\": \"scenarios\",\n"
                "  \"a/total_s\": 1.5,\n  \"b\": null,\n"
                "  \"c\": 1e-3\n}\n"),
            "");
  EXPECT_EQ(CheckBenchJsonSchema("{\"bench\":\"x\"}"), "");
  EXPECT_EQ(CheckBenchJsonSchema("{\"bench\":\"x\",\"a\":-0.5e-3,\"b\":12E+2}"),
            "");
}

// The one nesting exception: the "metrics" key carries the
// obs::MetricRegistry snapshot as a flat numeric object.
TEST(BenchJsonSchema, AcceptsTheNestedMetricsObject) {
  EXPECT_EQ(CheckBenchJsonSchema(
                "{\n  \"bench\": \"scenarios\",\n  \"a/total_s\": 1.5,\n"
                "  \"metrics\": {\n"
                "    \"simmpi/Shuffle/unicast_bytes\": 4096,\n"
                "    \"job/cache_hits\": 16,\n    \"odd\": null\n  }\n}\n"),
            "");
  // Empty nested object is fine too.
  EXPECT_EQ(CheckBenchJsonSchema(
                "{\"bench\": \"x\", \"metrics\": {}}"),
            "");
  // Nesting anywhere else is rejected...
  EXPECT_NE(CheckBenchJsonSchema(
                "{\"bench\": \"x\", \"other\": {\"a\": 1}}"),
            "");
  // ...as are non-numeric registry values, duplicate registry keys,
  // non-finite values, and a second level of nesting.
  EXPECT_NE(CheckBenchJsonSchema(
                "{\"bench\": \"x\", \"metrics\": {\"a\": \"str\"}}"),
            "");
  EXPECT_NE(CheckBenchJsonSchema(
                "{\"bench\": \"x\", \"metrics\": {\"a\": 1, \"a\": 2}}"),
            "");
  EXPECT_NE(CheckBenchJsonSchema(
                "{\"bench\": \"x\", \"metrics\": {\"a\": inf}}"),
            "");
  EXPECT_NE(CheckBenchJsonSchema(
                "{\"bench\": \"x\", \"metrics\": {\"a\": {\"b\": 1}}}"),
            "");
}

// A JsonReport written while the process-wide registry is non-empty
// embeds the snapshot under "metrics", and the artifact still
// satisfies its own schema.
TEST(BenchJsonSchema, JsonReportEmbedsTheRegistrySnapshot) {
  obs::MetricRegistry::Global().counter("test/embedded_counter").add(3);
  const std::string path =
      ::testing::TempDir() + "/bench_json_schema_registry.json";
  JsonReport json("demo", path);
  json.add("a/total_s", 1.0);
  ASSERT_TRUE(json.write());
  const std::string content = ReadFile(path);
  EXPECT_EQ(CheckBenchJsonSchema(content, {"a/total_s"}), "");
  EXPECT_NE(content.find("\"metrics\": {"), std::string::npos) << content;
  EXPECT_NE(content.find("\"test/embedded_counter\": 3"), std::string::npos)
      << content;
  std::remove(path.c_str());
}

TEST(BenchJsonSchema, RejectsSchemaViolations) {
  // Not an object.
  EXPECT_NE(CheckBenchJsonSchema("[]"), "");
  // Missing the bench name.
  EXPECT_NE(CheckBenchJsonSchema("{\"a\": 1}"), "");
  // bench must be a string.
  EXPECT_NE(CheckBenchJsonSchema("{\"bench\": 3}"), "");
  // Metrics must be numbers or null.
  EXPECT_NE(CheckBenchJsonSchema("{\"bench\": \"x\", \"a\": \"str\"}"), "");
  EXPECT_NE(CheckBenchJsonSchema("{\"bench\": \"x\", \"a\": true}"), "");
  // Duplicate keys would make the artifact ambiguous.
  EXPECT_NE(
      CheckBenchJsonSchema("{\"bench\": \"x\", \"a\": 1, \"a\": 2}"), "");
  // Truncated / trailing garbage.
  EXPECT_NE(CheckBenchJsonSchema("{\"bench\": \"x\""), "");
  EXPECT_NE(CheckBenchJsonSchema("{\"bench\": \"x\"} extra"), "");
  // Unquoted key.
  EXPECT_NE(CheckBenchJsonSchema("{bench: \"x\"}"), "");
  // Anything outside the JSON number grammar, or out of double range.
  for (const char* bad : {"01", "1.", "-", "1e", "0x10", "inf", "NaN", "+1",
                          ".5", "1e999"}) {
    EXPECT_NE(CheckBenchJsonSchema(std::string("{\"bench\":\"x\",\"a\":") +
                                   bad + "}"),
              "")
        << bad;
  }
}

}  // namespace
}  // namespace cts::bench
