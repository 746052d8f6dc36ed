// The flight recorder's determinism invariants (src/obs/timeline.h):
// the key grammar, bitwise series digests, and the two sampling paths
// — the live virtual-time series derived from a cached execution and
// the DES series sampled along scenario time — must reproduce bit for
// bit across reruns and across host threads. The Chrome-trace counter
// export must round-trip through ValidateTrace.
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "job/job.h"
#include "job/registry.h"
#include "mitigate/policy.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "simscen/engine.h"

namespace cts::obs {
namespace {

SortConfig SmallConfig(int r = 1) {
  SortConfig config;
  config.num_nodes = 4;
  config.redundancy = r;
  config.num_records = 20000;
  config.seed = 2017;
  return config;
}

TEST(TimelineKey, Grammar) {
  EXPECT_TRUE(ValidTimelineKey("des/inflight_flows"));
  EXPECT_TRUE(ValidTimelineKey("live/shuffle_bytes/bytes"));
  EXPECT_TRUE(ValidTimelineKey("sim9/p99-lat/ms"));
  EXPECT_FALSE(ValidTimelineKey(""));
  EXPECT_FALSE(ValidTimelineKey("no_subsystem"));
  EXPECT_FALSE(ValidTimelineKey("Upper/name"));
  EXPECT_FALSE(ValidTimelineKey("des/"));
  EXPECT_FALSE(ValidTimelineKey("des//unit"));
  EXPECT_FALSE(ValidTimelineKey("a/b/c/d"));
  EXPECT_FALSE(ValidTimelineKey("des/spa ce"));
  EXPECT_FALSE(ValidTimelineKey("des:colon/x"));
}

TEST(Timeline, DigestIsBitwise) {
  Timeline a, b;
  a.Sample("t/x", 0, 0.0);
  b.Sample("t/x", 0, -0.0);  // numerically equal, different bits
  EXPECT_NE(a.SeriesDigest("t/x"), b.SeriesDigest("t/x"));
  EXPECT_FALSE(a == b);

  Timeline c;
  c.Sample("t/x", 0, 0.0);
  EXPECT_EQ(a.SeriesDigest("t/x"), c.SeriesDigest("t/x"));
  EXPECT_EQ(a.Digest(), c.Digest());
  EXPECT_TRUE(a == c);

  // The digest of an absent series is the digest of the bare key:
  // stable, and distinct per key.
  EXPECT_NE(a.SeriesDigest("t/absent"), a.SeriesDigest("t/other"));
}

TEST(Timeline, ValidateCatchesViolations) {
  Timeline ok;
  ok.Sample("des/inflight_flows", 0, 1);
  ok.Sample("des/inflight_flows", 0.5, 2);
  EXPECT_EQ(ok.Validate(), "");

  Timeline bad_key;
  bad_key.Sample("NotASubsystem/x", 0, 1);
  EXPECT_NE(bad_key.Validate(), "");

  Timeline backwards;
  backwards.Sample("des/x", 1.0, 1);
  backwards.Sample("des/x", 0.5, 2);
  EXPECT_NE(backwards.Validate(), "");

  Timeline nonfinite;
  nonfinite.Sample("des/x", 0, std::numeric_limits<double>::infinity());
  EXPECT_NE(nonfinite.Validate(), "");
}

TEST(Timeline, MergeConcatenatesSeries) {
  Timeline a, b;
  a.Sample("live/x", 0, 1);
  b.Sample("live/x", 1, 2);
  b.Sample("des/y", 0, 3);
  a.Merge(b);
  EXPECT_EQ(a.series().at("live/x").size(), 2u);
  EXPECT_EQ(a.series().at("des/y").size(), 1u);
  EXPECT_EQ(a.Validate(), "");
}

// The same JobSpec evaluated twice through the same cache records a
// bitwise-identical timeline.
TEST(Timeline, LiveSeriesReproduceBitwise) {
  job::JobSpec spec;
  spec.algorithm = "terasort";
  spec.config = SmallConfig();
  spec.backend = job::Backend::kLive;

  job::RunCache cache;
  Timeline first, second;
  job::RunJob(spec, cache, &first);
  job::RunJob(spec, cache, &second);

  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.Validate(), "");
  EXPECT_TRUE(first == second);
  EXPECT_EQ(first.Digest(), second.Digest());
  EXPECT_TRUE(first.series().count("live/stage_bytes/bytes"));
  EXPECT_TRUE(first.series().count("live/shuffle_bytes/bytes"));
}

// The DES series are a pure function of (run, scenario): replaying on
// the main thread and on a freshly spawned host thread — and under
// both network disciplines — must produce identical bits. The DES
// itself is single-threaded; this pins that no thread-local or clock
// state leaks into the samples.
TEST(Timeline, ReplaySeriesReproduceAcrossHostThreads) {
  job::RunCache cache;
  const SortConfig config = SmallConfig();
  const auto run = cache.GetScenarioRun("terasort", config,
                                        /*paper_records=*/0,
                                        /*from_events=*/false);

  for (const simnet::Discipline discipline :
       {simnet::Discipline::kSerial,
        simnet::Discipline::kParallelFullDuplex}) {
    simscen::Scenario scenario =
        simscen::Scenario::Baseline(config.num_nodes);
    scenario.discipline = discipline;

    Timeline main_thread;
    simscen::ReplayScenario(*run, scenario, &main_thread);
    ASSERT_FALSE(main_thread.empty());
    EXPECT_EQ(main_thread.Validate(), "");
    EXPECT_TRUE(main_thread.series().count("des/inflight_flows"));
    EXPECT_TRUE(main_thread.series().count("des/requeue_depth"));
    EXPECT_TRUE(main_thread.series().count("des/link_utilization"));

    Timeline other_thread;
    std::thread worker([&] {
      simscen::ReplayScenario(*run, scenario, &other_thread);
    });
    worker.join();
    EXPECT_TRUE(main_thread == other_thread);
    EXPECT_EQ(main_thread.Digest(), other_thread.Digest());
  }
}

// A kReplay job embeds both the live series and the DES series in one
// timeline, and two evaluations through one cache agree bit for bit.
TEST(Timeline, ReplayJobEmbedsBothSubsystems) {
  job::JobSpec spec;
  spec.algorithm = "coded";
  spec.config = SmallConfig(/*r=*/3);
  spec.backend = job::Backend::kReplay;

  job::RunCache cache;
  Timeline first, second;
  job::RunJob(spec, cache, &first);
  job::RunJob(spec, cache, &second);

  EXPECT_EQ(first.Validate(), "");
  EXPECT_TRUE(first.series().count("live/stage_bytes/bytes"));
  EXPECT_TRUE(first.series().count("des/inflight_flows"));
  EXPECT_TRUE(first == second);
}

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  return bits;
}

// Every JobResult number a cell reports, as bit patterns, so two
// results compare bit for bit (0.0 vs -0.0 and NaNs included).
std::vector<std::uint64_t> ResultBits(const job::JobResult& r) {
  std::vector<std::uint64_t> out = {
      Bits(r.makespan),     Bits(r.wasted_seconds), Bits(r.node_hours),
      Bits(r.usd_compute),  Bits(r.usd_egress),     Bits(r.usd),
      Bits(r.cross_rack_bytes),
      static_cast<std::uint64_t>(r.speculative_copies),
      static_cast<std::uint64_t>(r.abandoned_nodes)};
  for (const StageTime& s : r.breakdown.stages) out.push_back(Bits(s.seconds));
  if (!r.outcome.has_value()) return out;
  out.push_back(Bits(r.outcome->makespan));
  for (const simscen::StageSpan& span : r.outcome->spans) {
    for (const double v : {span.start, span.end, span.unmitigated_end,
                           span.wasted_seconds, span.trigger_at}) {
      out.push_back(Bits(v));
    }
    for (const double v : span.node_end) out.push_back(Bits(v));
    out.push_back(static_cast<std::uint64_t>(span.speculative_copies));
    out.push_back(static_cast<std::uint64_t>(span.abandoned_nodes));
  }
  for (const auto& flow : r.outcome->shuffle_flows) {
    out.push_back(Bits(flow.start));
    out.push_back(Bits(flow.end));
  }
  return out;
}

// The flight recorder is opt-in. Without a timeline RunJob records
// nothing and replays unprobed; with one it records the live series of
// the execution, then the DES series of the replay on the backends
// that replay, and every reported number stays bit-identical.
TEST(Timeline, RunJobRecordsOnlyIntoACallersTimeline) {
  simscen::Scenario scenario = simscen::Scenario::Baseline(4);
  scenario.topology = simscen::Topology::Oversubscribed(4, 2, 2.0);
  scenario.discipline = simnet::Discipline::kParallelFullDuplex;
  scenario.cluster.straggler.kind = simscen::StragglerKind::kSlowNode;
  scenario.cluster.straggler.node = 1;
  scenario.cluster.straggler.slowdown = 3.0;
  scenario.mitigation = mitigate::MitigationPolicy::Speculative();

  struct Case {
    const char* algorithm;
    job::Backend backend;
    bool with_scenario;
  };
  const Case cases[] = {
      {"terasort", job::Backend::kLive, false},
      {"coded", job::Backend::kPriced, false},
      {"coded", job::Backend::kReplay, true},
      {"cmr", job::Backend::kReplay, false},
      {"terasort", job::Backend::kLive, true},
      {"coded", job::Backend::kSimulated, false},
  };
  job::RunCache cache;
  for (const Case& c : cases) {
    const std::string name =
        std::string(c.algorithm) + "/" + job::BackendName(c.backend) +
        (c.with_scenario ? "+scenario" : "");
    job::JobSpec spec;
    spec.algorithm = c.algorithm;
    spec.config = SmallConfig(/*r=*/2);
    spec.backend = c.backend;
    spec.paper_records = 1000000;
    spec.pricing = DollarCost{};
    if (c.with_scenario) spec.scenario = scenario;

    const job::JobResult plain = job::RunJob(spec, cache);
    Timeline recorded;
    const job::JobResult probed = job::RunJob(spec, cache, &recorded);
    ASSERT_EQ(plain.error, "") << name;
    ASSERT_EQ(probed.error, "") << name;
    EXPECT_EQ(ResultBits(plain), ResultBits(probed)) << name;

    // The composition RunJob records: the live series of the
    // execution, then the DES series of the replay it priced.
    Timeline expected = BuildLiveTimeline(*probed.execution);
    const bool replays = c.backend == job::Backend::kReplay ||
                         (c.backend == job::Backend::kLive && c.with_scenario);
    if (replays) {
      const bool from_events = c.backend == job::Backend::kLive ||
                               !job::Find(c.algorithm)->priced;
      const auto run = cache.GetScenarioRun(
          c.algorithm, spec.config, spec.paper_records, from_events);
      simscen::ReplayScenario(
          *run,
          c.with_scenario ? scenario : simscen::Scenario::Baseline(4),
          &expected);
      EXPECT_TRUE(recorded.series().count("des/inflight_flows")) << name;
    }
    ASSERT_FALSE(recorded.empty()) << name;
    EXPECT_EQ(recorded.Validate(), "") << name;
    EXPECT_TRUE(recorded == expected) << name;
  }
  EXPECT_EQ(cache.executions(), 3);  // terasort, coded r=2, cmr

  // An error result records nothing.
  job::JobSpec bad;
  bad.algorithm = "coded";
  bad.config = SmallConfig(/*r=*/9);
  bad.backend = job::Backend::kReplay;
  Timeline untouched;
  EXPECT_NE(job::RunJob(bad, cache, &untouched).error, "");
  EXPECT_TRUE(untouched.empty());
}

// ---- Golden DES series ----
//
// Seeded, hand-built ScenarioRuns replayed over a grid of network
// disciplines, initiation orders, topologies, stragglers and
// mitigation policies. Every replay's timeline digest, makespan and
// per-flow wire times, plus the DES registry counters, fold into one
// FNV hash pinned below: a rewrite of the DES or its flight-recorder
// probe must reproduce every sample and every event bit for bit.
// Live runs are deliberately absent — their shuffle-log seq order
// varies across processes.

enum class LogShape { kUnicast, kMulticast, kMixed };

simscen::ScenarioRun GoldenRun(int k, LogShape shape, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  simscen::ScenarioRun run;
  run.algorithm = "golden";
  run.num_nodes = k;
  run.redundancy = 2;
  run.shuffle_correction = 1.25;
  const auto per_node = [&](double lo, double span) {
    std::vector<double> s;
    for (int n = 0; n < k; ++n) {
      s.push_back(lo + span * static_cast<double>(rng.below(1000)) / 1000.0);
    }
    return s;
  };
  run.stages.push_back({"Map", simscen::StageKind::kCompute, per_node(0.5, 1)});
  run.stages.push_back({"Shuffle", simscen::StageKind::kNetwork, {}});
  run.stages.push_back(
      {"Reduce", simscen::StageKind::kCompute, per_node(0.2, 0.5)});

  // Two passes of every sender in turn, so per-sender order and log
  // order differ once senders interleave; multicasts reach 2..3 peers.
  std::uint64_t seq = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int src = 0; src < k; ++src) {
      for (int j = 1; j < k; ++j) {
        const bool multicast =
            shape == LogShape::kMulticast ||
            (shape == LogShape::kMixed && rng.below(2) == 0);
        const int fanout = multicast ? 2 + static_cast<int>(rng.below(2)) : 1;
        simnet::Transmission t;
        t.src = src;
        for (int e = 0; e < fanout; ++e) {
          t.dsts.push_back((src + 1 + (j - 1 + e) % (k - 1)) % k);
        }
        t.bytes = 100000 + rng.below(400000);
        t.seq = seq++;
        run.shuffle_log.push_back(std::move(t));
      }
    }
  }
  return run;
}

std::uint64_t FoldDouble(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  return FnvMix(h, &bits, 8);
}

TEST(Timeline, GoldenReplayTimelines) {
  auto& registry = MetricRegistry::Global();
  const char* const kCounters[] = {"simscen/flows_started",
                                   "simscen/flows_requeued",
                                   "simscen/maxmin_recomputations"};
  std::vector<std::uint64_t> before;
  for (const char* name : kCounters) {
    before.push_back(registry.counter(name).value());
  }

  std::uint64_t h = kFnvOffset;
  std::size_t replays = 0;
  std::size_t samples = 0;
  for (const int k : {4, 6, 8}) {
    for (const LogShape shape :
         {LogShape::kUnicast, LogShape::kMulticast, LogShape::kMixed}) {
      const simscen::ScenarioRun run =
          GoldenRun(k, shape, 1000 * static_cast<std::uint64_t>(k) +
                                  static_cast<std::uint64_t>(shape));
      std::vector<simscen::Topology> topologies;
      topologies.push_back(simscen::Topology::SingleRack(k));
      topologies.push_back(simscen::Topology::Oversubscribed(k, k / 2, 4.0));
      topologies.push_back(
          simscen::Topology::RackOversubscribed(k, k / 2, 2.0, 3.0, 2.0));
      topologies.back().rack_aware_multicast = true;
      for (const simnet::Discipline discipline :
           {simnet::Discipline::kSerial,
            simnet::Discipline::kParallelHalfDuplex,
            simnet::Discipline::kParallelFullDuplex}) {
        for (const simnet::ReplayOrder order :
             {simnet::ReplayOrder::kLogOrder,
              simnet::ReplayOrder::kPerSender}) {
          for (const simscen::Topology& topology : topologies) {
            simscen::Scenario scenario = simscen::Scenario::Baseline(k);
            scenario.topology = topology;
            scenario.discipline = discipline;
            scenario.order = order;
            // Fail-stop windows are placed relative to this cell's own
            // unperturbed shuffle: one mid-shuffle, one already in
            // progress when the shuffle starts.
            const simscen::StageSpan shuffle =
                simscen::ReplayScenario(run, scenario).spans[1];
            std::vector<simscen::StragglerModel> stragglers(5);
            stragglers[1].kind = simscen::StragglerKind::kSlowNode;
            stragglers[1].node = 1;
            stragglers[1].slowdown = 3.0;
            stragglers[2].kind = simscen::StragglerKind::kShiftedExp;
            stragglers[2].seed = static_cast<std::uint64_t>(k);
            stragglers[3].kind = simscen::StragglerKind::kFailStop;
            stragglers[3].node = 0;
            stragglers[3].fail_at = shuffle.start + 0.4 * shuffle.seconds();
            stragglers[3].recovery = 0.3 * shuffle.seconds();
            stragglers[4].kind = simscen::StragglerKind::kFailStop;
            stragglers[4].node = k - 1;
            stragglers[4].fail_at = shuffle.start - 0.1 * shuffle.seconds();
            stragglers[4].recovery = 0.5 * shuffle.seconds();
            for (const simscen::StragglerModel& straggler : stragglers) {
              for (const mitigate::MitigationPolicy& policy :
                   {mitigate::MitigationPolicy::None(),
                    mitigate::MitigationPolicy::Speculative(),
                    mitigate::MitigationPolicy::CodedMap()}) {
                scenario.cluster.straggler = straggler;
                scenario.mitigation = policy;
                Timeline tl;
                const simscen::ScenarioOutcome out =
                    simscen::ReplayScenario(run, scenario, &tl);
                const std::uint64_t digest = tl.Digest();
                h = FnvMix(h, &digest, 8);
                h = FoldDouble(h, out.makespan);
                for (const auto& f : out.shuffle_flows) {
                  h = FoldDouble(h, f.start);
                  h = FoldDouble(h, f.end);
                }
                ++replays;
                samples += tl.total_samples();
              }
            }
          }
        }
      }
    }
  }
  for (std::size_t i = 0; i < before.size(); ++i) {
    const std::uint64_t delta =
        registry.counter(kCounters[i]).value() - before[i];
    h = FnvMix(h, &delta, 8);
  }
  EXPECT_EQ(replays, 2430u);
  EXPECT_EQ(samples, 1797093u);
  EXPECT_EQ(h, 0x3ff2384f3db231acULL)
      << std::hex << "0x" << h << std::dec << " over " << samples
      << " samples";
}

TEST(Trace, CounterExportRoundTrips) {
  Timeline tl;
  tl.Sample("des/inflight_flows", 0, 1);
  tl.Sample("des/inflight_flows", 0.25, 3);
  tl.Sample("live/arena_hit_rate", 0.5, 0.75);

  Trace trace;
  AppendTimelineCounters(tl, trace, /*pid=*/0, /*tid=*/5);
  EXPECT_EQ(ValidateTrace(trace), "");
  std::size_t counters = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.phase == 'C') ++counters;
  }
  EXPECT_EQ(counters, tl.total_samples());

  // A counter series violating the key grammar must fail validation.
  Trace bad;
  bad.add_counter(0, 5, "NotAKey", 0.0, 1.0);
  EXPECT_NE(ValidateTrace(bad), "");

  // Time going backwards within one series must fail validation.
  Trace backwards;
  backwards.add_counter(0, 5, "des/x", 1.0, 1.0);
  backwards.add_counter(0, 5, "des/x", 0.0, 2.0);
  EXPECT_NE(ValidateTrace(backwards), "");
}

}  // namespace
}  // namespace cts::obs
