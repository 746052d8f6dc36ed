// Tests for the determinism checker (src/check): vector-clock race
// analysis on synthetic and captured transport logs — including the
// injected wildcard-style matching race that proves the detector is
// not vacuous — and the DPOR-style ordering exploration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "check/check.h"
#include "check/explore.h"
#include "check/race.h"
#include "job/job.h"
#include "simmpi/eventlog.h"
#include "simscen/netsim.h"
#include "simscen/scenario.h"

namespace cts::check {
namespace {

using simmpi::TransportEvent;
using simmpi::TransportEventKind;
using simmpi::TransportLog;

// Builds synthetic logs with explicit stamps (one global order).
class LogBuilder {
 public:
  LogBuilder& send(NodeId performer, NodeId dst, std::int32_t tag,
                   std::uint64_t index) {
    return add(TransportEventKind::kSend, performer, dst, performer, tag,
               index);
  }
  LogBuilder& post(NodeId performer, NodeId src, std::int32_t tag,
                   std::uint64_t index) {
    return add(TransportEventKind::kPost, performer, performer, src, tag,
               index);
  }
  // A posting performed away from the owning mailbox — synthetic only
  // (live posts always run on the owner), for the kRecvRecv case.
  LogBuilder& post_at(NodeId performer, NodeId dst, NodeId src,
                      std::int32_t tag, std::uint64_t index) {
    return add(TransportEventKind::kPost, performer, dst, src, tag, index);
  }
  LogBuilder& match(NodeId performer, NodeId src, std::int32_t tag,
                    std::uint64_t index) {
    return add(TransportEventKind::kMatch, performer, performer, src, tag,
               index);
  }
  const TransportLog& log() const { return log_; }

 private:
  LogBuilder& add(TransportEventKind kind, NodeId performer, NodeId dst,
                  NodeId src, std::int32_t tag, std::uint64_t index) {
    TransportEvent e;
    e.kind = kind;
    e.performer = performer;
    e.dst = dst;
    e.src = src;
    e.comm = 0;
    e.tag = tag;
    e.index = index;
    e.bytes = 8;
    e.stamp = next_stamp_++;
    log_.push_back(e);
    return *this;
  }

  TransportLog log_;
  std::uint64_t next_stamp_ = 1;
};

// ---- Race analysis ----

TEST(AnalyzeTransport, EmptyLogIsNotACertificate) {
  const RaceReport rep = AnalyzeTransport({}, 4);
  EXPECT_EQ(rep.events, 0u);
  EXPECT_FALSE(rep.certified());
}

TEST(AnalyzeTransport, PingPongCertifies) {
  LogBuilder b;
  b.send(0, 1, 7, 0);   // 0 -> 1
  b.post(1, 0, 7, 0);
  b.match(1, 0, 7, 0);
  b.send(1, 0, 9, 0);   // reply, ordered after the match
  b.post(0, 1, 9, 0);
  b.match(0, 1, 9, 0);
  const RaceReport rep = AnalyzeTransport(b.log(), 2);
  EXPECT_TRUE(rep.certified());
  EXPECT_EQ(rep.events, 6u);
  EXPECT_EQ(rep.sends, 2u);
  EXPECT_EQ(rep.hb_edges, 2u);
  EXPECT_EQ(rep.keys, 2u);
  EXPECT_NE(Summarize(rep).find("determinism certificate"),
            std::string::npos);
}

// The injected matching race: two sends from different performers with
// no happens-before path between them, visible to a wildcard receive.
// Under MPI posting-order semantics either send could have matched the
// first posted receive — the detector must say so. This is the
// non-vacuity regression: a detector that never fires proves nothing.
TEST(AnalyzeTransport, InjectedWildcardRaceIsDetected) {
  LogBuilder b;
  b.send(1, 0, 7, 0);  // 1 -> 0, concurrent with ...
  b.send(2, 0, 7, 0);  // ... 2 -> 0 on the same (dst, tag)
  // Wildcard posts: either source may bind to either ticket.
  b.post(0, simmpi::kAnySource, 7, 0);
  b.post(0, simmpi::kAnySource, 7, 1);
  b.match(0, 1, 7, 0);
  b.match(0, 2, 7, 0);
  const RaceReport rep = AnalyzeTransport(b.log(), 3);
  ASSERT_EQ(rep.races.size(), 1u);
  EXPECT_FALSE(rep.certified());
  const MatchingRace& race = rep.races.front();
  EXPECT_EQ(race.kind, MatchingRace::Kind::kSendSend);
  EXPECT_EQ(race.a.stamp, 1u);
  EXPECT_EQ(race.b.stamp, 2u);

  // Both witnesses are complete linearizations over the same stamps.
  ASSERT_EQ(race.witness_recorded.size(), b.log().size());
  ASSERT_EQ(race.witness_flipped.size(), b.log().size());
  auto sorted = [](std::vector<std::uint64_t> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(race.witness_recorded), sorted(race.witness_flipped));
  auto pos = [](const std::vector<std::uint64_t>& v, std::uint64_t s) {
    return std::find(v.begin(), v.end(), s) - v.begin();
  };
  // The recorded witness realizes a before b; the flipped one b
  // before a — the pair of schedules that makes the race a race.
  EXPECT_LT(pos(race.witness_recorded, race.a.stamp),
            pos(race.witness_recorded, race.b.stamp));
  EXPECT_GT(pos(race.witness_flipped, race.a.stamp),
            pos(race.witness_flipped, race.b.stamp));
  EXPECT_NE(Summarize(rep).find("matching race"), std::string::npos);
}

TEST(AnalyzeTransport, RelayOrderingSuppressesTheRace) {
  // Same two sends to a wildcard receiver, but now a relay chain
  // orders them: 1 -> 0 is matched, 0 -> 2 tells node 2, and only
  // then does 2 -> 0 send. Happens-before fixes the match order, so
  // no race.
  LogBuilder b;
  b.send(1, 0, 7, 0);
  b.post(0, simmpi::kAnySource, 7, 0);
  b.match(0, 1, 7, 0);
  b.send(0, 2, 9, 0);  // relay: after the first match in 0's program
  b.post(2, 0, 9, 0);
  b.match(2, 0, 9, 0);
  b.send(2, 0, 7, 0);  // ordered after the relay arrived
  b.post(0, simmpi::kAnySource, 7, 1);
  b.match(0, 2, 7, 0);
  const RaceReport rep = AnalyzeTransport(b.log(), 3);
  EXPECT_TRUE(rep.certified()) << Summarize(rep);
}

TEST(AnalyzeTransport, ConcurrentPostsOnOneKeyAreARecvRecvRace) {
  // Two receive postings for the same named key with no ordering
  // between the posting threads: the tickets could have been drawn in
  // either order.
  LogBuilder b;
  b.post(0, 1, 7, 0);
  b.post_at(2, 0, 1, 7, 1);  // a different performer, unordered w.r.t. 0
  const RaceReport rep = AnalyzeTransport(b.log(), 3);
  ASSERT_FALSE(rep.races.empty());
  EXPECT_EQ(rep.races.front().kind, MatchingRace::Kind::kRecvRecv);
}

TEST(AnalyzeTransport, LiveTeraSortRunCertifies) {
  // The real thing: capture a K=4 run's transport stream and certify
  // it. Live mailboxes always name their source and drain per-key in
  // ticket order, so the recorded schedule must be the unique
  // linearization.
  simmpi::TransportRecorder::RequestCapture(true);
  job::RunCache cache;
  SortConfig config;
  config.num_nodes = 4;
  config.num_records = 2000;
  const auto run = cache.Get("terasort", config);
  ASSERT_FALSE(run->transport_events.empty());
  const RaceReport rep =
      AnalyzeTransport(run->transport_events, config.num_nodes);
  EXPECT_TRUE(rep.certified()) << Summarize(rep);
  EXPECT_GT(rep.sends, 0u);
  EXPECT_EQ(rep.matches, rep.hb_edges);  // every match redeems a send
}

TEST(AnalyzeTransport, LiveCodedRunCertifiesAtK20) {
  // Twenty node threads record into one TransportRecorder at once:
  // the overlapped multicast round puts every sender on the transport
  // together. The snapshot must still be one linearization, stamped
  // 0 … n−1 in order, and certify.
  simmpi::TransportRecorder::RequestCapture(true);
  job::RunCache cache;
  SortConfig config;
  config.num_nodes = 20;
  config.redundancy = 2;
  config.num_records = 24000;
  config.codegen_mode = CodeGenMode::kBatched;
  config.shuffle_sync = ShuffleSync::kOverlapped;
  const auto run = cache.Get("coded", config);
  const TransportLog& events = run->transport_events;
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i].stamp, i);
  }
  const RaceReport rep = AnalyzeTransport(events, config.num_nodes);
  EXPECT_TRUE(rep.certified()) << Summarize(rep);
  EXPECT_GT(rep.sends, 0u);
  EXPECT_EQ(rep.matches, rep.hb_edges);
}

// ---- Ordering exploration ----

simscen::Topology UnitRack(int num_nodes) {
  simscen::Topology t = simscen::Topology::SingleRack(num_nodes);
  t.access_bytes_per_sec = 1.0;
  t.multicast_log_coeff = 0.0;
  return t;
}

TEST(ExploreOrderings, ThreeWayTieCertifies) {
  simnet::TransmissionLog log;
  log.push_back({0, {1}, 500});
  log.push_back({2, {3}, 500});
  log.push_back({4, {5}, 500});
  const ExploreReport rep = ExploreOrderings(
      log, UnitRack(6), simnet::Discipline::kParallelFullDuplex,
      simnet::ReplayOrder::kLogOrder, {}, {});
  EXPECT_TRUE(rep.certified());
  EXPECT_DOUBLE_EQ(rep.baseline_makespan, 500.0);
  EXPECT_GE(rep.decision_points, 1u);
  EXPECT_EQ(rep.max_tie_width, 3u);
  // Disjoint flows: the tie permutations are independence-pruned, and
  // the leftover budget re-runs them as bitwise validation.
  EXPECT_GT(rep.branches_pruned, 0u);
  EXPECT_GT(rep.branches_validated, 0u);
  EXPECT_GT(rep.orderings_explored, 0u);
}

TEST(ExploreOrderings, OutageRequeueCertifiesUnderAnyTiming) {
  simnet::TransmissionLog log;
  log.push_back({0, {1}, 1000});
  log.push_back({1, {2}, 1000});
  simscen::LinkOutage outage;
  outage.node = 1;
  outage.start = 200;
  outage.end = 300;
  const ExploreReport rep = ExploreOrderings(
      log, UnitRack(4), simnet::Discipline::kParallelFullDuplex,
      simnet::ReplayOrder::kLogOrder, outage, {});
  EXPECT_TRUE(rep.certified());
  EXPECT_GE(rep.decision_points, 1u);
  EXPECT_GT(rep.orderings_explored, 0u);
}

TEST(ExploreOrderings, SerialDisciplineCertifiesTrivially) {
  simnet::TransmissionLog log;
  log.push_back({0, {1}, 100});
  log.push_back({2, {3}, 100});
  const ExploreReport rep = ExploreOrderings(
      log, UnitRack(4), simnet::Discipline::kSerial,
      simnet::ReplayOrder::kLogOrder, {}, {});
  EXPECT_TRUE(rep.certified());
  EXPECT_EQ(rep.decision_points, 0u);
}

// ---- CheckJob end-to-end ----

TEST(CheckJob, CertifiesASmallCellWithOutages) {
  job::RunCache cache;
  job::JobSpec spec;
  spec.algorithm = "terasort";
  spec.config.num_nodes = 4;
  spec.config.num_records = 2000;
  simscen::Scenario scenario = simscen::Scenario::Baseline(4);
  scenario.discipline = simnet::Discipline::kParallelFullDuplex;
  spec.scenario = scenario;

  CheckOptions opts;
  opts.ordering_budget = 40;
  opts.outages.push_back({/*node=*/0, /*start_frac=*/0.25,
                          /*dur_frac=*/0.25});

  const CheckReport rep = CheckJob(spec, cache, opts);
  EXPECT_TRUE(rep.certified()) << Summarize(rep);
  EXPECT_TRUE(rep.transport_captured);
  EXPECT_TRUE(rep.races.certified());
  EXPECT_GT(rep.baseline_makespan, 0.0);
  ASSERT_EQ(rep.cells.size(), 2u);
  EXPECT_EQ(rep.cells[0].label, "no-outage");
  EXPECT_GT(rep.orderings_explored(), 0u);
  EXPECT_EQ(rep.invariant_violations(), 0u);
  EXPECT_EQ(cache.executions(), 1);
}

}  // namespace
}  // namespace cts::check
