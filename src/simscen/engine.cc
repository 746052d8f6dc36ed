#include "simscen/engine.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace cts::simscen {

namespace {

// Completion time of `dur` seconds of work started at `start` on a
// node that is offline during [fail_at, fail_at + recovery): work in
// flight suspends and resumes after the outage.
double EndWithOutage(double start, double dur, double fail_at,
                     double recovery) {
  const double end = start + dur;
  if (recovery <= 0) return end;
  if (end <= fail_at) return end;                   // finished before
  if (start >= fail_at + recovery) return end;      // started after
  if (start >= fail_at) return fail_at + recovery + dur;  // began offline
  return end + recovery;                            // crossed the outage
}

std::vector<double> PerNode(const AlgorithmResult& result,
                            double (CostModel::*price)(const NodeWork&,
                                                       const RunScale&)
                                const,
                            const CostModel& model, const RunScale& scale) {
  std::vector<double> out;
  out.reserve(result.work.size());
  for (const auto& w : result.work) out.push_back((model.*price)(w, scale));
  return out;
}

}  // namespace

StageBreakdown ScenarioOutcome::breakdown() const {
  StageBreakdown b;
  b.algorithm = algorithm;
  for (const auto& span : spans) b.stages.push_back({span.name, span.seconds()});
  b.wasted_seconds = wasted_seconds;
  return b;
}

ScenarioRun BuildScenarioRun(const AlgorithmResult& result,
                             const CostModel& model, const RunScale& scale) {
  ScenarioRun run;
  run.algorithm = result.algorithm;
  run.num_nodes = result.config.num_nodes;
  run.redundancy = std::max(result.config.redundancy, 1);
  run.shuffle_log = result.shuffle_log;
  run.shuffle_correction = ComputeShuffleScaling(result, model, scale).correction;

  // Engines populate stage_order; results built by hand (tests) fall
  // back to the canonical sequence, skipping stages with no work.
  std::vector<std::string> order = result.stage_order;
  if (order.empty()) {
    order = {stage::kCodeGen, stage::kMap,    stage::kPack,
             stage::kEncode,  stage::kShuffle, stage::kUnpack,
             stage::kDecode,  stage::kReduce};
  }

  const int r = std::max(result.config.redundancy, 1);
  for (const std::string& name : order) {
    ScenarioRun::Stage st;
    st.name = name;
    if (name == stage::kShuffle) {
      st.kind = StageKind::kNetwork;
    } else if (name == stage::kCodeGen) {
      st.kind = StageKind::kCollective;
      const auto it = result.traffic.find(stage::kCodeGen);
      const double sec =
          it == result.traffic.end()
              ? 0.0
              : model.codegen_seconds(it->second.comm_creations,
                                      result.config.codegen_mode);
      st.node_seconds.assign(static_cast<std::size_t>(run.num_nodes), sec);
    } else {
      st.kind = StageKind::kCompute;
      if (name == stage::kMap) {
        st.node_seconds = PerNode(result, &CostModel::map_seconds, model, scale);
      } else if (name == stage::kPack) {
        st.node_seconds = PerNode(result, &CostModel::pack_seconds, model, scale);
      } else if (name == stage::kEncode) {
        st.node_seconds =
            PerNode(result, &CostModel::encode_seconds, model, scale);
      } else if (name == stage::kUnpack) {
        st.node_seconds =
            PerNode(result, &CostModel::unpack_seconds, model, scale);
      } else if (name == stage::kDecode) {
        st.node_seconds =
            PerNode(result, &CostModel::decode_seconds, model, scale);
      } else if (name == stage::kReduce) {
        st.node_seconds.reserve(result.work.size());
        for (const auto& w : result.work) {
          st.node_seconds.push_back(model.reduce_seconds(w, scale, r));
        }
      }
      // Unknown stage names replay as zero-cost barriers.
    }
    run.stages.push_back(std::move(st));
  }
  return run;
}

ScenarioRun BuildScenarioRunFromEvents(
    const std::string& algorithm, int num_nodes,
    const std::vector<std::string>& stage_order, const ComputeLog& events,
    simnet::TransmissionLog shuffle_log, int redundancy) {
  CTS_CHECK_GE(num_nodes, 1);
  ScenarioRun run;
  run.algorithm = algorithm;
  run.num_nodes = num_nodes;
  run.redundancy = std::max(redundancy, 1);
  run.shuffle_log = std::move(shuffle_log);

  std::map<std::string, std::vector<double>> per_stage;
  for (const auto& e : events) {
    auto& v = per_stage[e.stage];
    v.resize(static_cast<std::size_t>(num_nodes), 0.0);
    CTS_CHECK_GE(e.node, 0);
    CTS_CHECK_LT(e.node, num_nodes);
    // A node may enter a stage several times; durations accumulate.
    v[static_cast<std::size_t>(e.node)] += e.seconds();
  }

  for (const std::string& name : stage_order) {
    ScenarioRun::Stage st;
    st.name = name;
    st.kind = name == stage::kShuffle ? StageKind::kNetwork
                                      : StageKind::kCompute;
    const auto it = per_stage.find(name);
    if (it != per_stage.end()) st.node_seconds = it->second;
    run.stages.push_back(std::move(st));
  }
  return run;
}

ScenarioOutcome ReplayScenario(const ScenarioRun& run,
                               const Scenario& scenario,
                               obs::Timeline* timeline, NetworkMemo* memo) {
  CTS_CHECK_GE(run.num_nodes, 1);
  CTS_CHECK_EQ(scenario.topology.num_nodes, run.num_nodes);
  CTS_CHECK_GT(run.shuffle_correction, 0.0);
  const StragglerModel& strag = scenario.cluster.straggler;
  const bool fail_stop = strag.kind == StragglerKind::kFailStop;
  const mitigate::MitigationPolicy& policy = scenario.mitigation;

  ScenarioOutcome out;
  out.algorithm = run.algorithm;
  double now = 0;
  int stage_index = 0;
  for (const auto& st : run.stages) {
    StageSpan span;
    span.name = st.name;
    span.start = now;
    span.node_end.assign(static_cast<std::size_t>(run.num_nodes), now);

    if (st.kind == StageKind::kNetwork) {
      // The shuffle is barrier-delimited: every flow becomes eligible
      // at the stage start, so the stage contributes one replayed
      // makespan. A pipelined stage (CMR's overlapped Map+Shuffle)
      // also carries per-node compute that runs concurrently with the
      // transfers: the stage ends when both the network and the
      // slowest (possibly straggling) node are done. Sorting runs
      // leave node_seconds empty here, so the degenerate replay is a
      // pure NetMakespan.
      //
      // A fail-stop outage overlapping the stage freezes the failed
      // node's links: its in-flight transfers are re-queued and
      // retransmit after the window (simscen/netsim.h). The replay
      // clock runs in measured-log seconds, scenario seconds are
      // log seconds x shuffle_correction, so the outage window maps
      // into log time by the inverse factor.
      LinkOutage outage;
      if (fail_stop && strag.recovery > 0) {
        outage.node = strag.node;
        outage.start = (strag.fail_at - now) / run.shuffle_correction;
        outage.end = (strag.fail_at + strag.recovery - now) /
                     run.shuffle_correction;
      }
      // Without an outage the replay reads only the log and the
      // scenario's network, so a memoized replay of that input stands
      // in for the DES (a probed replay always runs it).
      const bool memoizable =
          memo != nullptr && timeline == nullptr && !outage.active();
      const NetworkMemo::Entry* replay = nullptr;
      if (memoizable) {
        for (const NetworkMemo::Entry& e : memo->entries) {
          if (e.topology == scenario.topology &&
              e.discipline == scenario.discipline &&
              e.order == scenario.order) {
            replay = &e;
            break;
          }
        }
      }
      NetworkMemo::Entry simulated;
      if (replay != nullptr) {
        static obs::Counter& hits = obs::MetricRegistry::Global().counter(
            "simscen/network_memo_hits");
        hits.add();
      } else {
        NetReplayStats net_stats;
        // The probe maps replay-clock samples onto the scenario
        // timeline: the stage starts at `now` and one replay second
        // is shuffle_correction scenario seconds.
        TimelineProbe probe;
        probe.timeline = timeline;
        probe.t0 = now;
        probe.scale = run.shuffle_correction;
        simulated.makespan =
            NetMakespan(run.shuffle_log, scenario.topology,
                        scenario.discipline, scenario.order, outage,
                        &net_stats, nullptr, probe);
        simulated.flow_start = std::move(net_stats.flow_start);
        simulated.flow_end = std::move(net_stats.flow_end);
        if (memoizable) {
          simulated.topology = scenario.topology;
          simulated.discipline = scenario.discipline;
          simulated.order = scenario.order;
          memo->entries.push_back(std::move(simulated));
          replay = &memo->entries.back();
        } else {
          replay = &simulated;
        }
      }
      const double net = replay->makespan * run.shuffle_correction;
      // Per-flow wire times in scenario seconds, for the tracer. Only
      // the first network stage fills them (runs have one Shuffle).
      if (out.shuffle_flows.empty() && !replay->flow_end.empty()) {
        out.shuffle_flows.reserve(replay->flow_end.size());
        for (std::size_t i = 0; i < replay->flow_end.size(); ++i) {
          ScenarioOutcome::FlowSpan f;
          f.start = now + replay->flow_start[i] * run.shuffle_correction;
          f.end = now + replay->flow_end[i] * run.shuffle_correction;
          out.shuffle_flows.push_back(f);
        }
      }
      double stage_end = now + net;
      for (int n = 0; n < run.num_nodes; ++n) {
        const std::size_t ni = static_cast<std::size_t>(n);
        const double base =
            ni < st.node_seconds.size() ? st.node_seconds[ni] : 0.0;
        const double dur =
            scenario.cluster.compute_seconds(n, stage_index, base);
        double end = now + dur;
        if (fail_stop && n == strag.node) {
          end = EndWithOutage(now, dur, strag.fail_at, strag.recovery);
        }
        span.node_end[ni] = std::max(now + net, end);
        stage_end = std::max(stage_end, end);
      }
      span.end = stage_end;
      span.unmitigated_end = stage_end;
    } else {
      double stage_end = now;
      for (int n = 0; n < run.num_nodes; ++n) {
        const std::size_t ni = static_cast<std::size_t>(n);
        double base =
            ni < st.node_seconds.size() ? st.node_seconds[ni] : 0.0;
        double dur = base;
        if (st.kind == StageKind::kCompute) {
          dur = scenario.cluster.compute_seconds(n, stage_index, base);
        }
        double end = now + dur;
        if (fail_stop && n == strag.node) {
          end = EndWithOutage(now, dur, strag.fail_at, strag.recovery);
        }
        span.node_end[ni] = end;
        stage_end = std::max(stage_end, end);
      }
      span.end = stage_end;
      span.unmitigated_end = stage_end;

      // Mitigation applies to per-node compute stages only: a
      // collective is latency-bound and identical on every node, and
      // the network stage has no whole-node unit of work a backup
      // could re-execute.
      if (st.kind == StageKind::kCompute &&
          policy.kind != mitigate::PolicyKind::kNone) {
        mitigate::StageView view;
        view.start = now;
        view.node_end = span.node_end;
        // The K-of-N coded completion exploits the C(K, r) placement:
        // every Map input lives on r nodes, so the Map barrier may
        // abandon up to r-1 stragglers. Other stages operate on
        // unreplicated intermediate state.
        if (st.name == stage::kMap) {
          view.coded_tolerance =
              std::min(run.redundancy - 1, run.num_nodes - 1);
        }
        // A backup re-executes the victim's input share. Its cost is
        // estimated from the median per-node baseline, not the
        // victim's own: on event-built runs the victim's measured
        // duration is polluted by the very straggle being mitigated,
        // while shares themselves are balanced by construction.
        std::vector<double> bases(static_cast<std::size_t>(run.num_nodes),
                                  0.0);
        for (std::size_t ni = 0;
             ni < bases.size() && ni < st.node_seconds.size(); ++ni) {
          bases[ni] = st.node_seconds[ni];
        }
        std::vector<double> sorted_bases = bases;
        std::sort(sorted_bases.begin(), sorted_bases.end());
        const double median_base =
            sorted_bases[sorted_bases.size() / 2];
        view.backup_end = [&](NodeId /*victim*/, NodeId helper, double at) {
          const double dur = scenario.cluster.compute_seconds(
              helper, stage_index, median_base);
          if (fail_stop && helper == strag.node) {
            return EndWithOutage(at, dur, strag.fail_at, strag.recovery);
          }
          return at + dur;
        };
        view.busy_seconds = [&](NodeId node, double t) {
          double busy = std::max(0.0, t - now);
          if (fail_stop && node == strag.node) {
            const double o0 = std::max(strag.fail_at, now);
            const double o1 = std::min(strag.fail_at + strag.recovery, t);
            busy -= std::max(0.0, o1 - o0);
          }
          return std::max(0.0, busy);
        };
        const mitigate::StageMitigation sm =
            mitigate::ApplyPolicy(policy, view);
        span.node_end = sm.node_end;
        span.end = sm.end;
        span.wasted_seconds = sm.wasted_seconds;
        span.speculative_copies = sm.speculative_copies;
        span.abandoned_nodes = sm.abandoned_nodes;
        span.trigger_at = sm.trigger_at;
      }
    }
    now = span.end;
    out.wasted_seconds += span.wasted_seconds;
    out.spans.push_back(std::move(span));
    ++stage_index;
  }
  out.makespan = now;
  return out;
}

}  // namespace cts::simscen
