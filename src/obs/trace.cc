#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <tuple>
#include <utility>

#include "common/check.h"

namespace cts::obs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void WriteNumber(std::ostream& out, double v) {
  // otherData carries byte totals that must round-trip exactly; %.17g
  // preserves every double and prints integers without an exponent
  // for the magnitudes traces contain.
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out << buf;
}

void WriteArgs(std::ostream& out,
               const std::map<std::string, double>& args) {
  out << "\"args\":{";
  bool first = true;
  for (const auto& [k, v] : args) {
    if (!first) out << ",";
    first = false;
    out << '"' << JsonEscape(k) << "\":";
    WriteNumber(out, v);
  }
  out << "}";
}

}  // namespace

void Trace::set_process_name(int pid, const std::string& name) {
  process_names_[pid] = name;
}

void Trace::set_track_name(int pid, int tid, const std::string& name) {
  track_names_[{pid, tid}] = name;
}

void Trace::set_meta(const std::string& key, double value) {
  meta_[key] = value;
}

void Trace::add_complete(int pid, int tid, const std::string& name,
                         const std::string& category, double start_seconds,
                         double end_seconds,
                         std::map<std::string, double> args) {
  TraceEvent e;
  e.phase = 'X';
  e.name = name;
  e.category = category;
  e.pid = pid;
  e.tid = tid;
  e.ts_seconds = start_seconds;
  e.dur_seconds = end_seconds - start_seconds;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void Trace::add_instant(int pid, int tid, const std::string& name,
                        double ts_seconds,
                        std::map<std::string, double> args) {
  TraceEvent e;
  e.phase = 'i';
  e.name = name;
  e.category = cat::kMark;
  e.pid = pid;
  e.tid = tid;
  e.ts_seconds = ts_seconds;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void Trace::add_flow(int pid, int src_tid, int dst_tid, double start_seconds,
                     double end_seconds) {
  const std::uint64_t id = next_flow_id_++;
  TraceEvent s;
  s.phase = 's';
  s.name = "shuffle";
  s.category = cat::kFlow;
  s.pid = pid;
  s.tid = src_tid;
  s.ts_seconds = start_seconds;
  s.flow_id = id;
  events_.push_back(std::move(s));
  TraceEvent f = events_.back();
  f.phase = 'f';
  f.tid = dst_tid;
  f.ts_seconds = end_seconds;
  events_.push_back(std::move(f));
}

void Trace::add_counter(int pid, int tid, const std::string& name,
                        double ts_seconds, double value) {
  TraceEvent e;
  e.phase = 'C';
  e.name = name;
  e.category = cat::kCounter;
  e.pid = pid;
  e.tid = tid;
  e.ts_seconds = ts_seconds;
  e.args = {{"value", value}};
  events_.push_back(std::move(e));
}

void Trace::Merge(const Trace& other) {
  for (TraceEvent e : other.events_) {
    // Re-id the flow pairs so merged traces keep ids unique. Pairs are
    // adjacent by construction ('s' immediately followed by its 'f').
    if (e.phase == 's') e.flow_id += next_flow_id_;
    if (e.phase == 'f') e.flow_id += next_flow_id_;
    events_.push_back(std::move(e));
  }
  next_flow_id_ += other.next_flow_id_;
  for (const auto& [pid, name] : other.process_names_) {
    process_names_[pid] = name;
  }
  for (const auto& [key, name] : other.track_names_) {
    track_names_[key] = name;
  }
  for (const auto& [k, v] : other.meta_) meta_[k] = v;
}

void Trace::WriteJson(std::ostream& out) const {
  out << "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {";
  bool first = true;
  for (const auto& [k, v] : meta_) {
    if (!first) out << ",";
    first = false;
    out << "\n  \"" << JsonEscape(k) << "\": ";
    WriteNumber(out, v);
  }
  out << "\n},\n\"traceEvents\": [\n";
  first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const auto& [pid, name] : process_names_) {
    sep();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":\"" << JsonEscape(name) << "\"}}";
  }
  for (const auto& [key, name] : track_names_) {
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << key.first
        << ",\"tid\":" << key.second << ",\"args\":{\"name\":\""
        << JsonEscape(name) << "\"}}";
  }
  for (const TraceEvent& e : events_) {
    sep();
    out << "{\"name\":\"" << JsonEscape(e.name) << "\",\"cat\":\""
        << JsonEscape(e.category) << "\",\"ph\":\"" << e.phase
        << "\",\"pid\":" << e.pid << ",\"tid\":" << e.tid << ",\"ts\":";
    WriteNumber(out, e.ts_seconds * 1e6);
    if (e.phase == 'X') {
      out << ",\"dur\":";
      WriteNumber(out, e.dur_seconds * 1e6);
    }
    if (e.phase == 's' || e.phase == 'f') {
      out << ",\"id\":" << e.flow_id;
      if (e.phase == 'f') out << ",\"bp\":\"e\"";
    }
    if (e.phase == 'i') out << ",\"s\":\"t\"";
    if (!e.args.empty()) {
      out << ",";
      WriteArgs(out, e.args);
    }
    out << "}";
  }
  out << "\n]\n}\n";
}

double Trace::ShuffleBytes(int pid) const {
  double total = 0;
  for (const TraceEvent& e : events_) {
    if (e.phase != 'X' || e.pid != pid || e.category != cat::kShuffle) {
      continue;
    }
    const auto it = e.args.find("bytes");
    if (it != e.args.end()) total += it->second;
  }
  return total;
}

std::string ValidateTrace(const Trace& trace) {
  double max_ts = 1.0;
  for (const TraceEvent& e : trace.events()) {
    if (!std::isfinite(e.ts_seconds) || !std::isfinite(e.dur_seconds)) {
      return "non-finite time on event '" + e.name + "'";
    }
    if (e.phase == 'X' && e.dur_seconds < 0) {
      return "negative duration on span '" + e.name + "'";
    }
    max_ts = std::max(max_ts, std::abs(e.ts_seconds) + e.dur_seconds);
  }
  const double eps = 1e-9 * max_ts;

  // Span nesting: per track, complete events must form a stack
  // discipline (a child is fully inside its parent; siblings do not
  // overlap). Sorting by (start asc, duration desc) visits parents
  // before their children.
  std::map<std::pair<int, int>, std::vector<const TraceEvent*>> tracks;
  for (const TraceEvent& e : trace.events()) {
    if (e.phase == 'X') tracks[{e.pid, e.tid}].push_back(&e);
  }
  for (auto& [key, spans] : tracks) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       if (a->ts_seconds != b->ts_seconds) {
                         return a->ts_seconds < b->ts_seconds;
                       }
                       return a->dur_seconds > b->dur_seconds;
                     });
    std::vector<double> open_ends;
    for (const TraceEvent* e : spans) {
      const double start = e->ts_seconds;
      const double end = start + e->dur_seconds;
      while (!open_ends.empty() && start >= open_ends.back() - eps) {
        open_ends.pop_back();
      }
      if (!open_ends.empty() && end > open_ends.back() + eps) {
        return "overlapping spans on pid " + std::to_string(key.first) +
               " tid " + std::to_string(key.second) + " at span '" +
               e->name + "'";
      }
      open_ends.push_back(end);
    }
  }

  // Flow pairing: every id has exactly one 's' and one 'f', in order.
  struct Pair {
    int starts = 0;
    int finishes = 0;
    double s_ts = kInf;
    double f_ts = -kInf;
  };
  std::map<std::uint64_t, Pair> flows;
  for (const TraceEvent& e : trace.events()) {
    if (e.phase == 's') {
      auto& p = flows[e.flow_id];
      ++p.starts;
      p.s_ts = e.ts_seconds;
    } else if (e.phase == 'f') {
      auto& p = flows[e.flow_id];
      ++p.finishes;
      p.f_ts = e.ts_seconds;
    }
  }
  for (const auto& [id, p] : flows) {
    if (p.starts != 1 || p.finishes != 1) {
      return "flow id " + std::to_string(id) + " has " +
             std::to_string(p.starts) + " starts / " +
             std::to_string(p.finishes) + " finishes";
    }
    if (p.s_ts > p.f_ts + eps) {
      return "flow id " + std::to_string(id) + " finishes before it starts";
    }
  }

  // Counter tracks: series named per the timeline key grammar, finite
  // numeric args, nondecreasing ts per (pid, tid, name) series — the
  // same rules tools/trace_check.py enforces on exported files.
  std::map<std::tuple<int, int, std::string>, double> counter_last_ts;
  for (const TraceEvent& e : trace.events()) {
    if (e.phase != 'C') continue;
    if (!ValidTimelineKey(e.name)) {
      return "counter series '" + e.name +
             "' violates <subsystem>/<name>[/unit]";
    }
    if (e.args.empty()) {
      return "counter sample of '" + e.name + "' carries no args";
    }
    for (const auto& [k, v] : e.args) {
      if (!std::isfinite(v)) {
        return "non-finite counter value in series '" + e.name + "'";
      }
    }
    auto [it, fresh] = counter_last_ts.try_emplace(
        std::tuple(e.pid, e.tid, e.name), e.ts_seconds);
    if (!fresh) {
      if (e.ts_seconds < it->second - eps) {
        return "counter series '" + e.name + "' time went backwards";
      }
      it->second = std::max(it->second, e.ts_seconds);
    }
  }
  return "";
}

namespace {

// Lays one sender's transmissions out inside [window_start,
// window_end] proportionally to bytes (evenly when the sender moved
// zero bytes), emitting a shuffle slice and per-receiver flow arrows
// for each. Slice boundaries are computed from cumulative byte
// fractions, so consecutive slices share boundaries exactly and the
// last is clamped to the window end — nesting inside the sender's
// Shuffle span is exact, not approximate.
void LayOutSenderSlices(Trace& trace, int pid, NodeId sender,
                        const std::vector<const simnet::Transmission*>& txs,
                        double window_start, double window_end) {
  if (txs.empty()) return;
  double total = 0;
  for (const auto* t : txs) total += static_cast<double>(t->bytes);
  const double width = std::max(0.0, window_end - window_start);
  const double count = static_cast<double>(txs.size());
  double cum = 0;
  double prev_frac = 0;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const simnet::Transmission& t = *txs[i];
    cum += static_cast<double>(t.bytes);
    const double frac =
        total > 0 ? cum / total : static_cast<double>(i + 1) / count;
    const double start = window_start + width * prev_frac;
    double end = window_start + width * frac;
    end = std::min(end, window_end);
    prev_frac = frac;
    trace.add_complete(
        pid, sender, t.is_multicast() ? "mcast" : "tx", cat::kShuffle,
        start, end,
        {{"bytes", static_cast<double>(t.bytes)},
         {"seq", static_cast<double>(t.seq)},
         {"receivers", static_cast<double>(t.dsts.size())}});
    for (const NodeId d : t.dsts) {
      trace.add_flow(pid, sender, d, start, end);
    }
  }
}

}  // namespace

Trace BuildLiveTrace(const AlgorithmResult& result, int pid,
                     const std::string& process_name) {
  Trace trace;
  const int K = result.config.num_nodes;
  trace.set_process_name(
      pid, process_name.empty() ? result.algorithm : process_name);
  for (int n = 0; n < K; ++n) {
    trace.set_track_name(pid, n, "node " + std::to_string(n));
  }

  // Measured stage spans, one per ComputeEvent.
  for (const auto& e : result.compute_events) {
    trace.add_complete(pid, e.node, e.stage, cat::kStage, e.start_seconds,
                       e.end_seconds);
  }

  // Each sender's Shuffle window (every engine records exactly one
  // Shuffle event per node; CMR's pipelined Map+Shuffle is labeled
  // Shuffle too). The global window is the fallback for a sender with
  // transmissions but no recorded Shuffle span (hand-built results).
  std::vector<double> win_start(static_cast<std::size_t>(K), kInf);
  std::vector<double> win_end(static_cast<std::size_t>(K), -kInf);
  double glob_start = kInf;
  double glob_end = -kInf;
  for (const auto& e : result.compute_events) {
    if (e.stage != stage::kShuffle) continue;
    const auto n = static_cast<std::size_t>(e.node);
    win_start[n] = std::min(win_start[n], e.start_seconds);
    win_end[n] = std::max(win_end[n], e.end_seconds);
    glob_start = std::min(glob_start, e.start_seconds);
    glob_end = std::max(glob_end, e.end_seconds);
  }
  if (glob_start > glob_end) {
    glob_start = 0;
    glob_end = 1;
  }

  std::vector<std::vector<const simnet::Transmission*>> per_sender(
      static_cast<std::size_t>(K));
  for (const auto& t : result.shuffle_log) {
    CTS_CHECK_GE(t.src, 0);
    CTS_CHECK_LT(t.src, K);
    per_sender[static_cast<std::size_t>(t.src)].push_back(&t);
  }
  for (int s = 0; s < K; ++s) {
    auto& txs = per_sender[static_cast<std::size_t>(s)];
    // Within one sender, seq order is program order.
    std::stable_sort(txs.begin(), txs.end(),
                     [](const simnet::Transmission* a,
                        const simnet::Transmission* b) {
                       return a->seq < b->seq;
                     });
    const std::size_t si = static_cast<std::size_t>(s);
    const bool has_window = win_start[si] <= win_end[si];
    LayOutSenderSlices(trace, pid, s, txs,
                       has_window ? win_start[si] : glob_start,
                       has_window ? win_end[si] : glob_end);
  }
  return trace;
}

Trace BuildScenarioTrace(const simscen::ScenarioRun& run,
                         const simscen::ScenarioOutcome& outcome,
                         const simscen::Scenario& scenario, int pid,
                         const std::string& process_name) {
  Trace trace;
  const int K = run.num_nodes;
  const int cluster_tid = K;
  trace.set_process_name(pid, process_name.empty()
                                  ? run.algorithm + " (scenario)"
                                  : process_name);
  for (int n = 0; n < K; ++n) {
    trace.set_track_name(pid, n, "node " + std::to_string(n));
  }
  trace.set_track_name(pid, cluster_tid, "cluster");

  for (const auto& span : outcome.spans) {
    // Barrier-to-barrier stage span on the cluster track, carrying the
    // mitigation accounting.
    std::map<std::string, double> args;
    if (span.wasted_seconds > 0) args["wasted_seconds"] = span.wasted_seconds;
    if (span.speculative_copies > 0) {
      args["speculative_copies"] = span.speculative_copies;
    }
    if (span.abandoned_nodes > 0) {
      args["abandoned_nodes"] = span.abandoned_nodes;
    }
    if (span.unmitigated_end > span.end) {
      args["mitigation_saved_seconds"] = span.unmitigated_end - span.end;
    }
    trace.add_complete(pid, cluster_tid, span.name, cat::kStage, span.start,
                       span.end, std::move(args));

    // Per-node completion spans (zero-duration stages stay invisible).
    for (std::size_t n = 0; n < span.node_end.size(); ++n) {
      if (span.node_end[n] > span.start) {
        trace.add_complete(pid, static_cast<int>(n), span.name, cat::kStage,
                           span.start, span.node_end[n]);
      }
    }

    if (span.trigger_at >= 0 && span.speculative_copies > 0) {
      trace.add_instant(
          pid, cluster_tid, "speculation-trigger", span.trigger_at,
          {{"copies", static_cast<double>(span.speculative_copies)}});
    }
    if (span.abandoned_nodes > 0 && span.speculative_copies == 0) {
      trace.add_instant(
          pid, cluster_tid, "coded-abandon", span.end,
          {{"abandoned", static_cast<double>(span.abandoned_nodes)}});
    }
  }

  // Shuffle flows at the times the flow DES scheduled them
  // (ReplayScenario records them in scenario seconds, aligned with
  // run.shuffle_log).
  const std::size_t n_flows =
      std::min(outcome.shuffle_flows.size(), run.shuffle_log.size());
  for (std::size_t i = 0; i < n_flows; ++i) {
    const simnet::Transmission& t = run.shuffle_log[i];
    const auto& f = outcome.shuffle_flows[i];
    trace.add_complete(
        pid, t.src, t.is_multicast() ? "mcast" : "tx", cat::kShuffle,
        f.start, f.end,
        {{"bytes", static_cast<double>(t.bytes)},
         {"seq", static_cast<double>(t.seq)},
         {"receivers", static_cast<double>(t.dsts.size())}});
    for (const NodeId d : t.dsts) {
      trace.add_flow(pid, t.src, d, f.start, f.end);
    }
  }

  // Outage onset/recovery instants on the failed node's track.
  const simscen::StragglerModel& strag = scenario.cluster.straggler;
  if (strag.kind == simscen::StragglerKind::kFailStop &&
      strag.recovery > 0 && strag.node >= 0 && strag.node < K) {
    trace.add_instant(pid, strag.node, "outage-start", strag.fail_at);
    trace.add_instant(pid, strag.node, "outage-end",
                      strag.fail_at + strag.recovery);
  }
  return trace;
}

void AppendTimelineCounters(const Timeline& timeline, Trace& trace,
                            int pid, int tid) {
  if (timeline.empty()) return;
  trace.set_track_name(pid, tid, "counters");
  for (const auto& [key, samples] : timeline.series()) {
    for (const TimelineSample& s : samples) {
      trace.add_counter(pid, tid, key, s.t, s.value);
    }
  }
}

}  // namespace cts::obs
