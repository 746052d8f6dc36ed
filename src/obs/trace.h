// Span-based tracer: converts a finished run into Chrome trace_event
// JSON (the format chrome://tracing and Perfetto load natively).
//
// Two builders cover the two execution worlds:
//
//   * BuildLiveTrace   — a live thread-per-node run: one track per
//     node carrying the measured ComputeEvent spans, with the merged
//     seq-ordered transmission log laid out as "tx"/"mcast" slices
//     inside each sender's Shuffle span (proportional to bytes, so
//     the slice widths visualize the sender's byte mix) and a flow
//     arrow from every transmission to each receiver's track.
//   * BuildScenarioTrace — a DES replay (simscen::ReplayScenario):
//     per-node stage spans from the ScenarioOutcome, a synthetic
//     "cluster" track with the barrier-to-barrier stage spans and
//     their mitigation accounting, per-flow shuffle slices at the
//     times the flow simulation actually scheduled them, and instant
//     events marking outage onset/recovery and speculation triggers.
//
// Byte conservation is the tracer's core invariant: the sum of the
// "bytes" args over a trace's shuffle slices equals the run's
// TrafficStats shuffle total exactly (both builders copy
// Transmission::bytes through untouched — no repricing). Tests and
// tools/trace_check.py verify it against the totals embedded in
// otherData.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "driver/run_result.h"
#include "obs/timeline.h"
#include "simscen/engine.h"

namespace cts::obs {

// Event categories used by the builders (and filterable in Perfetto).
namespace cat {
inline constexpr const char* kStage = "stage";      // compute spans
inline constexpr const char* kShuffle = "shuffle";  // transmission slices
inline constexpr const char* kFlow = "flow";        // src -> dst arrows
inline constexpr const char* kMark = "mark";        // outages, triggers
inline constexpr const char* kCounter = "counter";  // timeline series
}  // namespace cat

// One trace_event entry. Times are kept in seconds until WriteJson,
// which emits the microseconds the format requires.
struct TraceEvent {
  char phase = 'X';  // 'X' complete, 'i' instant, 's'/'f' flow pair,
                     // 'C' counter sample
  std::string name;
  std::string category;
  int pid = 0;
  int tid = 0;
  double ts_seconds = 0;
  double dur_seconds = 0;        // complete events only
  std::uint64_t flow_id = 0;     // 's'/'f' binding id
  std::map<std::string, double> args;
};

// An in-memory trace: events plus track naming metadata and a flat
// otherData map (where ctsort records the per-algorithm TrafficStats
// totals the checker compares the flow sums against).
class Trace {
 public:
  void set_process_name(int pid, const std::string& name);
  void set_track_name(int pid, int tid, const std::string& name);
  void set_meta(const std::string& key, double value);

  void add_complete(int pid, int tid, const std::string& name,
                    const std::string& category, double start_seconds,
                    double end_seconds,
                    std::map<std::string, double> args = {});
  void add_instant(int pid, int tid, const std::string& name,
                   double ts_seconds,
                   std::map<std::string, double> args = {});
  // A flow arrow: phase 's' on the source track at `start_seconds`,
  // phase 'f' on the destination track at `end_seconds`, bound by a
  // fresh id.
  void add_flow(int pid, int src_tid, int dst_tid, double start_seconds,
                double end_seconds);
  // One counter sample ("ph":"C"): Perfetto renders the samples of a
  // (pid, name) pair as a stepped area series. The value rides in
  // args under "value".
  void add_counter(int pid, int tid, const std::string& name,
                   double ts_seconds, double value);

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::map<int, std::string>& process_names() const {
    return process_names_;
  }
  const std::map<std::pair<int, int>, std::string>& track_names() const {
    return track_names_;
  }
  const std::map<std::string, double>& meta() const { return meta_; }

  // Appends another trace's events and metadata (use distinct pids so
  // per-algorithm traces merge into one multi-process file).
  void Merge(const Trace& other);

  // Serializes to the Chrome trace_event JSON object form:
  //   {"traceEvents": [...], "otherData": {...}}
  // ts/dur in microseconds, metadata ('M') events emitted first.
  void WriteJson(std::ostream& out) const;

  // Sum of the "bytes" args over this pid's shuffle slices — the trace
  // side of the byte-conservation invariant.
  double ShuffleBytes(int pid) const;

 private:
  std::vector<TraceEvent> events_;
  std::map<int, std::string> process_names_;
  std::map<std::pair<int, int>, std::string> track_names_;
  std::map<std::string, double> meta_;
  std::uint64_t next_flow_id_ = 1;
};

// Structural validation: finite non-negative times, well-formed span
// nesting per track (complete events form a stack discipline up to
// 1 ns tolerance), every flow id used by exactly one 's'/'f' pair with
// start <= finish. Returns "" when valid, else a description of the
// first violation. Exercised by tests and mirrored in Python by
// tools/trace_check.py for CI artifacts.
std::string ValidateTrace(const Trace& trace);

// `s` escaped for a JSON string literal (quotes, backslashes, control
// characters); the trace writer and the run ledger share it.
std::string JsonEscape(const std::string& s);

// Live run -> trace. One track per node; `pid` distinguishes
// algorithms when several traces are merged into one file. The process
// name defaults to result.algorithm.
Trace BuildLiveTrace(const AlgorithmResult& result, int pid = 0,
                     const std::string& process_name = "");

// DES replay -> trace. `run`/`outcome` must be the pair that went
// through simscen::ReplayScenario; `scenario` supplies the outage
// window for the instant events. The process name defaults to
// "<algorithm> (scenario)".
Trace BuildScenarioTrace(const simscen::ScenarioRun& run,
                         const simscen::ScenarioOutcome& outcome,
                         const simscen::Scenario& scenario, int pid = 0,
                         const std::string& process_name = "");

// Exports every timeline series as counter events on one dedicated
// track of `pid` (named "counters"), one trace_event per sample, in
// key order then sample order — so identical timelines serialize to
// identical counter tracks. tid should sit past the node tracks
// (builders use K for "cluster"; K + 1 is the convention here).
void AppendTimelineCounters(const Timeline& timeline, Trace& trace,
                            int pid, int tid);

}  // namespace cts::obs
