// ctbench layer passes: the benchmark's own calls into each layer,
// timed from outside the library.
//
// A traced ctbench run re-executes one job's work layer by layer on the
// bench thread — node by node, with a span around every call into a
// layer — so each layer's cost is measured where the work happens
// without any tracing inside src/. The transport is the one layer that
// needs threads: its pass moves the live job's recorded shuffle payload
// sizes through the same simmpi calls the algorithms use, on K node
// threads.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "driver/run_result.h"
#include "job/job.h"
#include "obs/trace.h"
#include "plan/planner.h"

namespace ctbench {

// In-memory span log for one trace process. Spans on one track nest;
// a span's self time is its duration minus the part its direct
// children cover. Only the bench thread opens scopes; spans measured
// on other threads are added closed, after those threads joined.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, std::size_t index) : log_(log), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { log_.spans_[index_].end = log_.Now(); }

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  // Opens a span on track `tid`; it closes when the scope ends.
  [[nodiscard]] Scope Span(int tid, const std::string& name) {
    spans_.push_back({tid, name, Now(), -1});
    return Scope(*this, spans_.size() - 1);
  }
  // Records a span measured elsewhere on this log's clock.
  void Add(int tid, const std::string& name, double start, double end) {
    spans_.push_back({tid, name, start, end});
  }
  // Seconds since the log was created (safe to read from any thread).
  double Now() const { return clock_.elapsed(); }

  // Summed duration and self time per span name.
  std::map<std::string, double> TotalSeconds() const;
  std::map<std::string, double> SelfSeconds() const;

  void AppendTo(cts::obs::Trace& trace, int pid) const;

 private:
  struct Record {
    int tid = 0;
    std::string name;
    double start = 0;
    double end = 0;
  };
  std::vector<Record> spans_;
  cts::Stopwatch clock_;
};

// What one layer pass measured.
struct LayerPass {
  SpanLog spans;
  // Per-layer metrics by their BENCHMARK.json names (layers the pass
  // does not reach are absent).
  std::map<std::string, double> metrics;
  // Stage -> summed per-node seconds of this pass, the counterpart of
  // the live run's summed node busy time.
  std::map<std::string, double> stage_seconds;
  // Non-empty when the pass's own output failed validation.
  std::string error;
};

// Live sorting workloads: Map, Pack/Encode, Unpack/Decode and Reduce
// node by node for (algorithm, config), validated with TeraValidate,
// plus a RunOnCluster pass moving `shuffle_log`'s payload sizes.
LayerPass RunLivePass(const std::string& algorithm,
                      const cts::SortConfig& config,
                      const cts::simnet::TransmissionLog& shuffle_log);

// Planner workload: job::RunMatrix over the plan grid (one instance),
// then simscen::ReplayScenario directly per cell, on the warm cache.
LayerPass RunPlanPass(const cts::plan::PlanAxes& axes,
                      cts::job::RunCache& cache);

// Synthesized workload: simulate::SynthesizeRun and
// analytics::SimulateRun, `reps` times each.
LayerPass RunSimulatedPass(const cts::job::JobSpec& spec, int reps);

}  // namespace ctbench
