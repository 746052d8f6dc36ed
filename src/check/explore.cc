#include "check/explore.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace cts::check {

namespace {

using simscen::LinkOutage;
using simscen::NetReplayStats;
using simscen::OrderingDecision;
using simscen::OrderingHook;
using simscen::Topology;

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// Extra runs allowed to minimize a violation, beyond the budget.
constexpr std::size_t kShrinkBudget = 32;

// One recorded (or prescribed) decision: the canonical candidate batch
// the simulator offered and the order it was processed in.
struct Choice {
  OrderingDecision::Kind kind = OrderingDecision::Kind::kCompletionTie;
  double time = 0;
  std::vector<std::size_t> candidates;
  std::vector<std::size_t> order;

  bool altered() const { return order != candidates; }
};

using Script = std::vector<Choice>;

std::string RenderChoice(std::size_t depth, const Choice& c) {
  std::ostringstream os;
  os << "d" << depth << " t=" << c.time << " "
     << (c.kind == OrderingDecision::Kind::kCompletionTie ? "tie"
                                                          : "requeue")
     << " [";
  for (std::size_t i = 0; i < c.candidates.size(); ++i) {
    os << (i ? " " : "") << c.candidates[i];
  }
  os << "] -> [";
  for (std::size_t i = 0; i < c.order.size(); ++i) {
    os << (i ? " " : "") << c.order[i];
  }
  os << "]";
  return os.str();
}

// Replays a decision prefix and records the full decision trace. The
// hook is only consulted for batches of >= 2 candidates, so depths
// align across runs that share a prefix.
class ScriptedHook : public OrderingHook {
 public:
  explicit ScriptedHook(const Script* script) : script_(script) {}

  std::vector<std::size_t> Choose(const OrderingDecision& d) override {
    Choice c;
    c.kind = d.kind;
    c.time = d.time;
    c.candidates = d.candidates;
    c.order = d.candidates;
    if (script_ != nullptr && depth_ < script_->size()) {
      const Choice& want = (*script_)[depth_];
      if (want.kind == d.kind && SameSet(want.candidates, d.candidates)) {
        c.order = want.order;
      } else if (mismatch_at_ == kNone) {
        // The same choices led to a different decision structure —
        // itself a determinism violation, reported by the caller.
        mismatch_at_ = depth_;
      }
    }
    trace_.push_back(c);
    ++depth_;
    return c.order;
  }

  const Script& trace() const { return trace_; }
  std::size_t mismatch_at() const { return mismatch_at_; }

 private:
  static bool SameSet(std::vector<std::size_t> a,
                      std::vector<std::size_t> b) {
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return a == b;
  }

  const Script* script_;
  std::size_t depth_ = 0;
  std::size_t mismatch_at_ = kNone;
  Script trace_;
};

struct RunRec {
  double makespan = 0;
  NetReplayStats stats;
  Script trace;
  std::size_t mismatch_at = kNone;
};

// A frontier entry: replay `script` (whose last entry is the one new
// alteration), then continue canonically.
struct Branch {
  Script script;
  bool tie_only = true;  // every alteration so far permutes a tie batch
  std::size_t altered_depth = 0;
};

class Explorer {
 public:
  Explorer(const simnet::TransmissionLog& log, const Topology& topo,
           simnet::Discipline discipline, simnet::ReplayOrder order,
           const LinkOutage& outage, const ExploreOptions& opts)
      : log_(log), topo_(topo), discipline_(discipline), order_(order),
        outage_(outage), opts_(opts) {
    const bool fd =
        discipline == simnet::Discipline::kParallelFullDuplex;
    total_payload_ = 0;
    feet_.reserve(log.size());
    for (const auto& t : log) {
      total_payload_ += static_cast<double>(t.bytes);
      Foot f;
      f.src = t.src;
      f.res.push_back(fd ? 2 * t.src : t.src);
      for (const NodeId d : t.dsts) f.res.push_back(fd ? 2 * d + 1 : d);
      std::sort(f.res.begin(), f.res.end());
      f.res.erase(std::unique(f.res.begin(), f.res.end()), f.res.end());
      feet_.push_back(std::move(f));
    }
  }

  ExploreReport Run() {
    ExploreReport rep;
    const RunRec base = RunOne(nullptr);
    base_ = &base;
    rep.baseline_makespan = base.makespan;
    for (const Choice& c : base.trace) {
      if (c.candidates.size() >= 2) {
        ++rep.decision_points;
        rep.max_tie_width = std::max(rep.max_tie_width,
                                     c.candidates.size());
      }
    }
    // The canonical run itself must conserve bytes and lose no flow.
    Judge(base, Branch{}, rep, /*shrinkable=*/false);

    Expand(base.trace, 0, /*tie_only=*/true);
    std::size_t runs = 0;
    std::size_t timing_i = 0;
    while (runs < opts_.budget) {
      Branch br;
      bool from_dependent = false;
      if (!stack_.empty()) {
        br = std::move(stack_.back());
        stack_.pop_back();
        from_dependent = true;
      } else if (!vqueue_.empty()) {
        br = std::move(vqueue_.front());
        vqueue_.pop_front();
      } else if (outage_.active()) {
        // Frontier exhausted: spend what's left of the budget sweeping
        // the outage window across the schedule. The outage event's
        // position in the event order is an adversarial scheduling
        // choice too, and conservation + no-lost-flow must hold at
        // every placement.
        ++timing_i;
        const double dur = outage_.end - outage_.start;
        const double span = std::max(base.makespan, outage_.end);
        LinkOutage shifted = outage_;
        shifted.start = span * static_cast<double>(timing_i) /
                        static_cast<double>(opts_.budget + 1);
        shifted.end = shifted.start + dur;
        const RunRec rec = RunOne(nullptr, &shifted);
        ++runs;
        ++rep.outage_timings;
        const std::string bad = Violates(rec, /*tie_only=*/false);
        if (!bad.empty()) {
          OrderingViolation v;
          v.invariant = bad;
          std::ostringstream os;
          os << "invariant '" << bad << "' violated with the outage "
             << "shifted to [" << shifted.start << ", " << shifted.end
             << ") (delivered " << rec.stats.delivered_payload_bytes
             << " of " << total_payload_ << " bytes)";
          v.detail = os.str();
          std::ostringstream line;
          line << "outage n" << shifted.node << " moved to ["
               << shifted.start << ", " << shifted.end << ")";
          v.schedule.push_back(line.str());
          rep.violations.push_back(std::move(v));
        }
        continue;
      } else {
        break;
      }
      const RunRec rec = RunOne(&br.script);
      ++runs;
      Judge(rec, br, rep, /*shrinkable=*/true);
      if (from_dependent) {
        Expand(rec.trace, br.script.size(), br.tie_only);
      } else {
        ++rep.branches_validated;
      }
    }
    rep.orderings_explored = runs + shrink_runs_;
    base_ = nullptr;
    return rep;
  }

 private:
  struct Foot {
    NodeId src = 0;
    std::vector<int> res;  // exclusive access links (dedup, sorted)
  };

  RunRec RunOne(const Script* script,
                const LinkOutage* outage_override = nullptr) {
    ScriptedHook hook(script);
    RunRec rec;
    rec.makespan = simscen::NetMakespan(
        log_, topo_, discipline_, order_,
        outage_override != nullptr ? *outage_override : outage_,
        &rec.stats, &hook);
    rec.trace = hook.trace();
    rec.mismatch_at = hook.mismatch_at();
    return rec;
  }

  // Would processing `a` before `b` (or vice versa) fail to commute?
  // Completion ties and re-queues interact only through the exclusive
  // link state (fluid shares are recomputed after the whole batch);
  // per-sender replay adds the sender queue as a shared structure on
  // re-queues.
  bool Dependent(std::size_t a, std::size_t b,
                 OrderingDecision::Kind kind) const {
    const Foot& fa = feet_[a];
    const Foot& fb = feet_[b];
    if (kind == OrderingDecision::Kind::kOutageRequeue &&
        order_ == simnet::ReplayOrder::kPerSender && fa.src == fb.src) {
      return true;
    }
    // Sorted-merge intersection test.
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < fa.res.size() && j < fb.res.size()) {
      if (fa.res[i] == fb.res[j]) return true;
      if (fa.res[i] < fb.res[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    return false;
  }

  // Generates every single-promotion alternative of `trace` at depths
  // >= `from` (the DPOR frontier step): candidate j moves to the front
  // of its batch. Alternatives whose promoted flow is independent of
  // everything it overtakes provably commute — they go to the
  // validation queue instead of the dependent stack.
  void Expand(const Script& trace, std::size_t from, bool tie_only) {
    for (std::size_t d = from; d < trace.size(); ++d) {
      const Choice& c = trace[d];
      const std::size_t w = c.candidates.size();
      for (std::size_t j = 1; j < w; ++j) {
        Choice alt = c;
        alt.order.clear();
        alt.order.push_back(c.candidates[j]);
        for (std::size_t k = 0; k < w; ++k) {
          if (k != j) alt.order.push_back(c.candidates[k]);
        }
        bool dep = false;
        for (std::size_t k = 0; k < j && !dep; ++k) {
          dep = Dependent(c.candidates[j], c.candidates[k], c.kind);
        }
        Branch br;
        br.script.assign(trace.begin(),
                         trace.begin() + static_cast<std::ptrdiff_t>(d));
        br.script.push_back(std::move(alt));
        br.tie_only =
            tie_only && c.kind == OrderingDecision::Kind::kCompletionTie;
        br.altered_depth = d;
        if (dep) {
          if (stack_.size() < 16 * opts_.budget) {
            stack_.push_back(std::move(br));
          }
        } else {
          ++pruned_;
          if (vqueue_.size() < 16 * opts_.budget) {
            vqueue_.push_back(std::move(br));
          }
        }
      }
    }
  }

  // Names the first violated invariant, or "" when the run is clean.
  std::string Violates(const RunRec& rec, bool tie_only) const {
    if (rec.mismatch_at != kNone) return "decision_replay";
    if (rec.stats.delivered_payload_bytes != total_payload_) {
      return "byte_conservation";
    }
    if (rec.stats.flow_end.size() != log_.size()) return "lost_flow";
    for (std::size_t i = 0; i < log_.size(); ++i) {
      if (!(rec.stats.flow_end[i] > 0) && log_[i].bytes > 0) {
        return "lost_flow";
      }
    }
    if (tie_only && base_ != nullptr) {
      if (rec.makespan != base_->makespan ||
          rec.stats.flow_end != base_->stats.flow_end) {
        return "tie_invariance";
      }
    }
    return "";
  }

  void Judge(const RunRec& rec, const Branch& br, ExploreReport& rep,
             bool shrinkable) {
    const std::string bad = Violates(rec, br.tie_only);
    if (bad.empty()) return;
    Branch minimal = br;
    if (shrinkable) minimal = Shrink(br, bad);
    OrderingViolation v;
    v.invariant = bad;
    v.divergence_depth = kNone;
    for (std::size_t d = 0; d < minimal.script.size(); ++d) {
      if (!minimal.script[d].altered()) continue;
      if (v.divergence_depth == kNone) v.divergence_depth = d;
      v.schedule.push_back(RenderChoice(d, minimal.script[d]));
    }
    if (v.divergence_depth == kNone) v.divergence_depth = 0;
    std::ostringstream os;
    os << "invariant '" << bad << "' violated (makespan " << rec.makespan
       << " vs baseline " << rep.baseline_makespan << ", delivered "
       << rec.stats.delivered_payload_bytes << " of " << total_payload_
       << " bytes, " << v.schedule.size() << " altered decision(s))";
    v.detail = os.str();
    rep.violations.push_back(std::move(v));
  }

  // Minimizes a violating branch: re-run with only the first m of its
  // alterations (m growing) and keep the shortest script that still
  // violates. Linear, budget-capped; falls back to the full branch.
  Branch Shrink(const Branch& br, const std::string& invariant) {
    std::vector<std::size_t> altered;
    for (std::size_t d = 0; d < br.script.size(); ++d) {
      if (br.script[d].altered()) altered.push_back(d);
    }
    if (altered.size() <= 1) return br;
    for (std::size_t m = 1; m < altered.size(); ++m) {
      if (shrink_runs_ >= kShrinkBudget) break;
      Branch cand;
      cand.script.assign(
          br.script.begin(),
          br.script.begin() + static_cast<std::ptrdiff_t>(altered[m - 1] + 1));
      cand.tie_only = br.tie_only;
      cand.altered_depth = altered[m - 1];
      const RunRec rec = RunOne(&cand.script);
      ++shrink_runs_;
      if (Violates(rec, cand.tie_only) == invariant) return cand;
    }
    return br;
  }

  const simnet::TransmissionLog& log_;
  const Topology& topo_;
  const simnet::Discipline discipline_;
  const simnet::ReplayOrder order_;
  const LinkOutage outage_;
  const ExploreOptions opts_;
  double total_payload_ = 0;
  std::vector<Foot> feet_;
  const RunRec* base_ = nullptr;
  std::vector<Branch> stack_;
  std::deque<Branch> vqueue_;
  std::size_t pruned_ = 0;
  std::size_t shrink_runs_ = 0;

 public:
  std::size_t pruned() const { return pruned_; }
};

}  // namespace

ExploreReport ExploreOrderings(const simnet::TransmissionLog& log,
                               const simscen::Topology& topology,
                               simnet::Discipline discipline,
                               simnet::ReplayOrder order,
                               const simscen::LinkOutage& outage,
                               const ExploreOptions& opts) {
  Explorer explorer(log, topology, discipline, order, outage, opts);
  ExploreReport rep = explorer.Run();
  rep.branches_pruned = explorer.pruned();
  return rep;
}

}  // namespace cts::check
