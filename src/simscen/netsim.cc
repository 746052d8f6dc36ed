#include "simscen/netsim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"

namespace cts::simscen {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool Touches(const simnet::Transmission& t, NodeId node) {
  if (t.src == node) return true;
  for (const NodeId d : t.dsts) {
    if (d == node) return true;
  }
  return false;
}

// What the flight recorder reads off the DES. It only changes at
// events, so one measurement serves every tick up to the next event.
struct DesState {
  double inflight = 0;
  double requeue_depth = 0;
  double link_utilization = 0;
};

// One replay's flight-recorder ticks: fixed steps of the replay clock,
// derived from the log itself (serialized duration / 256 by default)
// — a pure function of the inputs, so two replays tick identically.
// The three series are resolved once; a tick is three appends.
class ProbeTicks {
 public:
  ProbeTicks(const TimelineProbe& probe, const simnet::TransmissionLog& log,
             const Topology& topo)
      : probe_(probe) {
    if (probe.timeline == nullptr) return;
    double span_bytes = 0;
    for (const auto& t : log) {
      span_bytes += static_cast<double>(t.bytes) * topo.multicast_penalty(t);
    }
    dt_ = probe.interval > 0 ? probe.interval
                             : span_bytes / topo.access_bytes_per_sec / 256.0;
    if (dt_ > 0) {
      inflight_ = &probe.timeline->Series("des/inflight_flows");
      requeue_depth_ = &probe.timeline->Series("des/requeue_depth");
      link_utilization_ = &probe.timeline->Series("des/link_utilization");
    }
  }

  bool active() const { return inflight_ != nullptr; }
  // True when a tick falls at or before replay time `t`.
  bool due(double t) const { return active() && next_ <= t; }

  // One sample of every series at replay time `t`.
  void At(double t, const DesState& s) {
    const double ts = probe_.t0 + probe_.scale * t;
    inflight_->push_back({ts, s.inflight});
    requeue_depth_->push_back({ts, s.requeue_depth});
    link_utilization_->push_back({ts, s.link_utilization});
  }
  // Every tick at or before `t` (Through) or strictly before it
  // (Before), all reading the same state `s`.
  void Through(double t, const DesState& s) {
    for (; next_ <= t; next_ += dt_) At(next_, s);
  }
  void Before(double t, const DesState& s) {
    for (; next_ < t; next_ += dt_) At(next_, s);
  }

 private:
  const TimelineProbe& probe_;
  double dt_ = 0;
  double next_ = 0;
  std::vector<obs::TimelineSample>* inflight_ = nullptr;
  std::vector<obs::TimelineSample>* requeue_depth_ = nullptr;
  std::vector<obs::TimelineSample>* link_utilization_ = nullptr;
};

// One transmission in flight. The flow streams `stream_total` bytes
// from the sender's uplink; each receiver's downlink is released once
// `payload` bytes have flowed, the uplink (and core share) when the
// whole stream has.
struct Flow {
  const simnet::Transmission* t = nullptr;
  double payload = 0;       // bytes each receiver must see
  double stream_total = 0;  // payload * multicast penalty (sender side)
  bool crossing = false;    // traverses the core
  bool touches_outage = false;

  // Exclusive access links: the uplink first, then the receivers'
  // downlinks (deduplicated).
  std::vector<int> links;

  // Fluid inter-rack pipes the flow's stream crosses (core + source
  // rack uplink, held until the stream tail is done) and the
  // destination-rack downlink shares (held until the payload is
  // delivered). The weight is how many concurrent copies of the
  // stream the pipe carries for this flow: #receivers in the rack, or
  // 1 under rack-aware multicast. Populated only on the generalized
  // multi-pipe path (Topology::rack_pipes_finite()).
  std::vector<std::pair<int, double>> pipes_stream;
  std::vector<std::pair<int, double>> pipes_payload;

  bool admitted = false;
  bool receivers_released = false;
  bool done = false;
  double first_admit = -1;  // first time on the wire (-1: never admitted)

  // Piecewise-linear progress: sent(t) = seg_sent + rate * (t -
  // seg_start) while the allocated rate is unchanged. The segment is
  // only reset when the rate actually changes, so a flow whose rate
  // never varies completes at admit_time + total/rate in one floating
  // addition — the same arithmetic simnet uses.
  double rate = 0;
  double seg_start = 0;
  double seg_sent = 0;

  double sent_at(double now) const {
    return seg_sent + rate * (now - seg_start);
  }
  double next_threshold() const {
    return receivers_released ? stream_total : payload;
  }

  int up_res() const { return links.front(); }
  std::span<const int> down_res() const {
    return std::span<const int>(links).subspan(1);
  }
  // The links the flow needs to make progress from its current state:
  // the uplink always; the downlinks only until the payload has been
  // delivered (a re-queued tail must not wait for downlinks it already
  // released).
  std::span<const int> needed() const {
    return std::span<const int>(links).first(receivers_released ? 1
                                                                : links.size());
  }
};

// Exclusive access-link state: FIFO queue of flow indices in log order
// (kLogOrder) plus a plain occupancy flag (kPerSender). Re-queued
// outage victims append to the queue, so followers overtake them.
struct Resource {
  std::vector<std::size_t> queue;  // log-order users (kLogOrder)
  std::size_t head = 0;            // first unreleased user
  bool occupied = false;           // kPerSender occupancy
};

class FlowSim {
 public:
  FlowSim(const simnet::TransmissionLog& log, const Topology& topo,
          bool full_duplex, simnet::ReplayOrder order,
          const LinkOutage& outage, OrderingHook* hook)
      : log_(log), topo_(topo), full_duplex_(full_duplex), order_(order),
        outage_(outage), hook_(hook) {
    const int n = topo.num_nodes;
    CTS_CHECK_GE(n, 1);
    CTS_CHECK_GT(topo.access_bytes_per_sec, 0.0);
    CTS_CHECK_GT(topo.core_bytes_per_sec, 0.0);
    resources_.resize(full_duplex ? 2 * static_cast<std::size_t>(n)
                                  : static_cast<std::size_t>(n));

    // The generalized multi-pipe path exists only when a per-rack pipe
    // actually constrains; otherwise Reallocate keeps the original
    // shared-core arithmetic so degenerate replays are bit-for-bit.
    use_pipes_ = topo.rack_pipes_finite();
    int core_pipe = -1;
    int up_base = -1;
    int down_base = -1;
    if (use_pipes_) {
      const int racks = topo.num_racks();
      if (topo.core_is_finite()) {
        core_pipe = static_cast<int>(pipe_cap_.size());
        pipe_cap_.push_back(topo.core_bytes_per_sec);
      }
      if (topo.rack_uplink_bytes_per_sec < kInf) {
        CTS_CHECK_GT(topo.rack_uplink_bytes_per_sec, 0.0);
        up_base = static_cast<int>(pipe_cap_.size());
        pipe_cap_.insert(pipe_cap_.end(), static_cast<std::size_t>(racks),
                         topo.rack_uplink_bytes_per_sec);
      }
      if (topo.rack_downlink_bytes_per_sec < kInf) {
        CTS_CHECK_GT(topo.rack_downlink_bytes_per_sec, 0.0);
        down_base = static_cast<int>(pipe_cap_.size());
        pipe_cap_.insert(pipe_cap_.end(), static_cast<std::size_t>(racks),
                         topo.rack_downlink_bytes_per_sec);
      }
    }

    flows_.reserve(log.size());
    for (const auto& t : log) {
      CTS_CHECK_GE(t.src, 0);
      CTS_CHECK_LT(t.src, n);
      Flow f;
      f.t = &t;
      f.payload = static_cast<double>(t.bytes);
      f.stream_total =
          static_cast<double>(t.bytes) * topo.multicast_penalty(t);
      f.crossing = topo.crosses_core(t);
      f.touches_outage = outage_.active() && Touches(t, outage_.node);
      f.links.reserve(1 + t.dsts.size());
      f.links.push_back(up_of(t.src));
      for (const NodeId d : t.dsts) {
        CTS_CHECK_GE(d, 0);
        CTS_CHECK_LT(d, n);
        CTS_CHECK_NE(d, t.src);
        f.links.push_back(down_of(d));
      }
      std::sort(f.links.begin() + 1, f.links.end());
      f.links.erase(std::unique(f.links.begin() + 1, f.links.end()),
                    f.links.end());
      if (use_pipes_ && f.crossing) {
        const int src_rack = topo.rack_of(t.src);
        if (core_pipe >= 0) f.pipes_stream.push_back({core_pipe, 1.0});
        if (up_base >= 0) {
          f.pipes_stream.push_back({up_base + src_rack, 1.0});
        }
        if (down_base >= 0) {
          // Copies entering each destination rack: one per receiver
          // there, or one total when the rack switch replicates
          // (rack-aware multicast).
          std::map<int, double> copies;
          for (const NodeId d : t.dsts) {
            const int r = topo.rack_of(d);
            if (r != src_rack) copies[r] += 1.0;
          }
          for (const auto& [rack, count] : copies) {
            f.pipes_payload.push_back(
                {down_base + rack,
                 topo.rack_aware_multicast ? 1.0 : count});
          }
        }
      }
      flows_.push_back(std::move(f));
    }

    if (order_ == simnet::ReplayOrder::kLogOrder) {
      for (std::size_t i = 0; i < flows_.size(); ++i) {
        for (const int r : flows_[i].needed()) {
          resources_[static_cast<std::size_t>(r)].queue.push_back(i);
        }
      }
    } else {
      // Per-sender FIFO in seq order (a sender's seq order is its
      // program order), mirroring simnet::ParallelPerSenderMakespan.
      sender_queue_.resize(static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < flows_.size(); ++i) {
        sender_queue_[static_cast<std::size_t>(flows_[i].t->src)]
            .push_back(i);
      }
      for (auto& q : sender_queue_) {
        std::sort(q.begin(), q.end(), [&](std::size_t a, std::size_t b) {
          return log_[a].seq < log_[b].seq;
        });
      }
      sender_head_.assign(static_cast<std::size_t>(n), 0);
    }
  }

  double Run(NetReplayStats* stats, const TimelineProbe& probe) {
    if (stats != nullptr) {
      stats->flow_end.assign(flows_.size(), 0.0);
      stats->flow_start.assign(flows_.size(), 0.0);
    }
    double now = 0;
    double makespan = 0;
    std::size_t remaining = flows_.size();
    ProbeTicks ticks(probe, log_, topo_);

    ProcessOutage(now);
    Admit(now);
    Reallocate(now);
    if (ticks.active()) ticks.Through(0.0, Measure());
    while (remaining > 0) {
      // Earliest next threshold crossing among active flows, plus the
      // outage window edges (a blocked system only moves again when
      // the outage starts releasing flows or ends re-admitting them).
      double t_next = kInf;
      for (const Flow& f : flows_) {
        if (!f.admitted || f.done) continue;
        CTS_CHECK_GT(f.rate, 0.0);
        const double cand =
            f.seg_start + (f.next_threshold() - f.seg_sent) / f.rate;
        t_next = std::min(t_next, cand);
      }
      if (outage_.active()) {
        if (!outage_hit_ && outage_.start > now) {
          t_next = std::min(t_next, outage_.start);
        } else if (outage_.end > now) {
          t_next = std::min(t_next, outage_.end);
        }
      }
      CTS_CHECK_LT(t_next, kInf);
      // Rates are piecewise-constant between events, so the state at
      // every tick in (now, t_next] is the state right now — measure
      // it once and emit the due ticks before the batch mutates it.
      if (ticks.due(t_next)) ticks.Through(t_next, Measure());
      now = std::max(now, t_next);

      // Collect every flow whose candidate equals the event time (ties
      // come from identical arithmetic and compare equal), then let
      // the ordering hook pick a processing order — the DPOR seam.
      // Batch members never change each other's candidate time
      // (Release touches resources, not rates; Admit/Reallocate run
      // after the batch), so collect-then-process with the canonical
      // ascending order is the historical behaviour bit-for-bit.
      tie_.clear();
      for (std::size_t i = 0; i < flows_.size(); ++i) {
        const Flow& f = flows_[i];
        if (!f.admitted || f.done) continue;
        const double cand =
            f.seg_start + (f.next_threshold() - f.seg_sent) / f.rate;
        if (cand > t_next) continue;
        tie_.push_back(i);
      }
      for (const std::size_t i :
           ChooseOrder(OrderingDecision::Kind::kCompletionTie, t_next,
                       tie_)) {
        Flow& f = flows_[i];
        // Snap progress to the threshold (no drift).
        f.seg_sent = f.next_threshold();
        f.seg_start = t_next;
        if (!f.receivers_released) {
          f.receivers_released = true;
          for (const int r : f.down_res()) Release(r);
          if (stats != nullptr) stats->delivered_payload_bytes += f.payload;
        }
        if (f.receivers_released && f.seg_sent >= f.stream_total) {
          f.done = true;
          Release(f.up_res());
          makespan = std::max(makespan, t_next);
          if (stats != nullptr) {
            stats->flow_end[i] = t_next;
            stats->flow_start[i] = std::max(f.first_admit, 0.0);
          }
          --remaining;
        }
      }
      ProcessOutage(now);
      Admit(now);
      Reallocate(now);
    }
    if (ticks.active()) ticks.At(makespan, Measure());  // drained end state
    if (stats != nullptr) {
      stats->flows_started = admissions_;
      stats->flows_requeued = requeued_;
      stats->maxmin_recomputations = maxmin_recomputations_;
    }
    return makespan;
  }

 private:
  int up_of(NodeId n) const {
    return full_duplex_ ? 2 * n : n;
  }
  int down_of(NodeId n) const {
    return full_duplex_ ? 2 * n + 1 : n;
  }

  // The flight recorder's view of the current state: flows on the
  // wire, outage victims waiting to re-enter it, and the fraction of
  // access links some admitted flow still needs.
  DesState Measure() {
    DesState s;
    busy_.assign(resources_.size(), 0);
    for (const Flow& f : flows_) {
      if (f.done) continue;
      if (f.admitted) {
        s.inflight += 1;
        for (const int r : f.needed()) busy_[static_cast<std::size_t>(r)] = 1;
      } else if (f.first_admit >= 0) {
        // Admitted once, knocked back by the outage, not yet back on
        // the wire: the re-queue backlog.
        s.requeue_depth += 1;
      }
    }
    double busy_links = 0;
    for (const char b : busy_) busy_links += b;
    s.link_utilization = busy_links / static_cast<double>(resources_.size());
    return s;
  }

  void Release(int r) {
    Resource& res = resources_[static_cast<std::size_t>(r)];
    if (order_ == simnet::ReplayOrder::kLogOrder) {
      ++res.head;
    } else {
      res.occupied = false;
    }
  }

  bool InOutage(double now) const {
    return outage_.covers(now);
  }

  // At the moment the outage starts, every in-flight flow touching the
  // failed node loses its progress and is re-queued: its links are
  // released (followers may overtake) and it re-enters at the back of
  // the queues it still needs. Payload already delivered stays
  // delivered — only the undelivered part retransmits.
  void ProcessOutage(double now) {
    if (outage_hit_ || !outage_.active() || now < outage_.start) return;
    outage_hit_ = true;
    if (now >= outage_.end) return;  // zero-length window inside a step
    // The victims' re-queue order decides who re-enters each link
    // queue first once the outage lifts — a real scheduling freedom
    // (unlike completion ties, alternative orders may legally change
    // the makespan), so it is the second hook decision kind.
    tie_.clear();
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      const Flow& f = flows_[i];
      if (f.admitted && !f.done && f.touches_outage) tie_.push_back(i);
    }
    for (const std::size_t i :
         ChooseOrder(OrderingDecision::Kind::kOutageRequeue, now, tie_)) {
      Flow& f = flows_[i];
      for (const int r : f.needed()) {
        Release(r);
        if (order_ == simnet::ReplayOrder::kLogOrder) {
          resources_[static_cast<std::size_t>(r)].queue.push_back(i);
        }
      }
      if (order_ != simnet::ReplayOrder::kLogOrder) {
        // Retry in the sender's queue once the outage lifts.
        sender_queue_[static_cast<std::size_t>(f.t->src)].push_back(i);
      }
      ++requeued_;
      f.admitted = false;
      f.rate = 0;
      f.seg_start = now;
      f.seg_sent = f.receivers_released ? f.payload : 0.0;
    }
  }

  // The hook-or-canonical processing order for one decision batch.
  // Returns `canonical` untouched (no copy) when no hook is installed
  // or the batch has a single member.
  const std::vector<std::size_t>& ChooseOrder(
      OrderingDecision::Kind kind, double time,
      const std::vector<std::size_t>& canonical) {
    if (hook_ == nullptr || canonical.size() < 2) return canonical;
    chosen_ = hook_->Choose(OrderingDecision{kind, time, canonical});
    std::vector<std::size_t> got = chosen_;
    std::sort(got.begin(), got.end());
    std::vector<std::size_t> want = canonical;
    std::sort(want.begin(), want.end());
    CTS_CHECK_MSG(got == want,
                  "OrderingHook returned a non-permutation of the "
                  "candidate batch");
    return chosen_;
  }

  bool Admissible(std::size_t i, double now) const {
    const Flow& f = flows_[i];
    if (f.touches_outage && InOutage(now)) return false;
    for (const int r : f.needed()) {
      const Resource& res = resources_[static_cast<std::size_t>(r)];
      if (order_ == simnet::ReplayOrder::kLogOrder) {
        // Admissible only when this flow is the earliest unreleased
        // user of every link it needs — per-link FIFO in log order,
        // which reproduces simnet's list schedule (an earlier log
        // entry holds or reserves the link until it releases it).
        if (res.head >= res.queue.size() || res.queue[res.head] != i) {
          return false;
        }
      } else {
        if (res.occupied) return false;
      }
    }
    return true;
  }

  void AdmitFlow(std::size_t i, double now) {
    Flow& f = flows_[i];
    f.admitted = true;
    ++admissions_;
    if (f.first_admit < 0) f.first_admit = now;
    f.seg_start = now;
    f.seg_sent = f.receivers_released ? f.payload : 0.0;
    f.rate = 0;  // assigned by Reallocate before any event math
    if (order_ != simnet::ReplayOrder::kLogOrder) {
      for (const int r : f.needed()) {
        resources_[static_cast<std::size_t>(r)].occupied = true;
      }
    }
  }

  void Admit(double now) {
    if (order_ == simnet::ReplayOrder::kLogOrder) {
      // Admissions cannot enable other admissions (queues pop on
      // release only), so one pass in log order suffices.
      for (std::size_t i = 0; i < flows_.size(); ++i) {
        if (!flows_[i].admitted && !flows_[i].done && Admissible(i, now)) {
          AdmitFlow(i, now);
        }
      }
    } else {
      // Sender-id order breaks simultaneous ties exactly like the
      // greedy in simnet::ParallelPerSenderMakespan.
      for (std::size_t n = 0; n < sender_queue_.size(); ++n) {
        while (sender_head_[n] < sender_queue_[n].size()) {
          const std::size_t i = sender_queue_[n][sender_head_[n]];
          if (flows_[i].admitted || flows_[i].done) {
            ++sender_head_[n];  // stale entry from a pre-outage pass
            continue;
          }
          if (!Admissible(i, now)) break;
          AdmitFlow(i, now);
          ++sender_head_[n];
        }
      }
    }
  }

  // One flow's entry in a max-min recomputation.
  struct Share {
    Flow* f;
    double cap;
    bool payload_live;  // pipes path: downlink shares still held
    bool fixed = false;
    double limit = 0;
  };

  // Max-min rates: every flow is capped by the access links it still
  // holds (exclusive, so the cap is the raw link rate); concurrent
  // cross-rack flows then share the core by progressive filling. A
  // flow's segment is reset only if its rate actually changes.
  void Reallocate(double now) {
    if (use_pipes_) {
      ReallocatePipes(now);
      return;
    }
    std::vector<Share>& crossing = shares_;
    crossing.clear();
    for (Flow& f : flows_) {
      if (!f.admitted || f.done) continue;
      double cap = topo_.access_bytes_per_sec;
      // Released downlinks no longer constrain the stream tail; the
      // uplink always does. With a uniform access rate the min is the
      // access rate either way.
      if (f.crossing && topo_.core_is_finite()) {
        crossing.push_back({&f, cap, false});
      } else {
        SetRate(f, cap, now);
      }
    }
    if (crossing.empty()) return;
    ++maxmin_recomputations_;
    // Progressive filling of the single shared core pipe: repeatedly
    // grant the lowest-capped flow min(cap, equal share of what
    // remains).
    std::sort(crossing.begin(), crossing.end(),
              [](const Share& a, const Share& b) { return a.cap < b.cap; });
    double remaining = topo_.core_bytes_per_sec;
    std::size_t left = crossing.size();
    for (Share& e : crossing) {
      const double level = remaining / static_cast<double>(left);
      const double r = std::min(e.cap, level);
      SetRate(*e.f, r, now);
      remaining -= r;
      --left;
    }
  }

  // Weighted max-min over the inter-rack pipes (core + per-rack
  // uplink/downlink), by water-filling: every unfixed flow's rate
  // rises together; whichever constraint binds first — a flow's
  // access-link cap, or a pipe whose remaining capacity is exhausted
  // by the weights still on it — fixes the flows it limits at the
  // water level, returns their shares, and the level keeps rising for
  // the rest. A flow's share of a pipe is its weight × rate (a
  // multicast entering a rack with w receivers puts w copies on that
  // rack's downlink), which is exactly where locality shows up in the
  // planner's price. Only taken when a rack pipe is finite; the
  // shared-core path above keeps its original arithmetic so the
  // infinite-pipe replay stays bit-for-bit.
  void ReallocatePipes(double now) {
    std::vector<Share>& entries = shares_;
    entries.clear();
    for (Flow& f : flows_) {
      if (!f.admitted || f.done) continue;
      const bool payload_live =
          !f.receivers_released && !f.pipes_payload.empty();
      if (f.pipes_stream.empty() && !payload_live) {
        SetRate(f, topo_.access_bytes_per_sec, now);
        continue;
      }
      entries.push_back({&f, topo_.access_bytes_per_sec, payload_live});
    }
    if (entries.empty()) return;
    ++maxmin_recomputations_;

    std::vector<double>& rem = pipe_rem_;
    std::vector<double>& weight = pipe_weight_;
    rem.assign(pipe_cap_.begin(), pipe_cap_.end());
    weight.assign(pipe_cap_.size(), 0.0);
    const auto each_pipe = [](const Share& e, auto&& fn) {
      for (const auto& [p, w] : e.f->pipes_stream) fn(p, w);
      if (e.payload_live) {
        for (const auto& [p, w] : e.f->pipes_payload) fn(p, w);
      }
    };
    for (const Share& e : entries) {
      each_pipe(e, [&](int p, double w) {
        weight[static_cast<std::size_t>(p)] += w;
      });
    }

    std::size_t unfixed = entries.size();
    while (unfixed > 0) {
      // The rate each unfixed flow could reach if only its own
      // constraints existed; the lowest of these is where the water
      // level binds next, and every flow at that limit fixes there.
      double level = kInf;
      for (Share& e : entries) {
        if (e.fixed) continue;
        e.limit = e.cap;
        each_pipe(e, [&](int p, double w) {
          (void)w;
          const auto i = static_cast<std::size_t>(p);
          if (weight[i] > 0) e.limit = std::min(e.limit, rem[i] / weight[i]);
        });
        level = std::min(level, e.limit);
      }
      CTS_CHECK_GT(level, 0.0);
      for (Share& e : entries) {
        if (e.fixed || e.limit > level) continue;
        e.fixed = true;
        --unfixed;
        SetRate(*e.f, level, now);
        each_pipe(e, [&](int p, double w) {
          const auto i = static_cast<std::size_t>(p);
          rem[i] = std::max(rem[i] - w * level, 0.0);
          weight[i] -= w;
        });
      }
    }
  }

  void SetRate(Flow& f, double rate, double now) {
    CTS_CHECK_GT(rate, 0.0);
    if (f.rate == rate) return;
    f.seg_sent = f.sent_at(now);
    f.seg_start = now;
    f.rate = rate;
  }

  const simnet::TransmissionLog& log_;
  const Topology& topo_;
  const bool full_duplex_;
  const simnet::ReplayOrder order_;
  const LinkOutage outage_;
  OrderingHook* const hook_;
  std::vector<std::size_t> tie_;     // reused decision-batch buffer
  std::vector<std::size_t> chosen_;  // hook-returned order buffer
  // Per-event scratch, reused so the event loop never allocates: the
  // max-min entries, the pipes' remaining capacity and weight, and the
  // flight recorder's busy-link flags.
  std::vector<Share> shares_;
  std::vector<double> pipe_rem_;
  std::vector<double> pipe_weight_;
  std::vector<char> busy_;
  bool use_pipes_ = false;
  std::vector<double> pipe_cap_;  // core, then per-rack up, then down
  bool outage_hit_ = false;
  std::uint64_t admissions_ = 0;
  std::uint64_t requeued_ = 0;
  std::uint64_t maxmin_recomputations_ = 0;
  std::vector<Flow> flows_;
  std::vector<Resource> resources_;
  std::vector<std::vector<std::size_t>> sender_queue_;
  std::vector<std::size_t> sender_head_;
};

double SerialNetMakespan(const simnet::TransmissionLog& log,
                         const Topology& topo, const LinkOutage& outage,
                         NetReplayStats* stats,
                         const TimelineProbe& probe) {
  if (stats != nullptr) {
    stats->flow_end.assign(log.size(), 0.0);
    stats->flow_start.assign(log.size(), 0.0);
  }

  // Same ticks as the parallel path. On the shared medium at most one
  // transmission is in flight, so the series read 0/1 in-flight, the
  // restart backlog, and the fraction of node links the current
  // transmission occupies.
  ProbeTicks ticks(probe, log, topo);
  std::vector<NodeId> dsts;  // reused for the utilization count

  double now = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto& t = log[i];
    double rate = topo.access_bytes_per_sec;
    if (topo.crosses_core(t)) {
      rate = std::min(rate, topo.core_bytes_per_sec);
      // A lone transmission still squeezes through the rack pipes: the
      // source rack's uplink once, the heaviest destination rack's
      // downlink at one copy per receiver there (one total when the
      // rack switch replicates). min against infinity is the identity,
      // so pipe-free topologies keep the original arithmetic.
      rate = std::min(rate, topo.rack_uplink_bytes_per_sec);
      if (topo.rack_downlink_bytes_per_sec < kInf) {
        const int src_rack = topo.rack_of(t.src);
        std::map<int, double> copies;
        for (const NodeId d : t.dsts) {
          const int r = topo.rack_of(d);
          if (r != src_rack) copies[r] += 1.0;
        }
        for (const auto& [rack, count] : copies) {
          (void)rack;
          const double w = topo.rack_aware_multicast ? 1.0 : count;
          rate = std::min(rate, topo.rack_downlink_bytes_per_sec / w);
        }
      }
    }
    CTS_CHECK_GT(rate, 0.0);
    const double dur =
        static_cast<double>(t.bytes) * topo.multicast_penalty(t) / rate;
    double start = now;
    double end = now + dur;
    // The shared medium serves one transmission at a time in log
    // order; a transmission touching the failed node that would
    // overlap the outage window loses its progress and restarts
    // (holding the medium — program order) once the node is back.
    const bool restarted = outage.active() && Touches(t, outage.node) &&
                           now < outage.end && end > outage.start;
    if (restarted) {
      start = outage.end;
      end = outage.end + dur;
    }
    if (ticks.active()) {
      // Ticks inside the restart wait see an idle medium with the
      // victim queued; ticks inside [start, end] see it transmitting.
      ticks.Before(start, {0, 1, 0});
      if (ticks.due(end)) {
        dsts.assign(t.dsts.begin(), t.dsts.end());
        std::sort(dsts.begin(), dsts.end());
        dsts.erase(std::unique(dsts.begin(), dsts.end()), dsts.end());
        const double links = 1.0 + static_cast<double>(dsts.size());
        ticks.Through(end, {1, 0,
                            std::min(1.0, links / static_cast<double>(
                                                      topo.num_nodes))});
      }
    }
    if (stats != nullptr) {
      stats->flow_end[i] = end;
      stats->flow_start[i] = start;
      stats->delivered_payload_bytes += static_cast<double>(t.bytes);
      ++stats->flows_started;
      if (restarted) ++stats->flows_requeued;
    }
    now = end;
  }
  if (ticks.active()) ticks.At(now, {});  // the drained end state
  return now;
}

// Every replay feeds the process-wide registry: flow admissions,
// outage re-queues, max-min recomputations, and a histogram of flow
// service times (replay-clock microseconds). Handles are resolved
// once — the per-replay cost is three relaxed adds plus one record per
// flow, nothing on the inner event loop.
void PublishReplayMetrics(const NetReplayStats& stats) {
  auto& registry = obs::MetricRegistry::Global();
  static obs::Counter& started = registry.counter("simscen/flows_started");
  static obs::Counter& requeued = registry.counter("simscen/flows_requeued");
  static obs::Counter& recomputations =
      registry.counter("simscen/maxmin_recomputations");
  static obs::Histogram& service =
      registry.histogram("simscen/flow_microseconds");
  started.add(stats.flows_started);
  requeued.add(stats.flows_requeued);
  recomputations.add(stats.maxmin_recomputations);
  for (std::size_t i = 0; i < stats.flow_end.size(); ++i) {
    const double start =
        i < stats.flow_start.size() ? stats.flow_start[i] : 0.0;
    service.record((stats.flow_end[i] - start) * 1e6);
  }
}

}  // namespace

double NetMakespan(const simnet::TransmissionLog& log,
                   const Topology& topology, simnet::Discipline discipline,
                   simnet::ReplayOrder order, const LinkOutage& outage,
                   NetReplayStats* stats, OrderingHook* hook,
                   const TimelineProbe& probe) {
  CTS_CHECK_GE(topology.num_nodes, 1);
  NetReplayStats local;
  if (stats == nullptr) stats = &local;
  *stats = NetReplayStats{};
  if (log.empty()) return 0;
  double makespan = 0;
  switch (discipline) {
    case simnet::Discipline::kSerial:
      // One transmission at a time in program order: no simultaneous
      // events, nothing for a hook to reorder.
      makespan = SerialNetMakespan(log, topology, outage, stats, probe);
      break;
    case simnet::Discipline::kParallelHalfDuplex:
    case simnet::Discipline::kParallelFullDuplex: {
      const bool fd = discipline == simnet::Discipline::kParallelFullDuplex;
      makespan =
          FlowSim(log, topology, fd, order, outage, hook).Run(stats, probe);
      break;
    }
  }
  PublishReplayMetrics(*stats);
  return makespan;
}

}  // namespace cts::simscen
