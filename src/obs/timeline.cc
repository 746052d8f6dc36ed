// Live-path timeline construction: logical ticks over the
// deterministic byproducts of a finished run. See timeline.h for the
// series contract.

#include "obs/timeline.h"

#include "driver/run_result.h"

namespace cts::obs {

Timeline BuildLiveTimeline(const AlgorithmResult& result) {
  Timeline tl;

  // Stage-barrier ticks: tick s is the end of the s-th stage in
  // execution order; the series carry the cumulative transport bytes
  // and message count once that stage's traffic is on the wire.
  // Virtual time is the tick index itself — the live path has no
  // deterministic clock, the barrier sequence *is* its time axis.
  // Every series is resolved once and appended to directly.
  double cum_bytes = 0;
  double cum_msgs = 0;
  auto& stage_bytes = tl.Series("live/stage_bytes/bytes");
  auto& stage_msgs = tl.Series("live/stage_msgs");
  stage_bytes.push_back({0, 0});
  stage_msgs.push_back({0, 0});
  for (std::size_t s = 0; s < result.stage_order.size(); ++s) {
    const auto it = result.traffic.find(result.stage_order[s]);
    if (it != result.traffic.end()) {
      cum_bytes += static_cast<double>(it->second.transmitted_bytes());
      cum_msgs += static_cast<double>(it->second.unicast_msgs +
                                      it->second.mcast_msgs);
    }
    stage_bytes.push_back({static_cast<double>(s + 1), cum_bytes});
    stage_msgs.push_back({static_cast<double>(s + 1), cum_msgs});
  }

  // Shuffle-round ticks: the transmission log in order, one round per
  // K transmissions (every sender fires once per round under both sync
  // modes). Cumulative bytes in flight plus the per-round burst.
  const simnet::TransmissionLog& log = result.shuffle_log;
  if (!log.empty() && result.config.num_nodes > 0) {
    const std::size_t per_round =
        static_cast<std::size_t>(result.config.num_nodes);
    auto& shuffle_bytes = tl.Series("live/shuffle_bytes/bytes");
    auto& shuffle_round_bytes = tl.Series("live/shuffle_round_bytes/bytes");
    double cum = 0;
    double round_bytes = 0;
    std::size_t round = 0;
    shuffle_bytes.push_back({0, 0});
    for (std::size_t i = 0; i < log.size(); ++i) {
      cum += static_cast<double>(log[i].bytes);
      round_bytes += static_cast<double>(log[i].bytes);
      const bool round_end =
          (i + 1) % per_round == 0 || i + 1 == log.size();
      if (round_end) {
        ++round;
        shuffle_bytes.push_back({static_cast<double>(round), cum});
        shuffle_round_bytes.push_back(
            {static_cast<double>(round), round_bytes});
        round_bytes = 0;
      }
    }
  }

  // End-of-run tick: values frozen into the cached result by
  // RunCache::Execute (run_metrics deltas). Arena hit counts depend on
  // thread interleaving, so they would *not* be reproducible if read
  // live; the timeline only ever sees the captured copy.
  const auto metric = [&](const char* name) -> double {
    auto it = result.run_metrics.find(name);
    return it == result.run_metrics.end() ? 0 : it->second;
  };
  const double hits = metric("simmpi/arena_hits");
  const double misses = metric("simmpi/arena_misses");
  const double end_tick =
      static_cast<double>(result.stage_order.size());
  if (hits + misses > 0) {
    tl.Sample("live/arena_hit_rate", end_tick, hits / (hits + misses));
  }

  return tl;
}

}  // namespace cts::obs
