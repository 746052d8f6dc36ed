#include "mitigate/policy.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string_view>

#include "common/check.h"
#include "common/numparse.h"

namespace cts::mitigate {

namespace {

double BusySeconds(const StageView& view, NodeId node, double t) {
  if (view.busy_seconds) return view.busy_seconds(node, t);
  return std::max(0.0, t - view.start);
}

StageMitigation Unmitigated(const StageView& view) {
  StageMitigation m;
  m.node_end = view.node_end;
  m.unmitigated_end = view.start;
  for (const double e : view.node_end) {
    m.unmitigated_end = std::max(m.unmitigated_end, e);
  }
  m.end = m.unmitigated_end;
  return m;
}

// K-of-N coded completion: the barrier releases at the
// (K - tolerance)-th completion; nodes still running are abandoned
// (they stop and rejoin at the barrier), their partial compute charged
// as waste.
StageMitigation ApplyCodedMap(const StageView& view) {
  StageMitigation m = Unmitigated(view);
  const int K = static_cast<int>(view.node_end.size());
  const int tol = std::min(view.coded_tolerance, K - 1);
  if (tol <= 0) return m;

  std::vector<double> sorted = view.node_end;
  std::sort(sorted.begin(), sorted.end());
  const double release = sorted[static_cast<std::size_t>(K - 1 - tol)];

  m.end = std::max(view.start, release);
  m.wasted_seconds = 0;
  for (std::size_t n = 0; n < m.node_end.size(); ++n) {
    if (m.node_end[n] > m.end) {
      ++m.abandoned_nodes;
      m.wasted_seconds +=
          BusySeconds(view, static_cast<NodeId>(n), m.end);
      m.node_end[n] = m.end;
    }
  }
  return m;
}

// Speculative re-execution. Trigger time is observable at run time:
// once ceil(quantile * K) nodes have finished (at t_q), nodes still
// running at start + trigger * (t_q - start) each get a backup on a
// distinct finished node (fastest finishers first). Whichever copy
// finishes first wins; the loser's compute is waste.
StageMitigation ApplySpeculative(const MitigationPolicy& policy,
                                 const StageView& view) {
  StageMitigation m = Unmitigated(view);
  const std::size_t K = view.node_end.size();
  if (K < 2 || !view.backup_end) return m;
  CTS_CHECK_GT(policy.quantile, 0.0);
  CTS_CHECK_LE(policy.quantile, 1.0);
  CTS_CHECK_GE(policy.trigger, 1.0);

  std::vector<double> sorted = view.node_end;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t q_rank = std::min(
      K - 1, static_cast<std::size_t>(
                 std::ceil(policy.quantile * static_cast<double>(K))) -
                 1);
  const double t_q = sorted[q_rank];
  const double trigger_time =
      view.start + policy.trigger * (t_q - view.start);

  // Helpers: nodes finished by the trigger, fastest first, one backup
  // each. Victims: nodes still running, slowest first (the worst
  // straggler gets the fastest helper).
  std::vector<NodeId> helpers;
  std::vector<NodeId> victims;
  for (std::size_t n = 0; n < K; ++n) {
    (view.node_end[n] <= trigger_time ? helpers : victims)
        .push_back(static_cast<NodeId>(n));
  }
  if (victims.empty() || helpers.empty()) return m;
  m.trigger_at = trigger_time;
  std::sort(helpers.begin(), helpers.end(), [&](NodeId a, NodeId b) {
    return view.node_end[static_cast<std::size_t>(a)] <
           view.node_end[static_cast<std::size_t>(b)];
  });
  std::sort(victims.begin(), victims.end(), [&](NodeId a, NodeId b) {
    return view.node_end[static_cast<std::size_t>(a)] >
           view.node_end[static_cast<std::size_t>(b)];
  });

  double stage_end = view.start;
  const std::size_t pairs = std::min(victims.size(), helpers.size());
  for (std::size_t i = 0; i < pairs; ++i) {
    const NodeId v = victims[i];
    const NodeId h = helpers[i];
    const std::size_t vi = static_cast<std::size_t>(v);
    const std::size_t hi = static_cast<std::size_t>(h);
    const double launch = std::max(trigger_time, view.node_end[hi]);
    const double backup = view.backup_end(v, h, launch);
    CTS_CHECK_GE(backup, launch);
    const double winner = std::min(view.node_end[vi], backup);
    ++m.speculative_copies;
    if (backup < view.node_end[vi]) {
      // Backup wins: the victim aborts at `winner`; everything it
      // burnt is waste.
      m.wasted_seconds += BusySeconds(view, v, winner);
    } else {
      // Original wins: the backup's compute (helper is healthy, so
      // wall time is busy time) is waste.
      m.wasted_seconds += std::max(0.0, winner - launch);
    }
    m.node_end[vi] = winner;
    // The helper stays busy with the backup until a copy wins.
    m.node_end[hi] = std::max(view.node_end[hi], winner);
  }
  for (const double e : m.node_end) stage_end = std::max(stage_end, e);
  m.end = stage_end;
  return m;
}

}  // namespace

MitigationPolicy MitigationPolicy::Speculative(double quantile,
                                               double trigger) {
  MitigationPolicy p;
  p.kind = PolicyKind::kSpeculative;
  p.quantile = quantile;
  p.trigger = trigger;
  return p;
}

MitigationPolicy MitigationPolicy::CodedMap() {
  MitigationPolicy p;
  p.kind = PolicyKind::kCodedMap;
  return p;
}

const char* PolicyName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kNone:
      return "none";
    case PolicyKind::kSpeculative:
      return "spec";
    case PolicyKind::kCodedMap:
      return "coded";
  }
  CTS_CHECK_MSG(false, "unreachable policy kind");
  return "none";
}

std::optional<MitigationPolicy> ParsePolicy(const std::string& spec) {
  if (spec.empty() || spec == "none") return MitigationPolicy::None();
  if (spec == "coded") return MitigationPolicy::CodedMap();
  if (spec == "spec") return MitigationPolicy::Speculative();
  if (spec.rfind("spec:", 0) == 0) {
    const std::string_view rest = std::string_view(spec).substr(5);
    const std::size_t colon = rest.find(':');
    if (colon == std::string_view::npos) return std::nullopt;
    const std::optional<double> quantile = ParseDouble(rest.substr(0, colon));
    const std::optional<double> trigger = ParseDouble(rest.substr(colon + 1));
    if (!quantile || !trigger || *quantile <= 0 || *quantile > 1 ||
        *trigger < 1) {
      return std::nullopt;
    }
    return MitigationPolicy::Speculative(*quantile, *trigger);
  }
  return std::nullopt;
}

StageMitigation ApplyPolicy(const MitigationPolicy& policy,
                            const StageView& view) {
  CTS_CHECK_GE(view.node_end.size(), std::size_t{1});
  switch (policy.kind) {
    case PolicyKind::kNone:
      return Unmitigated(view);
    case PolicyKind::kCodedMap:
      return ApplyCodedMap(view);
    case PolicyKind::kSpeculative:
      return ApplySpeculative(policy, view);
  }
  CTS_CHECK_MSG(false, "unreachable policy kind");
  return Unmitigated(view);
}

}  // namespace cts::mitigate
