#include "job/parse.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "mitigate/policy.h"

namespace cts::job {

namespace {

void SetError(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
}

// Splits "a:b:c" into fields.
std::vector<std::string> SplitColons(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t colon = s.find(':', pos);
    if (colon == std::string::npos) {
      out.push_back(s.substr(pos));
      return out;
    }
    out.push_back(s.substr(pos, colon - pos));
    pos = colon + 1;
  }
}

// Rejects non-finite input: "nan"/"inf" would sail through one-sided
// range checks (NaN compares false to everything) and poison the
// replay with non-finite factors — and casting NaN to int is UB.
bool ParseNumber(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return !s.empty() && end != nullptr && *end == '\0' &&
         std::isfinite(*out);
}

// The field must be a whole non-negative number (node ids, rack
// sizes): 1.9 must not silently become 1. Range-checked BEFORE the
// cast — double-to-int conversion outside int's range is undefined.
bool ParseWhole(const std::string& s, int* out) {
  double v = 0;
  if (!ParseNumber(s, &v)) return false;
  if (v < 0 || v > 2147483647.0) return false;
  *out = static_cast<int>(v);
  return static_cast<double>(*out) == v;
}

// Full-range uint64 fields (straggler seeds).
bool ParseU64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

}  // namespace

std::optional<simnet::Discipline> ParseDiscipline(const std::string& spec,
                                                  std::string* error) {
  if (spec.empty() || spec == "serial") return simnet::Discipline::kSerial;
  if (spec == "half") return simnet::Discipline::kParallelHalfDuplex;
  if (spec == "full") return simnet::Discipline::kParallelFullDuplex;
  SetError(error, "unknown discipline '" + spec + "' (serial | half | full)");
  return std::nullopt;
}

std::optional<simnet::ReplayOrder> ParseOrder(const std::string& spec,
                                              std::string* error) {
  if (spec.empty() || spec == "log") return simnet::ReplayOrder::kLogOrder;
  if (spec == "per-sender") return simnet::ReplayOrder::kPerSender;
  SetError(error, "unknown order '" + spec + "' (log | per-sender)");
  return std::nullopt;
}

std::optional<simscen::Topology> ParseTopology(const std::string& spec,
                                               int num_nodes,
                                               std::string* error) {
  if (spec.empty()) return simscen::Topology::SingleRack(num_nodes);
  auto fields = SplitColons(spec);
  // Optional trailing "aware": the rack switches replicate multicasts
  // locally (Topology::rack_aware_multicast).
  bool aware = false;
  if (!fields.empty() && fields.back() == "aware") {
    aware = true;
    fields.pop_back();
  }
  int per_rack = 0;
  double factor = 0;
  double up_factor = 0;
  double down_factor = 0;
  const bool ok =
      (fields.size() == 2 || fields.size() == 4) &&
      ParseWhole(fields[0], &per_rack) && ParseNumber(fields[1], &factor) &&
      (fields.size() == 2 || (ParseNumber(fields[2], &up_factor) &&
                              ParseNumber(fields[3], &down_factor)));
  if (!ok) {
    SetError(error,
             "topology expects R:F[:U:D][:aware] (nodes-per-rack : core "
             "oversubscription [: rack uplink : downlink oversubscription, "
             "0 = unconstrained])");
    return std::nullopt;
  }
  if (per_rack < 1) {
    SetError(error, "topology needs >= 1 node per rack");
    return std::nullopt;
  }
  if (factor <= 0) {
    SetError(error, "topology oversubscription must be > 0");
    return std::nullopt;
  }
  if (up_factor < 0 || down_factor < 0) {
    SetError(error,
             "topology rack-pipe factors must be >= 0 (0 = unconstrained)");
    return std::nullopt;
  }
  simscen::Topology t = simscen::Topology::RackOversubscribed(
      num_nodes, per_rack, factor, up_factor, down_factor);
  t.rack_aware_multicast = aware;
  return t;
}

std::optional<simscen::StragglerModel> ParseStraggler(const std::string& spec,
                                                      int num_nodes,
                                                      std::string* error) {
  simscen::StragglerModel m;
  if (spec.empty() || spec == "none") return m;
  const auto fields = SplitColons(spec);
  const std::string& kind = fields[0];
  int node = 0;
  if (kind == "slow" && fields.size() == 3) {
    m.kind = simscen::StragglerKind::kSlowNode;
    if (!ParseWhole(fields[1], &node) ||
        !ParseNumber(fields[2], &m.slowdown)) {
      SetError(error, "straggler slow expects slow:NODE:FACTOR");
      return std::nullopt;
    }
    m.node = node;
    if (m.slowdown < 1.0) {
      SetError(error, "straggler slowdown must be >= 1");
      return std::nullopt;
    }
  } else if (kind == "exp" && (fields.size() == 3 || fields.size() == 4)) {
    m.kind = simscen::StragglerKind::kShiftedExp;
    if (!ParseNumber(fields[1], &m.shift) ||
        !ParseNumber(fields[2], &m.mean) ||
        (fields.size() == 4 && !ParseU64(fields[3], &m.seed))) {
      SetError(error, "straggler exp expects exp:SHIFT:MEAN[:SEED]");
      return std::nullopt;
    }
    if (m.shift < 0 || m.mean < 0) {
      SetError(error, "straggler exp shift/mean must be >= 0");
      return std::nullopt;
    }
  } else if (kind == "failstop" &&
             (fields.size() == 3 || fields.size() == 4)) {
    m.kind = simscen::StragglerKind::kFailStop;
    if (!ParseNumber(fields[1], &m.fail_at) ||
        !ParseNumber(fields[2], &m.recovery) ||
        (fields.size() == 4 && !ParseWhole(fields[3], &node))) {
      SetError(error, "straggler failstop expects failstop:T:REC[:NODE]");
      return std::nullopt;
    }
    if (fields.size() == 4) m.node = node;
    if (m.fail_at < 0 || m.recovery < 0) {
      SetError(error, "straggler failstop times must be >= 0");
      return std::nullopt;
    }
  } else {
    SetError(error, "unknown straggler '" + spec +
                        "' (slow:NODE:FACTOR | exp:SHIFT:MEAN[:SEED] | "
                        "failstop:T:REC[:NODE] | none)");
    return std::nullopt;
  }
  if ((m.kind == simscen::StragglerKind::kSlowNode ||
       m.kind == simscen::StragglerKind::kFailStop) &&
      (m.node < 0 || m.node >= num_nodes)) {
    SetError(error, "straggler node " + std::to_string(m.node) +
                        " out of range for " + std::to_string(num_nodes) +
                        " nodes");
    return std::nullopt;
  }
  return m;
}

std::optional<InjectedDelay> ParseInjectDelay(const std::string& spec,
                                              int num_nodes,
                                              std::string* error) {
  const auto fields = SplitColons(spec);
  InjectedDelay d;
  int node = 0;
  if (fields.size() != 3 || !ParseWhole(fields[1], &node) ||
      !ParseNumber(fields[2], &d.seconds)) {
    SetError(error, "inject-delay expects STAGE:NODE:SECONDS");
    return std::nullopt;
  }
  d.stage = fields[0];
  d.node = node;
  // StageRunner matches the stage by exact name; a typo would silently
  // inject nothing and invalidate the experiment.
  const std::vector<std::string> known = {
      stage::kCodeGen, stage::kMap,    stage::kPack,   stage::kEncode,
      stage::kShuffle, stage::kUnpack, stage::kDecode, stage::kReduce};
  if (std::find(known.begin(), known.end(), d.stage) == known.end()) {
    std::string names;
    for (const auto& n : known) names += (names.empty() ? "" : "|") + n;
    SetError(error,
             "inject-delay stage '" + d.stage + "' is not one of " + names);
    return std::nullopt;
  }
  if (d.seconds < 0) {
    SetError(error, "inject-delay SECONDS must be >= 0");
    return std::nullopt;
  }
  if (d.node < 0 || d.node >= num_nodes) {
    SetError(error, "inject-delay node " + std::to_string(d.node) +
                        " out of range for " + std::to_string(num_nodes) +
                        " nodes");
    return std::nullopt;
  }
  return d;
}

std::optional<simscen::Scenario> ParseScenario(const ScenarioSpec& spec,
                                               int num_nodes,
                                               std::string* error) {
  if (num_nodes < 1) {
    SetError(error, "a scenario needs K >= 1 nodes");
    return std::nullopt;
  }
  simscen::Scenario s = simscen::Scenario::Baseline(num_nodes);
  const auto straggler = ParseStraggler(spec.straggler, num_nodes, error);
  if (!straggler.has_value()) return std::nullopt;
  s.cluster.straggler = *straggler;
  const auto topology = ParseTopology(spec.topology, num_nodes, error);
  if (!topology.has_value()) return std::nullopt;
  s.topology = *topology;
  const auto discipline = ParseDiscipline(spec.discipline, error);
  if (!discipline.has_value()) return std::nullopt;
  s.discipline = *discipline;
  const auto order = ParseOrder(spec.order, error);
  if (!order.has_value()) return std::nullopt;
  s.order = *order;
  const auto mitigation = mitigate::ParsePolicy(spec.mitigate);
  if (!mitigation.has_value()) {
    SetError(error, "unknown mitigation '" + spec.mitigate +
                        "' (none | spec[:QUANTILE:TRIGGER] | coded)");
    return std::nullopt;
  }
  s.mitigation = *mitigation;
  return s;
}

}  // namespace cts::job
