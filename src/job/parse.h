// Shared textual-spec parsing for scenario-shaped flags.
//
// ctsort and the bench harnesses all describe evaluation conditions in
// the same mini-language (--topology=R:F, --straggler=slow:0:4,
// --mitigate=spec:0.5:1.5, --discipline=full, --order=per-sender);
// this is the one parser, so a spec string means the same experiment
// everywhere. Each parser returns nullopt on malformed input and
// describes the problem in *error; callers decide whether that is
// fatal (ctsort) or a test failure (benches, tests).
#pragma once

#include <optional>
#include <string>

#include "driver/run_result.h"
#include "simnet/transmission_log.h"
#include "simscen/engine.h"

namespace cts::job {

// "serial" | "half" | "full".
std::optional<simnet::Discipline> ParseDiscipline(const std::string& spec,
                                                  std::string* error);

// "log" | "per-sender".
std::optional<simnet::ReplayOrder> ParseOrder(const std::string& spec,
                                              std::string* error);

// "R:F[:U:D][:aware]" — nodes-per-rack : core oversubscription
// factor, optionally followed by per-rack uplink/downlink
// oversubscription factors (0 = that pipe stays unconstrained) and a
// literal "aware" enabling rack-aware multicast
// (Topology::rack_aware_multicast). Empty spec is a single rack.
std::optional<simscen::Topology> ParseTopology(const std::string& spec,
                                               int num_nodes,
                                               std::string* error);

// "none" | "slow:NODE:FACTOR" | "exp:SHIFT:MEAN[:SEED]" |
// "failstop:T:REC[:NODE]"; empty spec means none. Node ranges are
// validated against num_nodes.
std::optional<simscen::StragglerModel> ParseStraggler(const std::string& spec,
                                                      int num_nodes,
                                                      std::string* error);

// "STAGE:NODE:SECONDS" with STAGE one of the canonical stage names
// (a typo'd stage would silently inject nothing).
std::optional<InjectedDelay> ParseInjectDelay(const std::string& spec,
                                              int num_nodes,
                                              std::string* error);

// The scenario-shaped flags as raw strings; empty fields take the
// documented defaults.
struct ScenarioSpec {
  std::string topology;    // --topology
  std::string straggler;   // --straggler
  std::string mitigate;    // --mitigate
  std::string discipline;  // --discipline
  std::string order;       // --order
};

// Assembles a full Scenario from the flag strings (the shared
// implementation behind ctsort --scenario and the bench sweeps).
std::optional<simscen::Scenario> ParseScenario(const ScenarioSpec& spec,
                                               int num_nodes,
                                               std::string* error);

}  // namespace cts::job
