// Generic Coded MapReduce engine (paper Section II, and the "Beyond
// Sorting Algorithms" future direction of Section VI).
//
// The engine distributes an arbitrary MapReduce application over K
// nodes with computation load r:
//
//   * files are the N = C(K, r) structured-redundant units of
//     Placement (r = 1 gives the classic one-file-per-node layout);
//   * Map turns a file into K serialized intermediate values, one per
//     reducer (reducer q is hosted on node q, Q = K as in TeraSort);
//   * Shuffle is either UNCODED — the lowest-id holder of each file
//     unicasts every needed intermediate value — or CODED — the same
//     Algorithm 1/2 XOR multicast used by CodedTeraSort;
//   * Reduce folds the N intermediate values of reducer q (in FileId
//     order) into the final output.
//
// The two shuffles move exactly the loads of paper eq. (2):
// L_uncoded = 1 - r/K and L_coded = (1/r)(1 - r/K) (`bench_paper fig2`
// verifies this equality on measured traffic).
//
// Shuffle sequencing (ShuffleSync in CmrConfig): kBarrier runs the
// paper's synchronous stage-after-stage protocol. kOverlapped is the
// asynchronous-execution extension (paper Section VI): the uncoded
// engine pipelines Map with Shuffle — a node starts transmitting a
// file's intermediate values (nonblocking isend) as soon as that file
// is mapped, with receives posted before mapping begins — and the
// coded engine posts all multicast packets of the round before
// draining receives. Overlap never changes the bytes on the wire
// (loads are byte-identical; tests/property_test.cc asserts this);
// it only changes the initiation ORDER, which the transmission-log
// replay (simscen::NetMakespan) prices under parallel links.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "driver/run_result.h"
#include "simmpi/eventlog.h"
#include "simmpi/traffic.h"

namespace cts::cmr {

// A MapReduce application. Implementations must be deterministic: the
// engine calls make_file on every node holding the file and relies on
// identical bytes.
class CmrApp {
 public:
  virtual ~CmrApp() = default;

  virtual std::string name() const = 0;

  // The raw records of file `file` (workload generation; the paper's
  // input files pre-placed on workers).
  virtual std::vector<std::string> make_file(FileId file,
                                             std::uint64_t seed) const = 0;

  // Maps a file's records to one serialized intermediate value per
  // reducer. Returned vector has exactly num_reducers entries.
  virtual std::vector<std::vector<std::uint8_t>> map(
      const std::vector<std::string>& records, int num_reducers) const = 0;

  // Folds the per-file intermediate values of one reducer (in FileId
  // order, one entry per file) into the reducer's output.
  virtual std::string reduce(
      int reducer,
      const std::vector<std::vector<std::uint8_t>>& values) const = 0;
};

enum class ShuffleMode { kUncoded, kCoded };

struct CmrConfig {
  int num_nodes = 4;   // K (== number of reducers Q)
  int redundancy = 1;  // r
  std::uint64_t seed = 7;
  ShuffleMode mode = ShuffleMode::kUncoded;
  // Barrier-synchronous stages (the paper) or the pipelined
  // map/shuffle overlap on nonblocking sends (Section VI extension).
  ShuffleSync sync = ShuffleSync::kBarrier;
  // Live straggler injection (tests / demos; see driver/run_result.h).
  std::vector<InjectedDelay> injected_delays;
};

struct CmrResult {
  CmrConfig config;
  // outputs[q] = reducer q's result.
  std::vector<std::string> outputs;
  // Per-stage transport counters ("Map"/"Shuffle"/"Reduce").
  std::map<std::string, simmpi::ChannelCounters> traffic;
  // Sum over (file, reducer) of intermediate-value bytes — the Q*N
  // normalizer of the communication load.
  std::uint64_t total_iv_bytes = 0;
  // Pure intermediate-value payload shuffled (no packet headers):
  // uncoded = IV bytes unicast, coded = XOR-packet payload bytes.
  std::uint64_t shuffled_payload_bytes = 0;
  // Ordered shuffle transmissions (true initiation order), for
  // discrete-event replay by simscen::NetMakespan.
  simnet::TransmissionLog shuffle_log;

  // Transport events for happens-before analysis (empty unless capture
  // was requested; see AlgorithmResult::transport_events).
  simmpi::TransportLog transport_events;

  // Stage names in execution order and per-node stage boundaries at
  // executed scale; the scenario engine replays these (CMR has no
  // NodeWork counters, so its compute phases are priced from the
  // measured boundaries).
  std::vector<std::string> stage_order;
  ComputeLog compute_events;

  // Measured communication load on payloads (the paper's L): shuffled
  // payload bytes / total IV bytes, without packet framing. Matches
  // eq. (2) exactly up to zero-padding of ragged segments.
  double measured_payload_load() const;
};

// Runs the app distributedly on a fresh simulated cluster.
CmrResult RunCmr(const CmrApp& app, const CmrConfig& config);

// ---- Bundled applications ----

// Grep: emits every record containing `pattern`, routed to a reducer
// by record hash; reducers return matches joined by '\n'.
std::unique_ptr<CmrApp> MakeGrepApp(std::string pattern,
                                    int records_per_file = 200);

// WordCount: words routed by hash; reducers return "word count" lines
// sorted by word.
std::unique_ptr<CmrApp> MakeWordCountApp(int records_per_file = 200);

// SelfJoin (named in the paper's Sections I and VI): records are
// "key value" pairs; the join emits every ordered pair of distinct
// values sharing a key, routed by key hash. Reducers return
// "key valueA valueB" lines.
std::unique_ptr<CmrApp> MakeSelfJoinApp(int records_per_file = 100,
                                        int key_space = 64);

// Inverted index (the RankedInvertedIndex workload family of [6]):
// each record is a document line; reducers return "word: doc doc ..."
// postings sorted by word, documents ascending.
std::unique_ptr<CmrApp> MakeInvertedIndexApp(int records_per_file = 100);

}  // namespace cts::cmr
