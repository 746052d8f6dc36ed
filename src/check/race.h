// Happens-before matching-race detection over a transport event log.
//
// Input: the merged, stamp-ordered send/post/match stream a
// TransportRecorder captured (simmpi/eventlog.h) — or a hand-built
// synthetic log (tests, the injected-race regression). The analysis
// rebuilds vector clocks from two edge sources:
//
//   * program order: events by the same performer, in stamp order
//     (each node program is one thread);
//   * message edges: the kSend that delivered arrival index i on a key
//     happens-before the kMatch that redeemed ticket i on that key
//     (posting-order matching pairs them exactly).
//
// Collectives need no special casing: barriers, bcasts and splits all
// flow through mailbox deliveries on reserved negative tags, so their
// synchronization arrives as ordinary message edges.
//
// A *matching race* is a pair of operations on one match key whose
// order the happens-before relation does not fix, i.e. the recorded
// schedule is not the unique linearization:
//
//   * kSendSend — two concurrent sends on the same (dst, comm, src,
//     tag) key (or, with a wildcard post, on the same (dst, comm, tag)
//     from different sources): MPI matching may bind either to the
//     earlier posted receive.
//   * kRecvRecv — two concurrent receive postings on one key: the
//     tickets could have been drawn in either order.
//
// Because live Mailbox keys always name their source and each key's
// sends/posts come from a single performer thread, a real run should
// certify — AnalyzeTransport then reports the determinism certificate
// (0 races: the recorded schedule is the unique linearization modulo
// commuting independent operations). The wildcard path
// (src == simmpi::kAnySource) exists so the detector is testably
// non-vacuous.
//
// On a race the report carries the minimal racy pair (earliest by
// stamp) plus two witness schedules: complete linearizations of the
// happens-before partial order that realize the pair in both orders.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "simmpi/eventlog.h"

namespace cts::check {

struct MatchingRace {
  enum class Kind { kSendSend, kRecvRecv };
  Kind kind = Kind::kSendSend;
  simmpi::TransportEvent a;  // earlier by stamp
  simmpi::TransportEvent b;
  std::string description;
  // Linearizations (event stamps in schedule order) consistent with
  // happens-before: `witness_recorded` realizes a before b (the
  // recorded outcome), `witness_flipped` realizes b before a. Filled
  // for the first race found (the minimal pair).
  std::vector<std::uint64_t> witness_recorded;
  std::vector<std::uint64_t> witness_flipped;
};

struct RaceReport {
  std::size_t events = 0;
  std::size_t sends = 0;
  std::size_t posts = 0;
  std::size_t matches = 0;
  std::size_t keys = 0;        // distinct match keys observed
  std::size_t hb_edges = 0;    // message edges (send -> match)
  std::vector<MatchingRace> races;

  // True when the analysis ran over a non-empty log and found the
  // recorded schedule to be the unique linearization.
  bool certified() const { return events > 0 && races.empty(); }
};

// Analyzes a transport log. `num_nodes` bounds the vector-clock width;
// performers and endpoints must be < num_nodes (kAnySource excepted).
RaceReport AnalyzeTransport(const simmpi::TransportLog& log, int num_nodes);

// Renders a one-line human summary ("determinism certificate: ..." or
// the minimal racy pair).
std::string Summarize(const RaceReport& report);

}  // namespace cts::check
