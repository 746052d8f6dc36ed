// Priced-only run synthesis: the counters of a live run, without the
// run.
//
// The thread-per-node harness tops out around K ~ 100 (one OS thread
// per node, every record materialized). But Backend::kPriced never
// reads the sorted output — analytics::SimulateRun consumes only the
// per-node NodeWork counters, the Shuffle/CodeGen ChannelCounters and
// the per-node shuffle traffic. All of those are exact arithmetic
// consequences of (algorithm, SortConfig): the placement is a pure
// function of (K, r), the input is a pure function of (seed, i), and
// the codec's segment accounting is deterministic. This module
// computes them directly, so pricing scales to K ~ 1000 where
// C(K, r) files and C(K, r+1) groups exist only as binomials.
//
// Exactness contract: for any config both backends can run, the
// synthesized AlgorithmResult prices byte-identically to the measured
// one (asserted against the live kPriced backend in
// tests/simulate_test.cc). The coded path gets there without
// enumerating the C(K, r) files: all files an execution would leave
// empty contribute closed-form per-node baselines (every empty
// intermediate value still packs to PackedSize(0) bytes and still
// crosses the wire), and the at-most-num_records (file, partition)
// cells that actually hold records are streamed once and applied as
// per-group corrections on top.
//
// The sparse state is flat. Records arrive in file order, so only the
// open file's per-partition counts are live; closing a file turns each
// nonzero cell (S, t) into one contribution (rank of group S + {t},
// its members in one flat array, t's slot, the count). Sorting the
// contributions by group rank lines up every dirty group's nonzero
// values in one run, so no cell is ever looked up. All ranks, unranks
// and baseline counts read one BinomialTable built per synthesis.
//
// Scale limits are arithmetic, not structural: any C(K, r) or
// C(K, r+1) (or derived counter) that exceeds 64 bits, or a coded
// (K, r) whose binomial table would pass 2^24 entries, is reported as
// a structured error via SynthesisResult::error — never a process
// abort.
#pragma once

#include <memory>
#include <string>

#include "driver/run_result.h"

namespace cts::simulate {

// A synthesized run, or the reason one could not be produced.
struct SynthesisResult {
  // Null iff error is non-empty. On success: NodeWork, Shuffle and
  // CodeGen traffic, shuffle_node_traffic and stage_order are filled
  // exactly as a live run would; partitions, wall clocks, compute
  // events and the transmission log are empty (nothing executed).
  std::shared_ptr<AlgorithmResult> run;
  std::string error;

  bool ok() const { return error.empty(); }
};

// Synthesizes the run for a registry algorithm name ("terasort" or
// "coded"). Structured errors (no abort): unknown/unpriceable
// algorithm (e.g. "cmr"), PartitionerKind::kDistributedSampled (its
// splitters depend on the live collective), redundancy out of range,
// 64-bit binomial/counter overflow or an oversized binomial table at
// extreme (K, r).
SynthesisResult SynthesizeRun(const std::string& algorithm,
                              const SortConfig& config);

}  // namespace cts::simulate
