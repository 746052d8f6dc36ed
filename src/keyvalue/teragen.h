// Deterministic TeraGen-equivalent input generator.
//
// The paper sorts 12 GB of data "generated from TeraGen in the standard
// Hadoop package": 120 M records of 10-byte key + 90-byte value with
// uniform random keys. We do not have Hadoop, so this module generates
// an equivalent workload: record i is a pure function of (seed, i), so
// any sub-range can be generated independently (which is how the
// coordinator materializes per-file inputs without building the whole
// dataset), and the same seed always produces the same data.
//
// Additional distributions exercise the partitioners and the sort under
// skew (used by tests and ablation benches, not by the paper's tables).
//
// Record i comes from 64-bit hash lanes h(seed, i, lane) =
// Mix64(seed ^ Mix64(i * golden + lane)): lane 0 is the key prefix's
// hash (uniform, skewed and few-distinct keys; the other distributions
// derive the prefix from i alone), lane 1 the 2-byte key suffix, and
// lanes 3..13 the value's printable filler (value words 1..10 and the
// 2-byte tail word; word 0 is the row id).
//
// Two kernels compute those lanes. The scalar one hashes one lane at a
// time, runs everywhere and is the tests' reference. The wide one
// hashes eight lanes per AVX-512 vector (two vectors per record, eight
// keys per vector in keys_into) and writes identical bytes. Which one
// runs is decided once per process from the CPU: wide on x86-64 hosts
// with AVX-512 F, DQ, BW and VL, scalar everywhere else. Nothing else
// selects it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "keyvalue/record.h"

namespace cts {

enum class KeyDistribution {
  kUniform,        // TeraGen-like uniform random keys (paper workload)
  kSorted,         // already-sorted keys (best case for shuffle skew)
  kReverseSorted,  // descending keys
  kSkewed,         // heavy concentration in the low key range (u^4)
  kFewDistinct,    // only 256 distinct keys — stresses ties
  kBalanced,       // low-discrepancy Weyl sequence: every contiguous
                   // index range spreads near-perfectly evenly over the
                   // key domain (used by exact load-identity tests,
                   // where multinomial sampling noise must not pollute
                   // padding/traffic accounting)
};

// Stateless, seekable record generator.
class TeraGen {
 public:
  explicit TeraGen(std::uint64_t seed,
                   KeyDistribution dist = KeyDistribution::kUniform)
      : seed_(seed), dist_(dist) {}

  // The i-th record of the stream. Pure function of (seed, dist, i).
  Record record(std::uint64_t index) const;

  // Writes record(index)'s 100 bytes at `out` (any alignment), so a
  // Map generates each record straight into its packed slot. The one
  // generator: record() is a wrapper around it.
  void record_into(std::uint64_t index, std::uint8_t* out) const;

  // record(index).key without generating the 90-byte value, for
  // callers that only partition or sample keys.
  Key key(std::uint64_t index) const;

  // key(first + i) into keys[i] for every i; indices wrap past
  // 2^64 - 1. The wide kernel hashes eight consecutive keys per vector,
  // so a Map's key pass reads its keys through this in chunks.
  void keys_into(std::uint64_t first, std::span<Key> keys) const;

  // Records [start, start+count).
  std::vector<Record> generate(std::uint64_t start,
                               std::uint64_t count) const;

  std::uint64_t seed() const { return seed_; }
  KeyDistribution distribution() const { return dist_; }

 private:
  std::uint64_t seed_;
  KeyDistribution dist_;
};

}  // namespace cts
