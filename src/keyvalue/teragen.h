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
#pragma once

#include <cstdint>
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

  // record(index).key without generating the 90-byte value, for
  // callers that only partition or sample keys.
  Key key(std::uint64_t index) const;

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
