#include "keyvalue/teragen.h"

#include <cmath>

namespace cts {

namespace {

// Per-record 64-bit stream: h(seed, index, lane). Independent lanes let
// key and value bytes come from decorrelated streams.
std::uint64_t RecordHash(std::uint64_t seed, std::uint64_t index,
                         std::uint64_t lane) {
  return Mix64(seed ^ Mix64(index * 0x9e3779b97f4a7c15ULL + lane));
}

}  // namespace

Key TeraGen::key(std::uint64_t index) const {
  std::uint64_t prefix = 0;
  switch (dist_) {
    case KeyDistribution::kUniform:
      prefix = RecordHash(seed_, index, /*lane=*/0);
      break;
    case KeyDistribution::kSorted:
      prefix = index;
      break;
    case KeyDistribution::kReverseSorted:
      prefix = ~index;
      break;
    case KeyDistribution::kSkewed: {
      // u^4 pushes mass toward the low end of the key domain; the
      // highest-keyed partition ends up nearly empty.
      const std::uint64_t h = RecordHash(seed_, index, /*lane=*/0);
      const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
      const double skewed = u * u * u * u;
      prefix = static_cast<std::uint64_t>(
          skewed * 18446744073709549568.0);  // ~2^64, rounds below max
      break;
    }
    case KeyDistribution::kFewDistinct:
      prefix = (RecordHash(seed_, index, /*lane=*/0) & 0xffu) << 56;
      break;
    case KeyDistribution::kBalanced:
      // Weyl sequence with the golden-ratio multiplier (odd, hence a
      // bijection on 2^64): consecutive indices land maximally far
      // apart, so any contiguous range of n indices puts n/K ± O(1)
      // keys into each of K equal key ranges.
      prefix = index * 0x9e3779b97f4a7c15ULL;
      break;
  }
  // Low 2 key bytes disambiguate records sharing a prefix.
  const auto suffix = static_cast<std::uint16_t>(RecordHash(seed_, index, 1));
  return MakeKey(prefix, suffix);
}

Record TeraGen::record(std::uint64_t index) const {
  Record rec{};
  rec.key = key(index);

  // --- Value ---
  // Hadoop TeraGen writes the row id followed by printable filler; we
  // keep that shape: 8 bytes of big-endian row id, then pseudo-random
  // printable ASCII so values differ record-to-record.
  for (int i = 0; i < 8; ++i) {
    rec.value[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(index >> (8 * (7 - i)));
  }
  std::uint64_t vstream = RecordHash(seed_, index, /*lane=*/2);
  for (std::size_t i = 8; i < kValueBytes; ++i) {
    if (i % 8 == 0) {
      vstream = RecordHash(seed_, index, /*lane=*/2 + i / 8);
    }
    rec.value[i] = static_cast<std::uint8_t>('A' + (vstream & 0x0f));
    vstream >>= 4;
  }
  return rec;
}

std::vector<Record> TeraGen::generate(std::uint64_t start,
                                      std::uint64_t count) const {
  std::vector<Record> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(record(start + i));
  }
  return out;
}

}  // namespace cts
