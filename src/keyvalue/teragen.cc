#include "keyvalue/teragen.h"

#include <bit>
#include <cmath>
#include <cstring>

namespace cts {

namespace {

// Per-record 64-bit stream: h(seed, index, lane). Independent lanes let
// key and value bytes come from decorrelated streams.
std::uint64_t RecordHash(std::uint64_t seed, std::uint64_t index,
                         std::uint64_t lane) {
  return Mix64(seed ^ Mix64(index * 0x9e3779b97f4a7c15ULL + lane));
}

// One printable byte per nibble: byte j of the result is 'A' plus
// nibble j of h's low 32 bits. Three shift-and-mask steps spread the
// nibbles to byte lanes; no lane can carry into the next.
std::uint64_t PrintableWord(std::uint64_t h) {
  std::uint64_t w = h & 0xffffffffULL;
  w = (w | (w << 16)) & 0x0000ffff0000ffffULL;
  w = (w | (w << 8)) & 0x00ff00ff00ff00ffULL;
  w = (w | (w << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return w + 0x4141414141414141ULL;  // 'A' in every byte
}

// Stores `word` at out[0, 8), least significant byte first, whatever
// the host's byte order.
void StoreLittleEndian(std::uint8_t* out, std::uint64_t word) {
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  std::memcpy(out, &word, sizeof word);
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

void TeraGen::record_into(std::uint64_t index, std::uint8_t* out) const {
  const Key k = key(index);
  std::memcpy(out, k.data(), kKeyBytes);

  // --- Value ---
  // Hadoop TeraGen writes the row id followed by printable filler; we
  // keep that shape: 8 bytes of big-endian row id, then pseudo-random
  // printable ASCII so values differ record-to-record. Value bytes
  // 8w..8w+7 come from hash lane 2 + w, low nibble first; the stores
  // fix the byte order, so the layout does not depend on the host's.
  out += kKeyBytes;
  const std::uint64_t row_id = BigEndianWord(index);
  std::memcpy(out, &row_id, sizeof row_id);
  constexpr std::size_t kTail = kValueBytes / 8;  // the 2-byte last word
  for (std::size_t w = 1; w < kTail; ++w) {
    StoreLittleEndian(
        out + 8 * w,
        PrintableWord(RecordHash(seed_, index, /*lane=*/2 + w)));
  }
  const std::uint64_t last =
      PrintableWord(RecordHash(seed_, index, /*lane=*/2 + kTail));
  for (std::size_t j = 0; j < kValueBytes % 8; ++j) {
    out[8 * kTail + j] = static_cast<std::uint8_t>(last >> (8 * j));
  }
}

Record TeraGen::record(std::uint64_t index) const {
  // Not zeroed first: record_into writes all 100 bytes, and a zero
  // fill ahead of it made generate() about 20% slower.
  Record rec;
  record_into(index, reinterpret_cast<std::uint8_t*>(&rec));
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
