// The TeraSort record type.
//
// The paper (and Hadoop TeraGen) uses 100-byte records: a 10-byte key
// and a 90-byte value. Keys are unsigned 10-byte integers compared
// big-endian (so raw memcmp gives the standard integer ordering the
// paper sorts by).
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <cstring>
#include <span>

namespace cts {

inline constexpr std::size_t kKeyBytes = 10;
inline constexpr std::size_t kValueBytes = 90;
inline constexpr std::size_t kRecordBytes = kKeyBytes + kValueBytes;

using Key = std::array<std::uint8_t, kKeyBytes>;
using Value = std::array<std::uint8_t, kValueBytes>;

// A fixed-size key-value pair. Trivially copyable so intermediate
// values serialize as flat memcpy (the Pack stage) and sort moves are
// cheap 100-byte copies, as in the paper's C++ implementation.
struct Record {
  Key key;
  Value value;

  friend bool operator==(const Record& a, const Record& b) {
    return std::memcmp(&a, &b, sizeof(Record)) == 0;
  }
};

static_assert(sizeof(Record) == kRecordBytes,
              "Record must pack to exactly 100 bytes");

// Key ordering: big-endian unsigned integer comparison == memcmp.
inline int CompareKeys(const Key& a, const Key& b) {
  return std::memcmp(a.data(), b.data(), kKeyBytes);
}

inline bool KeyLess(const Key& a, const Key& b) {
  return CompareKeys(a, b) < 0;
}

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "key prefixes assume a little- or big-endian host");

// A native word's bytes in big-endian order, and back: the swap is its
// own inverse, and a no-op on a big-endian host.
constexpr std::uint64_t BigEndianWord(std::uint64_t word) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(word);
  } else {
    return word;
  }
}

// The top 8 bytes of the key as a u64 (big-endian, one load); enough
// resolution to partition the key domain (collisions beyond 64 bits
// land in the same range).
inline std::uint64_t KeyPrefix(const Key& key) {
  std::uint64_t word = 0;
  std::memcpy(&word, key.data(), sizeof word);
  return BigEndianWord(word);
}

// Writes a u64 into the top 8 bytes of a key (remaining bytes given).
inline Key MakeKey(std::uint64_t prefix, std::uint16_t suffix = 0) {
  Key k{};
  const std::uint64_t word = BigEndianWord(prefix);
  std::memcpy(k.data(), &word, sizeof word);
  k[8] = static_cast<std::uint8_t>(suffix >> 8);
  k[9] = static_cast<std::uint8_t>(suffix);
  return k;
}

// Sorting comparator. TeraSort orders by key; value is a tiebreaker so
// that the fully-sorted output is unique and cross-implementation
// comparisons (coded vs uncoded vs std::sort) are exact. The key
// prefixes decide as integers first, which is the same order; only a
// tie on them reaches the byte comparisons.
inline bool RecordLess(const Record& a, const Record& b) {
  const std::uint64_t pa = KeyPrefix(a.key);
  const std::uint64_t pb = KeyPrefix(b.key);
  if (pa != pb) return pa < pb;
  const int c = CompareKeys(a.key, b.key);
  if (c != 0) return c < 0;
  return std::memcmp(a.value.data(), b.value.data(), kValueBytes) < 0;
}

}  // namespace cts
