#include "keyvalue/teragen.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "keyvalue/teragen_kernels.h"

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

#if defined(__x86_64__)

// ---- The wide kernel ----
// RecordHash, PrintableWord and key()'s prefix switch on eight lanes
// at once, in GCC/Clang vector extensions: vpmullq does eight Mix64
// multiplies, and x86-64 is little-endian, so a vector's lanes store
// as StoreLittleEndian words. Only the functions marked below use
// AVX-512, and they run only once WideKernelMissingFeature() has
// found it.
#define CTS_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl")))
// The helpers inline into the two kernels, so no vector crosses a call.
#define CTS_AVX512_INLINE \
  CTS_TARGET_AVX512 __attribute__((always_inline)) inline

typedef std::uint64_t U64x8 __attribute__((vector_size(64)));
typedef double F64x8 __attribute__((vector_size(64)));

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

// Mix64 (SplitMix64's output step) in every lane.
CTS_AVX512_INLINE U64x8 Mix64x8(U64x8 z) {
  constexpr std::uint64_t kMul1 = 0xbf58476d1ce4e5b9ULL;
  constexpr std::uint64_t kMul2 = 0x94d049bb133111ebULL;
  z += kGolden;
  z = (z ^ (z >> 30)) * kMul1;
  z = (z ^ (z >> 27)) * kMul2;
  return z ^ (z >> 31);
}

// RecordHash(seed, index, lane) in every lane, given index * kGolden
// + lane there.
CTS_AVX512_INLINE U64x8 RecordHashx8(std::uint64_t seed, U64x8 inner) {
  return Mix64x8(seed ^ Mix64x8(inner));
}

CTS_AVX512_INLINE U64x8 PrintableWordx8(U64x8 h) {
  constexpr std::uint64_t kLow32 = 0xffffffffULL;
  constexpr std::uint64_t kSpread16 = 0x0000ffff0000ffffULL;
  constexpr std::uint64_t kSpread8 = 0x00ff00ff00ff00ffULL;
  constexpr std::uint64_t kSpread4 = 0x0f0f0f0f0f0f0f0fULL;
  constexpr std::uint64_t kLetterA = 0x4141414141414141ULL;
  U64x8 w = h & kLow32;
  w = (w | (w << 16)) & kSpread16;
  w = (w | (w << 8)) & kSpread8;
  w = (w | (w << 4)) & kSpread4;
  return w + kLetterA;
}

// The key prefix of each lane's record from its index and its lane-0
// hash `h0`: key()'s switch in the same floating-point operation
// order (only multiplies, so nothing can contract into an FMA).
CTS_AVX512_INLINE U64x8 Prefixx8(KeyDistribution dist, U64x8 index,
                                  U64x8 h0) {
  constexpr std::uint64_t kByte = 0xff;
  U64x8 prefix = index;
  switch (dist) {
    case KeyDistribution::kUniform:
      prefix = h0;
      break;
    case KeyDistribution::kSorted:
      break;
    case KeyDistribution::kReverseSorted:
      prefix = ~index;
      break;
    case KeyDistribution::kSkewed: {
      const F64x8 u = __builtin_convertvector(h0 >> 11, F64x8) * 0x1.0p-53;
      const F64x8 skewed = u * u * u * u;
      prefix = __builtin_convertvector(skewed * 18446744073709549568.0, U64x8);
      break;
    }
    case KeyDistribution::kFewDistinct:
      prefix = (h0 & kByte) << 56;
      break;
    case KeyDistribution::kBalanced:
      prefix = index * kGolden;
      break;
  }
  return prefix;
}

// key(first + i) into keys[i], eight consecutive indices per vector;
// indices wrap past 2^64 - 1 as key()'s do.
CTS_TARGET_AVX512 void KeysIntoWide(const TeraGen& gen,
                                    std::uint64_t first,
                                    std::span<Key> keys) {
  const U64x8 step = {0, 1, 2, 3, 4, 5, 6, 7};
  for (std::size_t i = 0; i < keys.size(); i += 8) {
    const U64x8 index = (first + i) + step;
    const U64x8 inner = index * kGolden;
    const U64x8 suffix = RecordHashx8(gen.seed(), inner + 1);
    const U64x8 prefix = Prefixx8(gen.distribution(), index,
                                  RecordHashx8(gen.seed(), inner));
    const std::size_t n = std::min<std::size_t>(8, keys.size() - i);
    for (std::size_t j = 0; j < n; ++j) {
      keys[i + j] =
          MakeKey(prefix[j], static_cast<std::uint16_t>(suffix[j]));
    }
  }
}

#endif  // defined(__x86_64__)

}  // namespace

namespace teragen_internal {

const char* FirstMissingWideFeature() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx512f")) return "avx512f";
  if (!__builtin_cpu_supports("avx512dq")) return "avx512dq";
  if (!__builtin_cpu_supports("avx512bw")) return "avx512bw";
  if (!__builtin_cpu_supports("avx512vl")) return "avx512vl";
  return nullptr;
#else
  return "x86-64";
#endif
}

void RecordIntoScalar(const TeraGen& gen, std::uint64_t index,
                      std::uint8_t* out) {
  const Key k = gen.key(index);
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
        PrintableWord(RecordHash(gen.seed(), index, /*lane=*/2 + w)));
  }
  const std::uint64_t last =
      PrintableWord(RecordHash(gen.seed(), index, /*lane=*/2 + kTail));
  for (std::size_t j = 0; j < kValueBytes % 8; ++j) {
    out[8 * kTail + j] = static_cast<std::uint8_t>(last >> (8 * j));
  }
}

#if defined(__x86_64__)

// The lanes go into two vectors: `a` holds lanes 3..10 (value words
// 1..8), `b` lanes 11, 12, 13 (value words 9 and 10, the tail word), 1
// (the key suffix) and 0 (the prefix hash).
CTS_TARGET_AVX512 void RecordIntoWide(const TeraGen& gen,
                                      std::uint64_t index,
                                      std::uint8_t* out) {
  const std::uint64_t inner = index * kGolden;
  const U64x8 a =
      RecordHashx8(gen.seed(), inner + U64x8{3, 4, 5, 6, 7, 8, 9, 10});
  const U64x8 b =
      RecordHashx8(gen.seed(), inner + U64x8{11, 12, 13, 1, 0, 0, 0, 0});
  // Every lane's record is `index`; lane 4 of `b` is its prefix hash.
  const U64x8 prefix = Prefixx8(gen.distribution(), U64x8{} + index, b);
  const std::uint64_t key_word = BigEndianWord(prefix[4]);
  std::memcpy(out, &key_word, sizeof key_word);
  const std::uint64_t suffix = b[3];
  out[8] = static_cast<std::uint8_t>(suffix >> 8);
  out[9] = static_cast<std::uint8_t>(suffix);

  out += kKeyBytes;
  const std::uint64_t row_id = BigEndianWord(index);
  std::memcpy(out, &row_id, sizeof row_id);
  const U64x8 words = PrintableWordx8(a);
  std::memcpy(out + 8, &words, sizeof words);
  const U64x8 tail = PrintableWordx8(b);
  std::memcpy(out + 72, &tail, 2 * sizeof(std::uint64_t));
  const std::uint64_t last = tail[2];
  std::memcpy(out + 88, &last, kValueBytes % 8);
}

#else

void RecordIntoWide(const TeraGen&, std::uint64_t, std::uint8_t*) {
  CTS_CHECK_MSG(false, "the wide TeraGen kernel needs x86-64");
}

#endif  // defined(__x86_64__)

}  // namespace teragen_internal

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

void TeraGen::keys_into(std::uint64_t first, std::span<Key> keys) const {
#if defined(__x86_64__)
  if (teragen_internal::WideKernelMissingFeature() == nullptr) {
    KeysIntoWide(*this, first, keys);
    return;
  }
#endif
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = key(first + i);
}

void TeraGen::record_into(std::uint64_t index, std::uint8_t* out) const {
  if (teragen_internal::WideKernelMissingFeature() == nullptr) {
    teragen_internal::RecordIntoWide(*this, index, out);
  } else {
    teragen_internal::RecordIntoScalar(*this, index, out);
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
