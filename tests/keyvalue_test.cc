// Unit + property tests for src/keyvalue: records, TeraGen,
// partitioners, record IO.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "keyvalue/partitioner.h"
#include "keyvalue/record.h"
#include "keyvalue/recordio.h"
#include "keyvalue/teragen.h"
#include "keyvalue/teragen_kernels.h"
#include "keyvalue/teravalidate.h"

namespace cts {
namespace {

// Heap allocations made by this process, counted by the replacement
// operator new below, so a test can assert a call allocates nothing.
std::atomic<std::size_t> g_heap_allocations{0};

TEST(Record, SizeIs100Bytes) {
  EXPECT_EQ(sizeof(Record), 100u);
  EXPECT_EQ(kRecordBytes, 100u);
}

TEST(Record, KeyComparisonIsBigEndianInteger) {
  const Key a = MakeKey(5);
  const Key b = MakeKey(6);
  const Key c = MakeKey(0x0100000000000000ULL);
  EXPECT_TRUE(KeyLess(a, b));
  EXPECT_FALSE(KeyLess(b, a));
  EXPECT_TRUE(KeyLess(b, c));
  EXPECT_EQ(CompareKeys(a, a), 0);
}

TEST(Record, KeyPrefixRoundTrip) {
  const std::uint64_t p = 0x0123456789abcdefULL;
  EXPECT_EQ(KeyPrefix(MakeKey(p)), p);
  EXPECT_EQ(KeyPrefix(MakeKey(0)), 0u);
  EXPECT_EQ(KeyPrefix(MakeKey(~std::uint64_t{0})), ~std::uint64_t{0});
}

// KeyPrefix and MakeKey by their byte-order definition: key bytes
// 0..7 are the prefix, most significant first, on any host.
std::uint64_t PrefixByBytes(const Key& key) {
  std::uint64_t p = 0;
  for (std::size_t i = 0; i < 8; ++i) p = (p << 8) | key[i];
  return p;
}

Key KeyByBytes(std::uint64_t prefix, std::uint16_t suffix) {
  Key k{};
  for (std::size_t i = 0; i < 8; ++i) {
    k[i] = static_cast<std::uint8_t>(prefix >> (8 * (7 - i)));
  }
  k[8] = static_cast<std::uint8_t>(suffix >> 8);
  k[9] = static_cast<std::uint8_t>(suffix);
  return k;
}

TEST(Record, KeyPrefixAndMakeKeyMatchTheByteOrderDefinition) {
  Key ones{};
  ones.fill(0xff);
  Key counting{};
  for (std::size_t i = 0; i < kKeyBytes; ++i) {
    counting[i] = static_cast<std::uint8_t>(i + 1);  // 0x0102...0a
  }
  std::vector<Key> keys = {Key{}, ones, counting};
  Xoshiro256 rng(31);
  for (int i = 0; i < 1000; ++i) {
    Key k{};
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    std::memcpy(k.data(), &a, 8);
    std::memcpy(k.data() + 8, &b, 2);
    keys.push_back(k);
  }
  EXPECT_EQ(KeyPrefix(counting), 0x0102030405060708ULL);
  for (const Key& k : keys) {
    const std::uint64_t prefix = PrefixByBytes(k);
    ASSERT_EQ(KeyPrefix(k), prefix);
    const auto suffix = static_cast<std::uint16_t>((k[8] << 8) | k[9]);
    ASSERT_EQ(MakeKey(prefix, suffix), KeyByBytes(prefix, suffix));
    ASSERT_EQ(MakeKey(prefix, suffix), k);
  }
  EXPECT_EQ(MakeKey(0x0102030405060708ULL, 0x090a), counting);
}

// RecordLess compares the prefixes as integers first: the order must
// still be memcmp's over all 100 bytes, key then value, including
// pairs whose prefixes tie and that differ only in key byte 8 or 9 or
// in the value.
TEST(Record, RecordLessAgreesWithMemcmp) {
  Xoshiro256 rng(2017);
  const auto random_record = [&] {
    Record rec{};
    auto* bytes = reinterpret_cast<std::uint8_t*>(&rec);
    for (std::size_t i = 0; i < kRecordBytes; i += 4) {
      const auto word = static_cast<std::uint32_t>(rng());
      std::memcpy(bytes + i, &word, 4);
    }
    return rec;
  };
  const auto expect_agrees = [](const Record& a, const Record& b) {
    const int c = std::memcmp(&a, &b, kRecordBytes);
    ASSERT_EQ(RecordLess(a, b), c < 0);
    ASSERT_EQ(RecordLess(b, a), c > 0);
  };
  for (int i = 0; i < 20000; ++i) {
    const Record a = random_record();
    Record b = random_record();
    expect_agrees(a, b);
    // Tied prefixes: the rest of b is random, or equal to a's but for
    // one byte: key byte 8, key byte 9, or one value byte.
    std::memcpy(b.key.data(), a.key.data(), 8);
    expect_agrees(a, b);
    for (const std::size_t at :
         {std::size_t{8}, std::size_t{9},
          kKeyBytes + static_cast<std::size_t>(rng() % kValueBytes)}) {
      Record c = a;
      auto* bytes = reinterpret_cast<std::uint8_t*>(&c);
      bytes[at] = static_cast<std::uint8_t>(rng());
      expect_agrees(a, c);
    }
    expect_agrees(a, a);
  }
}

TEST(Record, SuffixBreaksTiesWithoutChangingPrefix) {
  const Key a = MakeKey(7, 1);
  const Key b = MakeKey(7, 2);
  EXPECT_EQ(KeyPrefix(a), KeyPrefix(b));
  EXPECT_TRUE(KeyLess(a, b));
}

TEST(Record, RecordLessOrdersByKeyThenValue) {
  Record r1{}, r2{};
  r1.key = MakeKey(1);
  r2.key = MakeKey(2);
  EXPECT_TRUE(RecordLess(r1, r2));
  r2.key = r1.key;
  r1.value.fill(1);
  r2.value.fill(2);
  EXPECT_TRUE(RecordLess(r1, r2));
  EXPECT_FALSE(RecordLess(r2, r1));
}

TEST(TeraGen, DeterministicPerSeedAndIndex) {
  const TeraGen gen1(42), gen2(42), gen3(43);
  EXPECT_EQ(gen1.record(0), gen2.record(0));
  EXPECT_EQ(gen1.record(999), gen2.record(999));
  EXPECT_FALSE(gen1.record(0) == gen3.record(0));
  EXPECT_FALSE(gen1.record(0) == gen1.record(1));
}

TEST(TeraGen, GenerateMatchesPointQueries) {
  const TeraGen gen(7);
  const auto batch = gen.generate(100, 50);
  ASSERT_EQ(batch.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(batch[i], gen.record(100 + i));
  }
}

constexpr KeyDistribution kAllDistributions[] = {
    KeyDistribution::kUniform,     KeyDistribution::kSorted,
    KeyDistribution::kReverseSorted, KeyDistribution::kSkewed,
    KeyDistribution::kFewDistinct, KeyDistribution::kBalanced};

// key() is the key half of record(), for callers that never need the
// value (the synthesizer, the sampled partitioners).
TEST(TeraGen, KeyMatchesRecordKey) {
  for (const KeyDistribution dist : kAllDistributions) {
    SCOPED_TRACE(static_cast<int>(dist));
    const TeraGen gen(2017, dist);
    for (const std::uint64_t i :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1} << 32,
          std::uint64_t{1} << 63, ~std::uint64_t{0}}) {
      EXPECT_EQ(gen.key(i), gen.record(i).key) << "index " << i;
    }
    for (std::uint64_t i = 0; i < 10000; ++i) {
      ASSERT_EQ(gen.key(i), gen.record(i).key) << "index " << i;
    }
  }
}

// The in-place writer both Maps generate with is record(), byte for
// byte, at any alignment, and writes exactly the record's 100 bytes.
TEST(TeraGen, RecordIntoMatchesRecord) {
  std::vector<std::uint64_t> indices = {0, 1, std::uint64_t{1} << 32,
                                        ~std::uint64_t{0}};
  Xoshiro256 rng(7);
  while (indices.size() < 1004) indices.push_back(rng());
  constexpr std::uint8_t kGuard = 0xa5;
  for (const KeyDistribution dist : kAllDistributions) {
    SCOPED_TRACE(static_cast<int>(dist));
    const TeraGen gen(2017, dist);
    for (const std::uint64_t i : indices) {
      const std::size_t offset = i % 8;  // misaligned destinations
      std::array<std::uint8_t, kRecordBytes + 16> out{};
      out.fill(kGuard);
      gen.record_into(i, out.data() + offset);
      const Record expected = gen.record(i);
      ASSERT_EQ(std::memcmp(out.data() + offset, &expected, kRecordBytes), 0)
          << "index " << i;
      for (std::size_t b = 0; b < out.size(); ++b) {
        if (b < offset || b >= offset + kRecordBytes) {
          ASSERT_EQ(out[b], kGuard) << "index " << i << " byte " << b;
        }
      }
    }
  }
}

// The wide record kernel writes the scalar kernel's bytes, and only
// them: every distribution, edge and random seeds and indices, and
// destinations at every offset within a cache line, guarded on both
// sides.
TEST(TeraGen, WideKernelMatchesScalar) {
  if (const char* missing = teragen_internal::WideKernelMissingFeature()) {
    GTEST_SKIP() << "wide kernel not covered: this CPU lacks " << missing
                 << "; record_into runs the scalar kernel";
  }
  std::vector<std::uint64_t> indices = {
      0,
      1,
      (std::uint64_t{1} << 32) - 1,
      std::uint64_t{1} << 32,
      std::uint64_t{1} << 63,
      ~std::uint64_t{0} - 1,
      ~std::uint64_t{0},
  };
  Xoshiro256 rng(37);
  while (indices.size() < 7 + 10000) indices.push_back(rng());
  constexpr std::uint8_t kGuard = 0xa5;
  std::size_t written = 0;
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2017},
        ~std::uint64_t{0}}) {
    for (const KeyDistribution dist : kAllDistributions) {
      SCOPED_TRACE(static_cast<int>(dist));
      const TeraGen gen(seed, dist);
      for (const std::uint64_t i : indices) {
        const std::size_t offset = 1 + written++ % 64;
        alignas(64) std::array<std::uint8_t, kRecordBytes + 80> wide{};
        alignas(64) std::array<std::uint8_t, kRecordBytes + 80> scalar{};
        wide.fill(kGuard);
        scalar.fill(kGuard);
        teragen_internal::RecordIntoWide(gen, i, wide.data() + offset);
        teragen_internal::RecordIntoScalar(gen, i, scalar.data() + offset);
        ASSERT_EQ(wide, scalar) << "seed " << seed << " index " << i;
        for (std::size_t b = 0; b < wide.size(); ++b) {
          if (b < offset || b >= offset + kRecordBytes) {
            ASSERT_EQ(wide[b], kGuard) << "index " << i << " byte " << b;
          }
        }
      }
    }
  }
}

// keys_into is key() over a span of consecutive indices, whatever the
// span's length against the eight-key vector, including indices that
// wrap past 2^64 - 1, and writes nothing outside the span.
TEST(TeraGen, KeysIntoMatchesKey) {
  const Key sentinel = MakeKey(0x5a5a5a5a5a5a5a5aULL, 0x5a5a);
  for (const KeyDistribution dist : kAllDistributions) {
    SCOPED_TRACE(static_cast<int>(dist));
    for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{2017}}) {
      const TeraGen gen(seed, dist);
      for (const std::size_t n : {0, 1, 7, 8, 9, 256, 263}) {
        for (const std::uint64_t first :
             {std::uint64_t{0}, std::uint64_t{12345}, ~std::uint64_t{0} - 3}) {
          std::vector<Key> keys(n + 2, sentinel);
          gen.keys_into(first, std::span(keys).subspan(1, n));
          EXPECT_EQ(keys.front(), sentinel);
          EXPECT_EQ(keys.back(), sentinel);
          for (std::size_t j = 0; j < n; ++j) {
            ASSERT_EQ(keys[1 + j], gen.key(first + j))
                << "seed " << seed << " n " << n << " first " << first
                << " j " << j;
          }
        }
      }
    }
  }
}

// The live Map input is byte-identical to what it was before key()
// existed: these checksums of the first 100 k records (seed 2017) were
// taken from the generator that built each key inside record().
TEST(TeraGen, InputChecksumsArePinned) {
  struct Pinned {
    KeyDistribution dist;
    std::uint64_t xor_hash;
    std::uint64_t sum_hash;
  };
  const Pinned pinned[] = {
      {KeyDistribution::kUniform, 0xe4a28f8b5fc3ae1aULL,
       0xfe1fffa22b47ef04ULL},
      {KeyDistribution::kSorted, 0x0da3e7de4875c8acULL,
       0x51437755f2cdc5a0ULL},
      {KeyDistribution::kReverseSorted, 0xc9ec4ee44c94afddULL,
       0x78f06c0ff07e5ebdULL},
      {KeyDistribution::kSkewed, 0x6e6b3220e25522b4ULL,
       0x7dd34488eb3d0354ULL},
      {KeyDistribution::kFewDistinct, 0x32859e1b598b79c1ULL,
       0x497a87fe34e06d6dULL},
      {KeyDistribution::kBalanced, 0x3df260a4ad92d51aULL,
       0xba389bafba2a3f6eULL},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(static_cast<int>(p.dist));
    const RecordChecksum sum = ChecksumOfInput(TeraGen(2017, p.dist), 100000);
    EXPECT_EQ(sum.count, 100000u);
    EXPECT_EQ(sum.xor_hash, p.xor_hash);
    EXPECT_EQ(sum.sum_hash, p.sum_hash);
  }
}

TEST(TeraGen, ValueEmbedsRowId) {
  const TeraGen gen(1);
  const Record r = gen.record(0x0102030405060708ULL);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(r.value[static_cast<std::size_t>(i)], i + 1);
  }
}

// The value TeraGen wrote one byte at a time: the big-endian row id,
// then one printable byte per nibble of the lane-(2 + i / 8) hash,
// low nibble first. record() must keep reproducing it exactly.
Value ReferenceValue(std::uint64_t seed, std::uint64_t index) {
  const auto hash = [&](std::uint64_t lane) {
    return Mix64(seed ^ Mix64(index * 0x9e3779b97f4a7c15ULL + lane));
  };
  Value value{};
  for (int i = 0; i < 8; ++i) {
    value[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(index >> (8 * (7 - i)));
  }
  std::uint64_t vstream = 0;
  for (std::size_t i = 8; i < kValueBytes; ++i) {
    if (i % 8 == 0) vstream = hash(2 + i / 8);
    value[i] = static_cast<std::uint8_t>('A' + (vstream & 0x0f));
    vstream >>= 4;
  }
  return value;
}

TEST(TeraGen, ValueFillMatchesByteReference) {
  std::vector<std::uint64_t> indices = {
      0,
      1,
      (std::uint64_t{1} << 32) - 1,
      std::uint64_t{1} << 32,
      (std::uint64_t{1} << 32) + 1,
      std::uint64_t{1} << 63,
      ~std::uint64_t{0} - 1,
      ~std::uint64_t{0},
  };
  Xoshiro256 rng(99);
  while (indices.size() < 10000) {
    // Alternate full-range draws with small indices, where the row id
    // bytes are mostly zero.
    const std::uint64_t draw = rng();
    indices.push_back(indices.size() % 2 == 0 ? draw : draw >> 40);
  }
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2017},
        ~std::uint64_t{0}}) {
    for (const KeyDistribution dist : kAllDistributions) {
      SCOPED_TRACE(static_cast<int>(dist));
      const TeraGen gen(seed, dist);
      for (const std::uint64_t i : indices) {
        ASSERT_EQ(gen.record(i).value, ReferenceValue(seed, i))
            << "seed " << seed << " index " << i;
      }
    }
  }
}

TEST(TeraGen, ValueFillerIsPrintable) {
  const TeraGen gen(1);
  const Record r = gen.record(12345);
  for (std::size_t i = 8; i < kValueBytes; ++i) {
    EXPECT_GE(r.value[i], 'A');
    EXPECT_LE(r.value[i], 'A' + 15);
  }
}

TEST(TeraGen, UniformKeysSpreadAcrossDomain) {
  const TeraGen gen(42);
  const auto recs = gen.generate(0, 20000);
  // Bucket the prefixes into 16 ranges; expect rough uniformity.
  int counts[16] = {};
  for (const auto& r : recs) ++counts[KeyPrefix(r.key) >> 60];
  for (int c : counts) {
    EXPECT_GT(c, 20000 / 16 * 0.8);
    EXPECT_LT(c, 20000 / 16 * 1.2);
  }
}

TEST(TeraGen, SortedDistributionIsSorted) {
  const TeraGen gen(42, KeyDistribution::kSorted);
  const auto recs = gen.generate(0, 1000);
  EXPECT_TRUE(IsSorted(recs));
}

TEST(TeraGen, ReverseSortedIsDescending) {
  const TeraGen gen(42, KeyDistribution::kReverseSorted);
  const auto recs = gen.generate(0, 1000);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_FALSE(KeyLess(recs[i - 1].key, recs[i].key));
  }
}

TEST(TeraGen, SkewedConcentratesLow) {
  const TeraGen gen(42, KeyDistribution::kSkewed);
  const auto recs = gen.generate(0, 10000);
  std::size_t low_half = 0;
  for (const auto& r : recs) {
    if (KeyPrefix(r.key) < (std::uint64_t{1} << 63)) ++low_half;
  }
  // u^4 < 1/2 iff u < 0.84, so ~84% of keys land in the low half.
  EXPECT_GT(low_half, recs.size() * 3 / 4);
}

TEST(TeraGen, BalancedSpreadsEveryContiguousRangeEvenly) {
  const TeraGen gen(42, KeyDistribution::kBalanced);
  const RangePartitioner part(7);
  // Any contiguous index window of n records puts n/K ± O(1) keys in
  // each partition — that is the low-discrepancy property the exact
  // load-identity tests rely on.
  for (const std::uint64_t start : {0ULL, 131ULL, 9999ULL}) {
    std::vector<int> counts(7, 0);
    const std::uint64_t n = 700;
    for (const auto& r : gen.generate(start, n)) {
      ++counts[static_cast<std::size_t>(part.partition(r.key))];
    }
    for (int c : counts) {
      EXPECT_GE(c, 97);
      EXPECT_LE(c, 103);
    }
  }
}

TEST(TeraGen, BalancedKeysAreDistinct) {
  const TeraGen gen(42, KeyDistribution::kBalanced);
  const auto recs = gen.generate(0, 4096);
  std::vector<std::uint64_t> prefixes;
  prefixes.reserve(recs.size());
  for (const auto& r : recs) prefixes.push_back(KeyPrefix(r.key));
  std::sort(prefixes.begin(), prefixes.end());
  EXPECT_EQ(std::adjacent_find(prefixes.begin(), prefixes.end()),
            prefixes.end());
}

TEST(TeraGen, FewDistinctHasAtMost256Keys) {
  const TeraGen gen(42, KeyDistribution::kFewDistinct);
  const auto recs = gen.generate(0, 5000);
  std::map<std::uint64_t, int> prefixes;
  for (const auto& r : recs) ++prefixes[KeyPrefix(r.key)];
  EXPECT_LE(prefixes.size(), 256u);
  EXPECT_GT(prefixes.size(), 100u);  // should still be diverse
}

TEST(RangePartitioner, CoversAllPartitions) {
  const RangePartitioner part(4);
  EXPECT_EQ(part.num_partitions(), 4);
  EXPECT_EQ(part.partition(MakeKey(0)), 0);
  EXPECT_EQ(part.partition(MakeKey(~std::uint64_t{0})), 3);
}

TEST(RangePartitioner, BoundariesAreConsistentWithLookup) {
  const RangePartitioner part(7);
  for (PartitionId p = 0; p < 7; ++p) {
    const std::uint64_t lo = part.boundary(p);
    EXPECT_EQ(part.partition(MakeKey(lo)), p) << "p=" << p;
    if (lo > 0) {
      EXPECT_EQ(part.partition(MakeKey(lo - 1)), p - 1) << "p=" << p;
    }
  }
}

TEST(RangePartitioner, MonotoneInKey) {
  const RangePartitioner part(5);
  PartitionId prev = 0;
  for (std::uint64_t x = 0; x < 1000; ++x) {
    const std::uint64_t prefix = x * 0x0041893475134ULL;  // increasing
    const PartitionId p = part.partition(MakeKey(prefix));
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(RangePartitioner, UniformKeysBalance) {
  const RangePartitioner part(16);
  const TeraGen gen(3);
  std::vector<int> counts(16, 0);
  for (const auto& r : gen.generate(0, 32000)) {
    ++counts[static_cast<std::size_t>(part.partition(r.key))];
  }
  for (int c : counts) {
    EXPECT_GT(c, 2000 * 0.85);
    EXPECT_LT(c, 2000 * 1.15);
  }
}

TEST(RangePartitioner, SinglePartitionTakesEverything) {
  const RangePartitioner part(1);
  EXPECT_EQ(part.partition(MakeKey(0)), 0);
  EXPECT_EQ(part.partition(MakeKey(~std::uint64_t{0})), 0);
}

TEST(SampledPartitioner, SplittersPartitionTheDomain) {
  const SampledPartitioner part({MakeKey(100), MakeKey(200)});
  EXPECT_EQ(part.num_partitions(), 3);
  EXPECT_EQ(part.partition(MakeKey(50)), 0);
  EXPECT_EQ(part.partition(MakeKey(100)), 1);  // splitter owned by right
  EXPECT_EQ(part.partition(MakeKey(150)), 1);
  EXPECT_EQ(part.partition(MakeKey(200)), 2);
  EXPECT_EQ(part.partition(MakeKey(999)), 2);
}

TEST(SampledPartitioner, RejectsDescendingSplitters) {
  EXPECT_THROW(SampledPartitioner({MakeKey(5), MakeKey(3)}), CheckError);
}

TEST(SampledPartitioner, FromSampleBalancesSkewedData) {
  const TeraGen gen(11, KeyDistribution::kSkewed);
  const auto recs = gen.generate(0, 20000);
  std::vector<Key> sample;
  for (std::size_t i = 0; i < recs.size(); i += 10) {
    sample.push_back(recs[i].key);
  }
  const auto part = SampledPartitioner::FromSample(sample, 8);
  std::vector<int> counts(8, 0);
  for (const auto& r : recs) {
    ++counts[static_cast<std::size_t>(part.partition(r.key))];
  }
  // A RangePartitioner would put ~84% in the low half; the sampled one
  // must keep every reducer within 2x of fair share.
  for (int c : counts) {
    EXPECT_GT(c, 20000 / 8 / 2);
    EXPECT_LT(c, 20000 / 8 * 2);
  }
}

TEST(RecordIO, PackUnpackRoundTrip) {
  const TeraGen gen(5);
  const auto recs = gen.generate(0, 257);
  Buffer b;
  const std::size_t written = PackRecords(recs, b);
  EXPECT_EQ(written, PackedSize(recs.size()));
  const auto restored = UnpackRecords(b);
  EXPECT_EQ(restored, recs);
}

TEST(RecordIO, EmptyListRoundTrip) {
  Buffer b;
  PackRecords({}, b);
  EXPECT_TRUE(UnpackRecords(b).empty());
}

TEST(RecordIO, MultipleListsInOneBuffer) {
  const TeraGen gen(5);
  const auto a = gen.generate(0, 10);
  const auto c = gen.generate(10, 20);
  Buffer b;
  PackRecords(a, b);
  PackRecords(c, b);
  EXPECT_EQ(UnpackRecords(b), a);
  EXPECT_EQ(UnpackRecords(b), c);
}

TEST(RecordIO, UnpackIntoAppends) {
  const TeraGen gen(5);
  const auto a = gen.generate(0, 5);
  const auto c = gen.generate(5, 5);
  Buffer b;
  PackRecords(a, b);
  PackRecords(c, b);
  std::vector<Record> merged;
  UnpackRecordsInto(b, merged);
  UnpackRecordsInto(b, merged);
  ASSERT_EQ(merged.size(), 10u);
  EXPECT_EQ(merged[0], a[0]);
  EXPECT_EQ(merged[9], c[4]);
}

TEST(RecordIO, TruncatedBufferThrows) {
  Buffer b;
  b.write_u64(100);  // claims 100 records, provides none
  EXPECT_THROW(UnpackRecords(b), CheckError);
  // ceil(2^64 / 100) records: the byte count wraps to 84, which the
  // 100 bytes that follow would cover.
  Buffer wrap;
  wrap.write_u64(184467440737095517ULL);
  wrap.write_bytes(std::vector<std::uint8_t>(kRecordBytes));
  EXPECT_THROW(UnpackRecords(wrap), CheckError);
}

TEST(RecordIO, IsSortedPermutationDetectsReordering) {
  const TeraGen gen(5);
  auto recs = gen.generate(0, 100);
  auto sorted = recs;
  std::sort(sorted.begin(), sorted.end(), RecordLess);
  EXPECT_TRUE(IsSortedPermutationOf(recs, sorted));
  EXPECT_FALSE(IsSortedPermutationOf(recs, recs) && !IsSorted(recs));
  // Tampering with one record breaks the permutation property.
  sorted[0].value[0] ^= 0xff;
  EXPECT_FALSE(IsSortedPermutationOf(recs, sorted));
}

TEST(RecordIO, IsSortedPermutationRejectsSizeMismatch) {
  const TeraGen gen(5);
  const auto recs = gen.generate(0, 10);
  auto sorted = gen.generate(0, 9);
  std::sort(sorted.begin(), sorted.end(), RecordLess);
  EXPECT_FALSE(IsSortedPermutationOf(recs, sorted));
}

// SortRecords must reproduce std::sort(..., RecordLess) exactly: the
// comparator orders by all 100 bytes, so the sorted order is unique.
void ExpectSortsLikeStdSort(std::vector<Record> records) {
  std::vector<Record> expected = records;
  std::sort(expected.begin(), expected.end(), RecordLess);
  const std::size_t allocations = g_heap_allocations.load();
  SortRecords(records);
  EXPECT_EQ(g_heap_allocations.load(), allocations) << "SortRecords allocated";
  const auto diff = std::mismatch(records.begin(), records.end(),
                                  expected.begin(), expected.end());
  EXPECT_TRUE(diff.first == records.end())
      << "first difference at index " << (diff.first - records.begin())
      << " of " << records.size();
}

TEST(SortRecords, MatchesStdSortOnEveryDistributionAndSize) {
  for (const KeyDistribution dist : kAllDistributions) {
    for (const std::uint64_t n : {0, 1, 2, 31, 32, 33, 257, 100000}) {
      SCOPED_TRACE(testing::Message() << "distribution "
                                      << static_cast<int>(dist) << ", n "
                                      << n);
      ExpectSortsLikeStdSort(TeraGen(2017, dist).generate(0, n));
    }
  }
}

TEST(SortRecords, AllIdenticalRecords) {
  ExpectSortsLikeStdSort(
      std::vector<Record>(1000, TeraGen(3).record(12345)));
}

// TeraGen values start with the row id, so generated records are
// already in value order; this moves each record's random key to the
// front of its value so that ties on the key leave work to do.
std::vector<Record> RandomValueRecords(std::uint64_t seed, std::uint64_t n) {
  std::vector<Record> records = TeraGen(seed).generate(0, n);
  for (Record& rec : records) {
    std::copy(rec.key.begin(), rec.key.end(), rec.value.begin());
  }
  return records;
}

// Equal 10-byte keys leave only the value to order by: the buckets
// run out of key bytes and fall back to the full comparator.
TEST(SortRecords, EqualKeysOrderByValue) {
  std::vector<Record> records = RandomValueRecords(4, 5000);
  for (Record& rec : records) rec.key = MakeKey(0x0123456789abcdefULL, 7);
  ExpectSortsLikeStdSort(records);
}

// Keys that differ only in the last byte: nine shared levels, then
// buckets of about 20 (insertion sort) or 80 records (value fallback).
TEST(SortRecords, KeysDifferingOnlyInByteNine) {
  for (const std::uint64_t n : {5000, 20000}) {
    std::vector<Record> records = RandomValueRecords(5, n);
    for (Record& rec : records) {
      const std::uint8_t last = rec.value[kKeyBytes - 1];
      rec.key = MakeKey(0xfedcba9876543210ULL, 0x3300);
      rec.key[kKeyBytes - 1] = last;
    }
    ExpectSortsLikeStdSort(records);
  }
}

}  // namespace
}  // namespace cts

void* operator new(std::size_t size) {
  cts::g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair an inlined free() with
// the operator new above and warn about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
