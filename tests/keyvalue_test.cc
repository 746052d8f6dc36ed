// Unit + property tests for src/keyvalue: records, TeraGen,
// partitioners, record IO.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/check.h"
#include "keyvalue/partitioner.h"
#include "keyvalue/record.h"
#include "keyvalue/recordio.h"
#include "keyvalue/teragen.h"
#include "keyvalue/teravalidate.h"

namespace cts {
namespace {

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

TEST(Partitioner, SerializeRoundTripRange) {
  const RangePartitioner part(9);
  Buffer b;
  part.serialize(b);
  const auto restored = Partitioner::Deserialize(b);
  EXPECT_EQ(restored->num_partitions(), 9);
  for (std::uint64_t x : {0ULL, 123ULL << 40, ~0ULL}) {
    EXPECT_EQ(restored->partition(MakeKey(x)), part.partition(MakeKey(x)));
  }
}

TEST(Partitioner, SerializeRoundTripSampled) {
  const SampledPartitioner part({MakeKey(10), MakeKey(20), MakeKey(30)});
  Buffer b;
  part.serialize(b);
  const auto restored = Partitioner::Deserialize(b);
  EXPECT_EQ(restored->num_partitions(), 4);
  for (std::uint64_t x : {5ULL, 10ULL, 15ULL, 25ULL, 35ULL}) {
    EXPECT_EQ(restored->partition(MakeKey(x)), part.partition(MakeKey(x)));
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

}  // namespace
}  // namespace cts
