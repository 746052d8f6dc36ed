// Unit tests for src/common: Buffer serialization and storage, the
// block cache, checks, RNG, units.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/block_cache.h"
#include "common/buffer.h"
#include "common/check.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "common/units.h"

namespace cts {
namespace {

TEST(Check, PassingCheckDoesNothing) {
  EXPECT_NO_THROW(CTS_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(CTS_CHECK_EQ(3, 3));
  EXPECT_NO_THROW(CTS_CHECK_LT(1, 2));
}

TEST(Check, FailingCheckThrowsCheckError) {
  EXPECT_THROW(CTS_CHECK(false), CheckError);
  EXPECT_THROW(CTS_CHECK_EQ(1, 2), CheckError);
  EXPECT_THROW(CTS_CHECK_MSG(false, "context " << 42), CheckError);
}

TEST(Check, MessageContainsExpressionAndOperands) {
  try {
    CTS_CHECK_EQ(2 + 2, 5);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2"), std::string::npos);
    EXPECT_NE(what.find("lhs=4"), std::string::npos);
    EXPECT_NE(what.find("rhs=5"), std::string::npos);
  }
}

TEST(Buffer, ScalarRoundTrip) {
  Buffer b;
  b.write_u8(0xab);
  b.write_u32(0xdeadbeefu);
  b.write_u64(0x0123456789abcdefULL);
  b.write_i32(-42);

  EXPECT_EQ(b.read_u8(), 0xab);
  EXPECT_EQ(b.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(b.read_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(b.read_i32(), -42);
  EXPECT_EQ(b.remaining(), 0u);
}

TEST(Buffer, LittleEndianLayout) {
  Buffer b;
  b.write_u32(0x01020304u);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b.data()[0], 0x04);
  EXPECT_EQ(b.data()[3], 0x01);
}

TEST(Buffer, StringRoundTrip) {
  Buffer b;
  b.write_string("hello terasort");
  EXPECT_EQ(b.read_string(), "hello terasort");
}

TEST(Buffer, EmptyString) {
  Buffer b;
  b.write_string("");
  EXPECT_EQ(b.read_string(), "");
}

TEST(Buffer, UnderrunThrows) {
  Buffer b;
  b.write_u8(1);
  (void)b.read_u8();
  EXPECT_THROW((void)b.read_u8(), CheckError);
  EXPECT_THROW((void)b.read_u32(), CheckError);
}

TEST(Buffer, RewindAndSeek) {
  Buffer b;
  b.write_u32(7);
  b.write_u32(9);
  EXPECT_EQ(b.read_u32(), 7u);
  b.rewind();
  EXPECT_EQ(b.read_u32(), 7u);
  b.seek(4);
  EXPECT_EQ(b.read_u32(), 9u);
  EXPECT_THROW(b.seek(100), CheckError);
}

TEST(Buffer, CloneIsDeepAndPreservesCursor) {
  Buffer b;
  b.write_u32(1);
  b.write_u32(2);
  (void)b.read_u32();
  Buffer c = b.Clone();
  EXPECT_EQ(c.read_u32(), 2u);
  EXPECT_EQ(b.read_u32(), 2u);  // original cursor unaffected by clone's
}

TEST(Buffer, ReadViewIsZeroCopyWindow) {
  Buffer b;
  const std::vector<std::uint8_t> data{10, 20, 30, 40};
  b.write_bytes(data);
  const auto v = b.read_view(2);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 20);
  EXPECT_EQ(b.remaining(), 2u);
}

TEST(Buffer, TakeStealsBytes) {
  Buffer b;
  b.write_u8(5);
  const auto bytes = b.take();
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_EQ(b.size(), 0u);
}

// Share, take, Clone and == must not depend on where the storage comes
// from: operator new below BlockCache::kMinBytes, the cache from there.
TEST(Buffer, SameBehaviourOnBothSidesOfTheCacheThreshold) {
  for (const std::size_t n :
       {std::size_t{1000}, BlockCache::kMinBytes - 1, BlockCache::kMinBytes,
        3 * BlockCache::kMinBytes + 5}) {
    SCOPED_TRACE(n);
    std::vector<std::uint8_t> bytes(n);
    for (std::size_t i = 0; i < n; ++i) {
      bytes[i] = static_cast<std::uint8_t>(i * 7 + 1);
    }
    Buffer a(bytes);
    EXPECT_EQ(a.size(), n);

    Buffer clone = a.Clone();
    EXPECT_TRUE(clone == a);
    EXPECT_NE(clone.data(), a.data());
    clone.mutable_span()[n - 1] ^= 0xff;
    EXPECT_FALSE(clone == a);

    Buffer holder = a.Share();
    EXPECT_TRUE(holder == a);
    EXPECT_EQ(std::as_const(holder).data(), std::as_const(a).data());
    holder.write_u8(9);  // a private copy first
    EXPECT_EQ(holder.size(), n + 1);
    EXPECT_EQ(a.size(), n);
    EXPECT_EQ(a.take(), bytes);
    EXPECT_TRUE(a.empty());

    (void)a.read_view(0);
    a.write_bytes(bytes);
    a.seek(n / 2);
    const Buffer copy = a.Clone();
    EXPECT_EQ(copy.cursor(), n / 2);
    EXPECT_EQ(copy.span()[n - 1], bytes[n - 1]);
  }
}

TEST(Buffer, LargeStorageComesFromTheBlockCache) {
  const BlockCache::Stats before = BlockCache::Global().stats();
  {
    Buffer small;
    small.resize(BlockCache::kMinBytes - 1);
    EXPECT_EQ(BlockCache::Global().stats().out_bytes, before.out_bytes);
    Buffer large;
    large.resize(BlockCache::kMinBytes);
    EXPECT_GE(BlockCache::Global().stats().out_bytes,
              before.out_bytes + BlockCache::kMinBytes);
    EXPECT_EQ(large.span()[BlockCache::kMinBytes - 1], 0);  // zero-filled
  }
  EXPECT_EQ(BlockCache::Global().stats().out_bytes, before.out_bytes);
}

TEST(BlockCache, FreedBlockServesTheNextRequestOfItsClass) {
  BlockCache cache;
  std::uint8_t* first = cache.acquire(std::size_t{1} << 20);
  cache.release(first);
  // 1 MiB - 100 B rounds up to the same 1 MiB class.
  std::uint8_t* second = cache.acquire((std::size_t{1} << 20) - 100);
  EXPECT_EQ(second, first);
  const BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.maps, 1u);
  EXPECT_EQ(stats.reuses, 1u);
  cache.release(second);
  EXPECT_THROW(cache.release(second), CheckError);
}

TEST(BlockCache, HeldBytesNeverExceedThePeakHandedOut) {
  BlockCache cache;
  const auto within_bound = [&cache] {
    const BlockCache::Stats s = cache.stats();
    EXPECT_LE(s.held_bytes, s.peak_out_bytes);
  };
  // A large shape: eight 512 KiB blocks at once.
  std::vector<std::uint8_t*> blocks;
  for (int i = 0; i < 8; ++i) {
    blocks.push_back(cache.acquire(std::size_t{512} << 10));
    within_bound();
  }
  for (std::uint8_t* b : blocks) {
    cache.release(b);
    within_bound();
  }
  EXPECT_EQ(cache.stats().peak_out_bytes, std::size_t{4} << 20);
  // One block no free block fits: six 512 KiB blocks go back to the
  // kernel so that 4 MiB stays the most held.
  std::uint8_t* big = cache.acquire(std::size_t{3} << 20);
  within_bound();
  EXPECT_EQ(cache.stats().unmaps, 6u);
  EXPECT_EQ(cache.stats().held_bytes, std::size_t{4} << 20);
  // A smaller shape is served from what is left, without a mapping.
  std::uint8_t* a = cache.acquire(BlockCache::kMinBytes);
  std::uint8_t* b = cache.acquire(BlockCache::kMinBytes);
  within_bound();
  EXPECT_EQ(cache.stats().maps, 9u);
  for (std::uint8_t* p : {big, a, b}) cache.release(p);
  within_bound();
  EXPECT_EQ(cache.stats().out_bytes, 0u);
}

TEST(BlockCache, ConcurrentAcquireAndRelease) {
  BlockCache cache;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 200; ++i) {
        const std::size_t n =
            BlockCache::kMinBytes + static_cast<std::size_t>((t + i) % 5) *
                                        (BlockCache::kMinBytes / 3);
        std::uint8_t* block = cache.acquire(n);
        // No other thread holds this block: its ends keep our marks.
        block[0] = static_cast<std::uint8_t>(t);
        block[n - 1] = static_cast<std::uint8_t>(i);
        std::this_thread::yield();
        EXPECT_EQ(block[0], static_cast<std::uint8_t>(t));
        EXPECT_EQ(block[n - 1], static_cast<std::uint8_t>(i));
        cache.release(block);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.out_bytes, 0u);
  EXPECT_LE(stats.held_bytes, stats.peak_out_bytes);
  EXPECT_EQ(stats.maps + stats.reuses, 8u * 200u);
}

#if defined(__SANITIZE_ADDRESS__)
#define CTS_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CTS_TEST_ASAN 1
#endif
#endif

// A released block stays mapped in the cache, so only its ASan poison
// can catch a read through a stale pointer.
TEST(BufferDeathTest, ReadingReleasedCachedStorageAborts) {
#ifndef CTS_TEST_ASAN
  GTEST_SKIP() << "needs AddressSanitizer";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        const std::uint8_t* stale = nullptr;
        {
          Buffer b;
          b.resize(BlockCache::kMinBytes);
          stale = std::as_const(b).data();
        }
        std::printf("%d\n", *static_cast<const volatile std::uint8_t*>(stale));
      },
      "use-after-poison");
#endif
}

TEST(Random, SplitMixIsDeterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  EXPECT_EQ(SplitMix64(s1), SplitMix64(s2));
  EXPECT_EQ(s1, s2);
  EXPECT_NE(SplitMix64(s1), SplitMix64(s2) + 1);  // streams advanced equally
}

TEST(Random, Mix64SpreadsNearbyInputs) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Random, XoshiroDeterministicPerSeed) {
  Xoshiro256 a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  bool all_equal = true;
  Xoshiro256 a2(7);
  for (int i = 0; i < 100; ++i) {
    if (a2() != c()) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
}

TEST(Random, BelowStaysInRange) {
  Xoshiro256 rng(123);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Random, BelowIsRoughlyUniform) {
  Xoshiro256 rng(99);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(Random, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Stopwatch, ElapsedIsMonotonic) {
  Stopwatch w;
  const double t1 = w.elapsed();
  const double t2 = w.elapsed();
  EXPECT_GE(t2, t1);
  EXPECT_GE(t1, 0.0);
}

TEST(Stopwatch, AccumulatorSums) {
  Accumulator acc;
  acc.start();
  acc.stop();
  acc.start();
  acc.stop();
  EXPECT_GE(acc.total(), 0.0);
  acc.reset();
  EXPECT_EQ(acc.total(), 0.0);
}

TEST(Units, HumanBytes) {
  EXPECT_EQ(HumanBytes(12e9), "12.00 GB");
  EXPECT_EQ(HumanBytes(750e6), "750.00 MB");
  EXPECT_EQ(HumanBytes(1500), "1.50 kB");
  EXPECT_EQ(HumanBytes(17), "17 B");
}

TEST(Units, HumanRate) {
  EXPECT_EQ(HumanRate(100 * kMbps), "100.0 Mbps");
  EXPECT_EQ(HumanRate(12.5e6), "100.0 Mbps");  // 12.5 MB/s == 100 Mbps
}

TEST(Units, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(945.72), "945.72 s");
  EXPECT_EQ(HumanSeconds(0.0025), "2.50 ms");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t("demo");
  t.set_header({"stage", "sec"});
  t.add_row({"Map", "1.86"});
  t.add_row({"Shuffle", "945.72"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("Shuffle"), std::string::npos);
  EXPECT_NE(s.find("945.72"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t("bad");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(TextTable, NumFormatsFixedPrecision) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Num(2.0, 0), "2");
}

}  // namespace
}  // namespace cts
