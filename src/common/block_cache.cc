#include "common/block_cache.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <new>

#include "common/check.h"

namespace cts {

namespace {

// The size class of a request: rounded up to a multiple of 1/8 of its
// leading power of two (at least 32 KiB, a whole number of pages).
std::size_t SizeClass(std::size_t bytes) {
  if (bytes > (SIZE_MAX >> 1)) throw std::bad_alloc();
  const std::size_t step = std::bit_floor(bytes) / 8;
  return (bytes + step - 1) / step * step;
}

std::uint8_t* Map(std::size_t size) {
  void* block = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (block == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::uint8_t*>(block);
}

void Unmap(std::uint8_t* block, std::size_t size) {
  // The address range may be mapped again by anyone: leave no poison.
  ASAN_UNPOISON_MEMORY_REGION(block, size);
  munmap(block, size);
}

}  // namespace

BlockCache::~BlockCache() {
  for (const Block& b : free_) Unmap(b.data, b.size);
  for (const Block& b : out_) Unmap(b.data, b.size);
}

BlockCache& BlockCache::Global() {
  static BlockCache* const cache = new BlockCache;
  return *cache;
}

std::uint8_t* BlockCache::acquire(std::size_t bytes) {
  CTS_CHECK_GE(bytes, kMinBytes);
  const std::size_t want = SizeClass(bytes);
  // The first free block of at least `size` bytes.
  const auto fitting = [this](std::size_t size) {
    return std::lower_bound(
        free_.begin(), free_.end(), size,
        [](const Block& b, std::size_t s) { return b.size < s; });
  };
  const std::lock_guard<std::mutex> lock(mu_);
  // Room for every block in either list, so that release(), which runs
  // in destructors, never allocates.
  const std::size_t blocks = free_.size() + out_.size() + 1;
  if (free_.capacity() < blocks) free_.reserve(2 * blocks);
  if (out_.capacity() < blocks) out_.reserve(2 * blocks);
  Block block{};
  if (const auto fit = fitting(want); fit != free_.end()) {
    block = *fit;
    free_.erase(fit);
    ++stats_.reuses;
  } else {
    // No free block fits, so every free block is smaller than `want`.
    // Evict until the new block fits under the bound: first the
    // smallest block that covers the excess alone, else the largest.
    const std::size_t peak =
        std::max(stats_.peak_out_bytes, stats_.out_bytes + want);
    while (stats_.held_bytes + want > peak) {
      auto victim = fitting(stats_.held_bytes + want - peak);
      if (victim == free_.end()) victim = std::prev(free_.end());
      Unmap(victim->data, victim->size);
      stats_.held_bytes -= victim->size;
      ++stats_.unmaps;
      free_.erase(victim);
    }
    block = {Map(want), want};
    stats_.held_bytes += want;
    ++stats_.maps;
  }
  out_.insert(std::upper_bound(out_.begin(), out_.end(), block.data,
                               [](const std::uint8_t* p, const Block& b) {
                                 return p < b.data;
                               }),
              block);
  stats_.out_bytes += block.size;
  stats_.peak_out_bytes = std::max(stats_.peak_out_bytes, stats_.out_bytes);
  ASAN_POISON_MEMORY_REGION(block.data, block.size);
  ASAN_UNPOISON_MEMORY_REGION(block.data, bytes);
  return block.data;
}

void BlockCache::release(std::uint8_t* data) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::lower_bound(
      out_.begin(), out_.end(), data,
      [](const Block& b, const std::uint8_t* p) { return b.data < p; });
  CTS_CHECK_MSG(it != out_.end() && it->data == data,
                "released a block the cache did not hand out");
  const Block block = *it;
  out_.erase(it);
  ASAN_POISON_MEMORY_REGION(block.data, block.size);
  stats_.out_bytes -= block.size;
  free_.insert(std::upper_bound(free_.begin(), free_.end(), block.size,
                                [](std::size_t size, const Block& b) {
                                  return size < b.size;
                                }),
               block);
}

BlockCache::Stats BlockCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cts
