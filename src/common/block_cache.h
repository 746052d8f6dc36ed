// Process-wide cache of large memory blocks: the storage of every
// Buffer of BlockCache::kMinBytes or more.
//
// A live job allocates a few dozen large blocks per node (packed
// lists, intermediate values, coded packets, shared multicast
// payloads) and frees them all before it returns. Handed back to
// malloc, such blocks tend to go back to the kernel, and the next job
// faults every page in again. The cache keeps them instead, under
// fixed rules that no setting changes:
//
// - Bound: the bytes it holds (handed out plus free) never exceed the
//   most it has had handed out at once. A request that needs a new
//   block first evicts free blocks until that holds, so a long-lived
//   process keeps at most its largest job's large buffers. (Memory the
//   cache keeps free is not available to malloc, so a process whose
//   malloc use peaks elsewhere can still peak higher than without it.)
// - Blocks come from the kernel (mmap) and evicted blocks go back to it
//   (munmap), never to malloc, whose arenas would keep them resident.
// - Reuse: best fit over every free block at least as large as the
//   request, with requests rounded up to a multiple of 1/8 of their
//   leading power of two, so a block keeps serving a size that drifts
//   a little from job to job.
// - Under AddressSanitizer, a free block and each block's slack past
//   its request are poisoned, so reading released storage is reported
//   as a read after free() would be.
//
// One mutex guards the cache: a live job makes a few dozen requests
// per node, and requests below kMinBytes never reach it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace cts {

class BlockCache {
 public:
  // The smallest request the cache serves; smaller Buffers use
  // operator new.
  static constexpr std::size_t kMinBytes = std::size_t{256} << 10;

  // The cache's own counters (not registry keys).
  struct Stats {
    std::uint64_t maps = 0;    // blocks mapped from the kernel
    std::uint64_t unmaps = 0;  // free blocks evicted to the kernel
    std::uint64_t reuses = 0;  // requests served by a free block
    std::size_t held_bytes = 0;      // mapped now: handed out plus free
    std::size_t out_bytes = 0;       // handed out now
    std::size_t peak_out_bytes = 0;  // the most handed out at once
  };

  BlockCache() = default;
  // Unmaps every block it holds.
  ~BlockCache();
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // The process-wide cache. It is never destroyed, so a Buffer in a
  // static object can still release into it at exit.
  static BlockCache& Global();

  // A block whose first `bytes` bytes (bytes >= kMinBytes) are the
  // caller's until it is released. Throws std::bad_alloc when the
  // kernel refuses a mapping.
  std::uint8_t* acquire(std::size_t bytes);
  // Returns a block that acquire() handed out.
  void release(std::uint8_t* block);

  Stats stats() const;

 private:
  struct Block {
    std::uint8_t* data;
    std::size_t size;
  };

  // Sorted vectors with room for every block (acquire() grows them),
  // not node-based maps, which would allocate on every call.
  mutable std::mutex mu_;
  std::vector<Block> free_;  // by size
  std::vector<Block> out_;   // by address
  Stats stats_;
};

}  // namespace cts
