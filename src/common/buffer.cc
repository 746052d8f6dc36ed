#include "common/buffer.h"

#include <new>

#include "common/block_cache.h"

namespace cts {

void Buffer::Storage::Free(std::uint8_t* block, std::size_t capacity) {
  if (block == nullptr) return;
  if (capacity >= BlockCache::kMinBytes) {
    BlockCache::Global().release(block);
  } else {
    ::operator delete(block, capacity);
  }
}

void Buffer::Storage::Grow(std::size_t capacity,
                           std::span<const std::uint8_t> tail) {
  std::uint8_t* block =
      capacity >= BlockCache::kMinBytes
          ? BlockCache::Global().acquire(capacity)
          : static_cast<std::uint8_t*>(::operator new(capacity));
  if (size_ > 0) std::memcpy(block, data_, size_);
  if (!tail.empty()) std::memcpy(block + size_, tail.data(), tail.size());
  Free(data_, capacity_);
  data_ = block;
  capacity_ = capacity;
}

}  // namespace cts
