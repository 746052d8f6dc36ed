// Byte buffer with cursored reads/writes, used for intermediate-value
// serialization (the Pack/Unpack stages of TeraSort and the packet
// framing of CodedTeraSort).
//
// The layout written by the Writer methods is little-endian and
// self-describing only to the extent callers make it so; the terasort
// and coding modules define explicit wire formats on top of this.
//
// Storage: a Buffer owns one block of bytes. A block of
// BlockCache::kMinBytes (256 KiB) or more comes from the process-wide
// BlockCache, so the packed lists, intermediate values, coded packets
// and shared multicast payloads of a live job reuse the pages that the
// previous job touched; a smaller block comes from operator new.
// Capacity grows as std::vector's does (reserve is exact, appends at
// least double). resize zero-fills what it adds; append_unfilled adds
// bytes of unspecified value, which its caller must overwrite (a
// recycled block still holds the bytes of a previous job). A
// std::vector crosses that boundary by copy: the vector constructor
// and take().
//
// Shared payloads: Share() turns a buffer's bytes into one read-only
// block that several Buffers hold at once (a multicast root and all
// its recipients). Reads of a shared buffer happen in place. Any
// mutation — write_*, reserve, resize, mutable_span, non-const data()
// and take() — first gives that holder a private copy, so no holder
// ever observes another's writes. An owned buffer never allocates or
// copies for the shared case.
//
// BufferArena, at the end of this file, is kept only for ctbench's
// transport pass and the simmpi/arena_hits and simmpi/arena_misses
// counters it reports; no Buffer's storage comes from it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace cts {

// Growable byte array with an explicit read cursor. Writes always
// append; reads consume from the cursor. A Buffer is cheap to move and
// deliberately not copyable implicitly (use Clone()) so accidental
// copies of multi-megabyte shuffle payloads show up in review.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::vector<std::uint8_t> bytes)
      : bytes_(Storage::Copy(bytes)) {}

  Buffer(Buffer&&) noexcept = default;
  Buffer& operator=(Buffer&&) noexcept = default;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  // Explicit deep copy (always owned, even of a shared buffer).
  Buffer Clone() const {
    Buffer b;
    b.bytes_ = Storage::Copy(bytes());
    b.cursor_ = cursor_;
    return b;
  }

  // Makes this buffer's bytes a shared, read-only payload (once) and
  // returns one more holder of it, reading from the start. This
  // buffer keeps its cursor.
  Buffer Share() {
    if (!shared_) shared_ = std::make_shared<const Storage>(std::move(bytes_));
    Buffer holder;
    holder.shared_ = shared_;
    return holder;
  }

  std::size_t size() const { return bytes().size(); }
  bool empty() const { return bytes().empty(); }
  const std::uint8_t* data() const { return bytes().data(); }
  std::uint8_t* data() { return own().data(); }
  std::span<const std::uint8_t> span() const { return bytes(); }
  std::span<std::uint8_t> mutable_span() {
    Storage& bytes = own();
    return {bytes.data(), bytes.size()};
  }

  void reserve(std::size_t n) { own().reserve(n); }
  void clear() {
    shared_.reset();
    bytes_.clear();
    cursor_ = 0;
  }
  void resize(std::size_t n) { own().resize(n); }
  // Appends n bytes without zero-filling them and returns them: every
  // one must be written before the buffer is read or sent.
  std::span<std::uint8_t> append_unfilled(std::size_t n) {
    return {own().extend(n), n};
  }

  // ---- Writing (appends at the end) ----

  void write_bytes(std::span<const std::uint8_t> src) { own().append(src); }

  void write_u8(std::uint8_t v) { own().append({&v, 1}); }

  void write_u32(std::uint32_t v) { write_le(v); }
  void write_u64(std::uint64_t v) { write_le(v); }
  void write_i32(std::int32_t v) { write_le(static_cast<std::uint32_t>(v)); }

  // Length-prefixed string.
  void write_string(const std::string& s) {
    write_u64(s.size());
    write_bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }

  // ---- Reading (consumes from the cursor) ----

  std::size_t remaining() const { return size() - cursor_; }
  std::size_t cursor() const { return cursor_; }
  void rewind() { cursor_ = 0; }
  void seek(std::size_t pos) {
    CTS_CHECK_LE(pos, size());
    cursor_ = pos;
  }

  // Zero-copy view of the next n bytes; the view is invalidated by any
  // mutation of the buffer.
  std::span<const std::uint8_t> read_view(std::size_t n) {
    CTS_CHECK_LE(n, remaining());
    std::span<const std::uint8_t> v(bytes().data() + cursor_, n);
    cursor_ += n;
    return v;
  }

  std::uint8_t read_u8() {
    CTS_CHECK_GE(remaining(), std::size_t{1});
    return bytes()[cursor_++];
  }

  std::uint32_t read_u32() { return read_le<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_le<std::uint64_t>(); }
  std::int32_t read_i32() {
    return static_cast<std::int32_t>(read_le<std::uint32_t>());
  }

  std::string read_string() {
    const std::size_t n = read_u64();
    CTS_CHECK_LE(n, remaining());
    std::string s(reinterpret_cast<const char*>(bytes().data() + cursor_),
                  n);
    cursor_ += n;
    return s;
  }

  // Steals the buffer's bytes as a vector (a copy out of its storage)
  // and resets the buffer. A shared buffer hands over a copy; the other
  // holders keep theirs.
  std::vector<std::uint8_t> take() {
    const std::span<const std::uint8_t> b = bytes();
    std::vector<std::uint8_t> out(b.begin(), b.end());
    shared_.reset();
    bytes_ = Storage();
    cursor_ = 0;
    return out;
  }

  bool operator==(const Buffer& other) const {
    return std::ranges::equal(bytes(), other.bytes());
  }

 private:
  // One owned block and how much of it is in use. Blocks of
  // BlockCache::kMinBytes or more come from the process-wide cache,
  // smaller ones from operator new.
  class Storage {
   public:
    Storage() = default;
    Storage(Storage&& other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0)),
          capacity_(std::exchange(other.capacity_, 0)) {}
    Storage& operator=(Storage&& other) noexcept {
      if (this != &other) {
        Free(data_, capacity_);
        data_ = std::exchange(other.data_, nullptr);
        size_ = std::exchange(other.size_, 0);
        capacity_ = std::exchange(other.capacity_, 0);
      }
      return *this;
    }
    Storage(const Storage&) = delete;
    Storage& operator=(const Storage&) = delete;
    ~Storage() { Free(data_, capacity_); }

    // A copy of `bytes`, with no spare capacity.
    static Storage Copy(std::span<const std::uint8_t> bytes) {
      Storage s;
      s.append(bytes);
      return s;
    }

    std::uint8_t* data() { return data_; }
    std::span<const std::uint8_t> span() const { return {data_, size_}; }
    std::size_t size() const { return size_; }

    void reserve(std::size_t n) {
      if (n > capacity_) Grow(n, {});
    }
    void resize(std::size_t n) {
      if (n <= size_) {
        size_ = n;
        return;
      }
      const std::size_t added = n - size_;
      std::memset(extend(added), 0, added);
    }
    // Grows the bytes in use by n, unfilled, and returns the first.
    std::uint8_t* extend(std::size_t n) {
      if (n > capacity_ - size_) Grow(std::max(size_ + n, 2 * capacity_), {});
      std::uint8_t* added = data_ + size_;
      size_ += n;
      return added;
    }
    // Appends `src`, which may lie inside this storage.
    void append(std::span<const std::uint8_t> src) {
      if (src.empty()) return;
      if (src.size() > capacity_ - size_) {
        Grow(std::max(size_ + src.size(), 2 * capacity_), src);
      } else {
        std::memcpy(data_ + size_, src.data(), src.size());
      }
      size_ += src.size();
    }
    void clear() { size_ = 0; }

   private:
    // Out of line (buffer.cc): these are the cold paths, and inlined
    // into a caller's small write GCC 12's -Wstringop-overflow misreads
    // Grow's copies under -O3.
    static void Free(std::uint8_t* block, std::size_t capacity);
    // Moves the bytes in use into a block of `capacity` bytes, then
    // copies `tail` after them, before the old block is freed.
    void Grow(std::size_t capacity, std::span<const std::uint8_t> tail);

    std::uint8_t* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
  };

  // The bytes this buffer reads: its own, or the shared payload.
  std::span<const std::uint8_t> bytes() const {
    return shared_ ? shared_->span() : bytes_.span();
  }

  // The storage this buffer may write, copied out of a shared payload
  // first.
  Storage& own() {
    if (shared_) {
      bytes_ = Storage::Copy(shared_->span());
      shared_.reset();
    }
    return bytes_;
  }

  template <typename T>
  void write_le(T v) {
    std::uint8_t le[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    own().append(le);
  }

  template <typename T>
  T read_le() {
    CTS_CHECK_GE(remaining(), sizeof(T));
    const std::uint8_t* at = bytes().data() + cursor_;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(at[i]) << (8 * i);
    }
    cursor_ += sizeof(T);
    return v;
  }

  Storage bytes_;
  // Non-null while this buffer holds a shared payload (bytes_ is then
  // empty).
  std::shared_ptr<const Storage> shared_;
  std::size_t cursor_ = 0;
};

// Thread-local free list of payload byte vectors, kept for ctbench's
// transport pass and its counters. Every copying send (Comm's span and
// const Buffer& send/isend) makes one acquire, which counts a hit or a
// miss (simmpi/arena_hits, simmpi/arena_misses); the copy itself lives
// in the Buffer's own storage. Only a consumer that hands a vector
// back with release() makes later acquires hit: ctbench's transport
// pass does, nothing in src/ does. The pool is per-thread and
// lock-free.
class BufferArena {
 public:
  // The calling thread's arena.
  static BufferArena& Local() {
    thread_local BufferArena arena;
    return arena;
  }

  // An empty vector with capacity >= capacity_hint, reusing a pooled
  // backing store when one is available.
  std::vector<std::uint8_t> acquire(std::size_t capacity_hint) {
    std::vector<std::uint8_t> v;
    if (!pool_.empty()) {
      v = std::move(pool_.back());
      pool_.pop_back();
      v.clear();
      ++hits_;
    } else {
      ++misses_;
    }
    v.reserve(capacity_hint);
    return v;
  }

  // Returns a backing store to the pool. Bounded in count and per-entry
  // capacity so a burst of jumbo payloads cannot pin memory forever.
  void release(std::vector<std::uint8_t> bytes) {
    if (pool_.size() >= kMaxPooled || bytes.capacity() > kMaxPooledCapacity) {
      return;  // drop: freed by the vector destructor
    }
    pool_.push_back(std::move(bytes));
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  static constexpr std::size_t kMaxPooled = 256;
  static constexpr std::size_t kMaxPooledCapacity = std::size_t{8} << 20;

  std::vector<std::vector<std::uint8_t>> pool_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace cts
