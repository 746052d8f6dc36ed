// Byte buffer with cursored reads/writes, used for intermediate-value
// serialization (the Pack/Unpack stages of TeraSort and the packet
// framing of CodedTeraSort).
//
// The layout written by the Writer methods is little-endian and
// self-describing only to the extent callers make it so; the terasort
// and coding modules define explicit wire formats on top of this.
//
// Shared payloads: Share() turns a buffer's bytes into one read-only
// block that several Buffers hold at once (a multicast root and all
// its recipients). Reads of a shared buffer happen in place. Any
// mutation — write_*, reserve, resize, mutable_span, non-const data()
// and take() — first gives that holder a private copy, so no holder
// ever observes another's writes. An owned buffer never allocates or
// copies for the shared case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
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
      : bytes_(std::move(bytes)) {}

  Buffer(Buffer&&) noexcept = default;
  Buffer& operator=(Buffer&&) noexcept = default;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  // Explicit deep copy (always owned, even of a shared buffer).
  Buffer Clone() const {
    Buffer b(bytes());
    b.cursor_ = cursor_;
    return b;
  }

  // Makes this buffer's bytes a shared, read-only payload (once) and
  // returns one more holder of it, reading from the start. This
  // buffer keeps its cursor.
  Buffer Share() {
    if (!shared_) {
      shared_ = std::make_shared<const std::vector<std::uint8_t>>(
          std::move(bytes_));
      bytes_ = {};
    }
    Buffer holder;
    holder.shared_ = shared_;
    return holder;
  }

  std::size_t size() const { return bytes().size(); }
  bool empty() const { return bytes().empty(); }
  const std::uint8_t* data() const { return bytes().data(); }
  std::uint8_t* data() { return own().data(); }
  std::span<const std::uint8_t> span() const { return bytes(); }
  std::span<std::uint8_t> mutable_span() { return own(); }

  void reserve(std::size_t n) { own().reserve(n); }
  void clear() {
    shared_.reset();
    bytes_.clear();
    cursor_ = 0;
  }
  void resize(std::size_t n) { own().resize(n); }

  // ---- Writing (appends at the end) ----

  void write_bytes(std::span<const std::uint8_t> src) {
    std::vector<std::uint8_t>& bytes = own();
    bytes.insert(bytes.end(), src.begin(), src.end());
  }

  void write_u8(std::uint8_t v) { own().push_back(v); }

  void write_u32(std::uint32_t v) { write_le(v); }
  void write_u64(std::uint64_t v) { write_le(v); }
  void write_i32(std::int32_t v) { write_le(static_cast<std::uint32_t>(v)); }
  void write_i64(std::int64_t v) { write_le(static_cast<std::uint64_t>(v)); }
  void write_f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    write_le(bits);
  }

  // Length-prefixed string / blob.
  void write_string(const std::string& s) {
    write_u64(s.size());
    write_bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }
  void write_blob(std::span<const std::uint8_t> b) {
    write_u64(b.size());
    write_bytes(b);
  }

  // ---- Reading (consumes from the cursor) ----

  std::size_t remaining() const { return size() - cursor_; }
  std::size_t cursor() const { return cursor_; }
  void rewind() { cursor_ = 0; }
  void seek(std::size_t pos) {
    CTS_CHECK_LE(pos, size());
    cursor_ = pos;
  }

  void read_bytes(std::span<std::uint8_t> dst) {
    CTS_CHECK_MSG(dst.size() <= remaining(),
                  "buffer underrun: want " << dst.size() << " have "
                                           << remaining());
    std::memcpy(dst.data(), bytes().data() + cursor_, dst.size());
    cursor_ += dst.size();
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
  std::int64_t read_i64() {
    return static_cast<std::int64_t>(read_le<std::uint64_t>());
  }
  double read_f64() {
    std::uint64_t bits = read_le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string read_string() {
    const std::size_t n = read_u64();
    CTS_CHECK_LE(n, remaining());
    std::string s(reinterpret_cast<const char*>(bytes().data() + cursor_),
                  n);
    cursor_ += n;
    return s;
  }
  std::vector<std::uint8_t> read_blob() {
    const std::size_t n = read_u64();
    CTS_CHECK_LE(n, remaining());
    const std::uint8_t* first = bytes().data() + cursor_;
    std::vector<std::uint8_t> b(first, first + n);
    cursor_ += n;
    return b;
  }

  // Steals the underlying byte vector (resets the buffer). A shared
  // buffer hands over a copy; the other holders keep theirs.
  std::vector<std::uint8_t> take() {
    cursor_ = 0;
    return std::move(own());
  }

  bool operator==(const Buffer& other) const {
    return bytes() == other.bytes();
  }

 private:
  // The bytes this buffer reads: its own, or the shared payload.
  const std::vector<std::uint8_t>& bytes() const {
    return shared_ ? *shared_ : bytes_;
  }

  // The bytes this buffer may write, copied out of a shared payload
  // first.
  std::vector<std::uint8_t>& own() {
    if (shared_) {
      bytes_ = *shared_;
      shared_.reset();
    }
    return bytes_;
  }

  template <typename T>
  void write_le(T v) {
    std::vector<std::uint8_t>& bytes = own();
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
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

  std::vector<std::uint8_t> bytes_;
  // Non-null while this buffer holds a shared payload (bytes_ is then
  // empty).
  std::shared_ptr<const std::vector<std::uint8_t>> shared_;
  std::size_t cursor_ = 0;
};

// Thread-local free list of payload byte vectors for copying sends.
// At K~100 every message sent from a buffer the caller keeps
// allocates a payload copy (Comm's copying send/isend) that the
// receiver frees right after consuming it; recycling the backing
// vectors removes that churn. The pool is per-thread and lock-free: a
// node thread both sends (acquire) and receives (release) in roughly
// equal measure during a shuffle, so the pools balance without
// cross-thread traffic. Multicast no longer copies through the arena:
// Comm::bcast shares one payload with every recipient.
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
