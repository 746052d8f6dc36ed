#include "keyvalue/recordio.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/check.h"

namespace cts {

namespace {

// Buckets this small are cheaper to insertion-sort than to count.
constexpr std::ptrdiff_t kInsertionSortMax = 32;

void InsertionSort(Record* first, Record* last) {
  if (last - first < 2) return;
  for (Record* i = first + 1; i != last; ++i) {
    if (!RecordLess(*i, i[-1])) continue;
    const Record held = *i;
    Record* j = i;
    do {
      *j = j[-1];
      --j;
    } while (j != first && RecordLess(held, j[-1]));
    *j = held;
  }
}

// Sorts [first, last), whose records all share key bytes [0, byte).
void RadixSortFrom(Record* first, Record* last, std::size_t byte) {
  const std::ptrdiff_t n = last - first;
  if (n <= kInsertionSortMax) return InsertionSort(first, last);
  std::array<std::ptrdiff_t, 256> count;
  for (;; ++byte) {
    if (byte == kKeyBytes) return std::sort(first, last, RecordLess);
    count.fill(0);
    for (const Record* rec = first; rec != last; ++rec) {
      ++count[rec->key[byte]];
    }
    // A byte that every record shares splits nothing: try the next.
    if (count[first->key[byte]] != n) break;
  }

  // One bucket per value of the key byte: next unplaced slot and end.
  struct Bucket {
    Record* next;
    Record* end;
  };
  std::array<Bucket, 256> buckets;
  Record* start = first;
  for (std::size_t b = 0; b < 256; ++b) {
    buckets[b] = {start, start + count[b]};
    start += count[b];
  }

  // Fill each bucket in turn. A misplaced record is held and swapped
  // into the next free slot of its own bucket until the record that
  // comes back belongs to the bucket being filled.
  for (std::size_t b = 0; b < 256; ++b) {
    Bucket& bucket = buckets[b];
    while (bucket.next != bucket.end) {
      if (bucket.next->key[byte] == b) {
        ++bucket.next;
        continue;
      }
      Record held = *bucket.next;
      do {
        std::swap(held, *buckets[held.key[byte]].next++);
      } while (held.key[byte] != b);
      *bucket.next++ = held;
    }
  }

  start = first;
  for (const Bucket& bucket : buckets) {
    if (bucket.end - start > 1) RadixSortFrom(start, bucket.end, byte + 1);
    start = bucket.end;
  }
}

}  // namespace

std::span<std::uint8_t> AppendPackedSlots(Buffer& out, std::size_t n) {
  // A fresh buffer is allocated once, at its final size; appending to
  // a used one keeps the vector's geometric growth.
  if (out.empty()) out.reserve(PackedSize(n));
  out.write_u64(n);
  return out.append_unfilled(n * kRecordBytes);
}

std::size_t PackRecords(std::span<const Record> records, Buffer& out) {
  const std::span<std::uint8_t> slots = AppendPackedSlots(out, records.size());
  if (!slots.empty()) std::memcpy(slots.data(), records.data(), slots.size());
  return PackedSize(records.size());
}

std::vector<Record> UnpackRecords(Buffer& in) {
  std::vector<Record> out;
  UnpackRecordsInto(in, out);
  return out;
}

void UnpackRecordsInto(Buffer& in, std::vector<Record>& out) {
  const std::uint64_t n = in.read_u64();
  CTS_CHECK_MSG(n <= in.remaining() / kRecordBytes,
                "truncated record list: " << n << " records but only "
                                          << in.remaining() << " bytes");
  // Each record is written once, at the end of `out`: no zero-filled
  // slots to overwrite. Growth stays geometric for callers that did not
  // size `out` beforehand.
  if (out.capacity() - out.size() < n) {
    out.reserve(std::max<std::size_t>(out.size() + n, 2 * out.size()));
  }
  const std::uint8_t* at = in.read_view(n * kRecordBytes).data();
  for (std::uint64_t i = 0; i < n; ++i, at += kRecordBytes) {
    Record rec;
    std::memcpy(&rec, at, kRecordBytes);
    out.push_back(rec);
  }
}

void SortRecords(std::span<Record> records) {
  RadixSortFrom(records.data(), records.data() + records.size(), 0);
}

bool IsSorted(std::span<const Record> records) {
  return std::is_sorted(records.begin(), records.end(), RecordLess);
}

bool IsSortedPermutationOf(std::span<const Record> input,
                           std::span<const Record> sorted) {
  if (input.size() != sorted.size()) return false;
  if (!IsSorted(sorted)) return false;
  std::vector<Record> expected(input.begin(), input.end());
  std::sort(expected.begin(), expected.end(), RecordLess);
  return std::equal(expected.begin(), expected.end(), sorted.begin(),
                    sorted.end());
}

}  // namespace cts
