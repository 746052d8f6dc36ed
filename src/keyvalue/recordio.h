// Record serialization (the Pack/Unpack stages).
//
// The paper's TeraSort implementation adds explicit Pack/Unpack stages:
// Pack serializes each intermediate value into one contiguous memory
// array so a single TCP flow carries it (one MPI_Send per intermediate
// value), and Unpack deserializes received bytes back into a KV list.
// The wire format is a u64 record count followed by the flat 100-byte
// records.
#pragma once

#include <span>
#include <vector>

#include "common/buffer.h"
#include "keyvalue/record.h"

namespace cts {

// Appends one packed list of n records to `out`: the count is
// written, and the n record slots that follow are returned for the
// caller to fill. The slots are not zeroed (a recycled block may still
// hold another job's bytes), so the caller must write every byte of
// every one of them before `out` is read or sent. The wire layout is
// known here and nowhere else.
std::span<std::uint8_t> AppendPackedSlots(Buffer& out, std::size_t n);

// Serializes records into `out` (appending). Returns bytes written.
std::size_t PackRecords(std::span<const Record> records, Buffer& out);

// Deserializes one packed record list from `in`'s cursor.
std::vector<Record> UnpackRecords(Buffer& in);

// Appends one packed record list from `in`'s cursor into `out`
// (avoids an intermediate vector when merging many shuffle payloads).
// Each record is copied once; `out` is not zero-filled first.
void UnpackRecordsInto(Buffer& in, std::vector<Record>& out);

// Size in bytes that PackRecords will produce for n records.
inline std::size_t PackedSize(std::size_t n) {
  return sizeof(std::uint64_t) + n * kRecordBytes;
}

// The most records a packed list of `bytes` bytes can hold (the
// inverse of PackedSize), for sizing a destination before unpacking.
inline std::size_t MaxPackedRecords(std::size_t bytes) {
  return bytes > sizeof(std::uint64_t)
             ? (bytes - sizeof(std::uint64_t)) / kRecordBytes
             : 0;
}

// Sorts records by RecordLess in place (the Reduce stage). An
// American-flag MSD radix sort over key bytes 0..9: each level counts
// 256 buckets and permutes the records by cycle-following, a level
// where every record shares the byte is skipped, buckets of at most 32
// records are insertion-sorted, and a bucket whose ten key bytes are
// all equal falls back to std::sort for the value tiebreak. No heap
// allocation; recursion is at most kKeyBytes deep. RecordLess orders
// by all 100 bytes, so the result equals std::sort's exactly.
void SortRecords(std::span<Record> records);

// ---- Validation helpers (used by tests and examples) ----

// True iff records are sorted by RecordLess.
bool IsSorted(std::span<const Record> records);

// True iff `sorted` is a permutation of `input` and sorted. Both
// arguments are copied and canonicalized internally; sizes up to a few
// million records are fine.
bool IsSortedPermutationOf(std::span<const Record> input,
                           std::span<const Record> sorted);

}  // namespace cts
