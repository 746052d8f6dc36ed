#include "simulate/simulate.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "coding/placement.h"
#include "coding/segments.h"
#include "combinatorics/subsets.h"
#include "common/check.h"
#include "driver/partition_util.h"
#include "keyvalue/recordio.h"
#include "keyvalue/teragen.h"

namespace cts::simulate {

namespace {

using I128 = __int128;

constexpr std::uint64_t kU64Max = ~std::uint64_t{0};

SynthesisResult Err(std::string message) {
  SynthesisResult r;
  r.error = std::move(message);
  return r;
}

std::string OverflowMessage(int K, int r, const char* what) {
  std::ostringstream os;
  os << what << " overflows 64 bits at K=" << K << ", r=" << r
     << " — reduce r (or K) until the placement arithmetic fits";
  return os.str();
}

// Narrows a signed 128-bit accumulator into the u64 counter a live run
// would have held; false when the exact value cannot fit (a scale no
// execution could reach either).
bool Narrow(I128 v, std::uint64_t* out) {
  if (v < 0 || v > static_cast<I128>(kU64Max)) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

// The file owning record `i` under SplitRange(total, num_files, ·):
// the first total % num_files files hold one extra record.
std::uint64_t FileOfRecord(std::uint64_t i, std::uint64_t total,
                           std::uint64_t num_files) {
  const std::uint64_t base = total / num_files;
  const std::uint64_t extra = total % num_files;
  if (base == 0) return i;
  const std::uint64_t boundary = extra * (base + 1);
  return i < boundary ? i / (base + 1) : extra + (i - boundary) / base;
}

// Shared input-side checks; builds the coordinator-style partitioner.
SynthesisResult CheckedPartitioner(const SortConfig& config,
                                   std::unique_ptr<Partitioner>* out) {
  if (config.num_nodes < 1) return Err("num_nodes must be >= 1");
  if (config.partitioner == PartitionerKind::kDistributedSampled) {
    return Err(
        "kDistributedSampled derives its splitters from a live "
        "collective; the simulated backend supports kRange and "
        "kSampled");
  }
  *out = MakePartitioner(config);
  CTS_CHECK_EQ((*out)->num_partitions(), config.num_nodes);
  return SynthesisResult{};
}

std::shared_ptr<AlgorithmResult> NewRun(const SortConfig& config,
                                        const char* algorithm) {
  auto run = std::make_shared<AlgorithmResult>();
  run->config = config;
  run->algorithm = algorithm;
  run->work.resize(static_cast<std::size_t>(config.num_nodes));
  return run;
}

// ---- TeraSort ----
//
// Mask-free like the live engine (terasort.cc): node k maps the k-th
// SplitRange slice, hashes it over the partitioner, and unicasts one
// packed list to every other node. Everything follows from the K x K
// histogram n[k][j] = records of node k's slice landing in partition j.
SynthesisResult SynthesizeTeraSort(SortConfig config) {
  config.redundancy = 1;  // RunTeraSort reports the degenerate placement
  std::unique_ptr<Partitioner> partitioner;
  if (SynthesisResult bad = CheckedPartitioner(config, &partitioner);
      !bad.ok()) {
    return bad;
  }
  const int K = config.num_nodes;
  const auto ku = static_cast<std::uint64_t>(K);
  const TeraGen gen(config.seed, config.distribution);

  std::vector<std::vector<std::uint64_t>> hist(
      static_cast<std::size_t>(K),
      std::vector<std::uint64_t>(static_cast<std::size_t>(K), 0));
  for (int k = 0; k < K; ++k) {
    const RecordRange range =
        SplitRange(config.num_records, ku, static_cast<std::uint64_t>(k));
    for (std::uint64_t i = range.offset; i < range.offset + range.count;
         ++i) {
      const PartitionId p = partitioner->partition(gen.key(i));
      ++hist[static_cast<std::size_t>(k)][static_cast<std::size_t>(p)];
    }
  }

  auto run = NewRun(config, "TeraSort");
  simmpi::ChannelCounters shuffle;
  std::vector<simmpi::NodeTraffic> nodes(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) {
    auto& work = run->work[static_cast<std::size_t>(k)];
    const RecordRange range =
        SplitRange(config.num_records, ku, static_cast<std::uint64_t>(k));
    work.map_bytes = range.count * kRecordBytes;
    work.map_files = 1;
    for (int j = 0; j < K; ++j) {
      if (j == k) continue;
      const std::uint64_t bytes =
          PackedSize(hist[static_cast<std::size_t>(k)]
                         [static_cast<std::size_t>(j)]);
      work.pack_bytes += bytes;
      ++shuffle.unicast_msgs;
      shuffle.unicast_bytes += bytes;
      nodes[static_cast<std::size_t>(k)].tx_bytes += bytes;
      nodes[static_cast<std::size_t>(j)].rx_bytes += bytes;
    }
  }
  for (int j = 0; j < K; ++j) {
    auto& work = run->work[static_cast<std::size_t>(j)];
    work.unpack_bytes = nodes[static_cast<std::size_t>(j)].rx_bytes;
    std::uint64_t owned = 0;
    for (int k = 0; k < K; ++k) {
      owned += hist[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)];
    }
    work.reduce_bytes = owned * kRecordBytes;
  }
  run->traffic[stage::kShuffle] = shuffle;
  if (shuffle.unicast_msgs > 0) run->shuffle_node_traffic = std::move(nodes);
  run->stage_order = {stage::kMap, stage::kPack, stage::kShuffle,
                      stage::kUnpack, stage::kReduce};
  SynthesisResult result;
  result.run = std::move(run);
  return result;
}

// ---- CodedTeraSort ----
//
// Per-node accumulators for the coded path, signed 128-bit so the
// closed-form baseline (added first) and the per-dirty-group
// corrections (exact minus baseline, either sign) compose without
// intermediate overflow; narrowed to the live run's u64 counters at
// the end.
struct CodedAcc {
  I128 encode_xor = 0;
  I128 encode_payload = 0;
  I128 decode_xor = 0;
  I128 decoded = 0;
  I128 tx = 0;
  I128 rx = 0;
};

// One dirty-group contribution: `count` records of file g \ {g[slot]}
// hash to partition g[slot], where g is the group with colex rank
// `group` whose ascending members start at `offset` of the flat member
// array.
struct Contribution {
  std::uint64_t group = 0;
  std::size_t offset = 0;
  int slot = 0;
  std::uint64_t count = 0;
};

// The binomial table holds (K + 1) x (r + 2) entries; past this many
// (128 MiB) the spec is far outside the K ~ 1000, small-r regime the
// synthesizer targets and is refused up front.
constexpr std::uint64_t kMaxTableEntries = std::uint64_t{1} << 24;

SynthesisResult SynthesizeCoded(const SortConfig& config) {
  const int K = config.num_nodes;
  const int r = config.redundancy;
  if (K < 1) return Err("num_nodes must be >= 1");
  if (r < 1 || r > K) {
    return Err("redundancy must satisfy 1 <= r <= K for CodedTeraSort");
  }
  if ((static_cast<std::uint64_t>(K) + 1) *
          (static_cast<std::uint64_t>(r) + 2) >
      kMaxTableEntries) {
    std::ostringstream os;
    os << "K=" << K << ", r=" << r << " needs a binomial table past "
       << kMaxTableEntries << " entries — reduce r (or K)";
    return Err(os.str());
  }
  // Every binomial below reads this table: the file and group counts,
  // the baseline counts and the group ranks.
  const BinomialTable C(K, r + 1);
  const std::uint64_t num_files = C(K, r);
  if (num_files == kU64Max) {
    return Err(OverflowMessage(K, r, "the file count C(K, r)"));
  }
  const std::uint64_t files_per_node = C(K - 1, r - 1);
  std::uint64_t num_groups = 0;       // C(K, r+1), 0 when r == K
  std::uint64_t groups_per_node = 0;  // C(K-1, r)
  if (r < K) {
    num_groups = C(K, r + 1);
    if (num_groups == kU64Max) {
      return Err(OverflowMessage(K, r, "the group count C(K, r+1)"));
    }
    groups_per_node = C(K - 1, r);
  }
  std::unique_ptr<Partitioner> partitioner;
  if (SynthesisResult bad = CheckedPartitioner(config, &partitioner);
      !bad.ok()) {
    return bad;
  }
  const TeraGen gen(config.seed, config.distribution);

  // Closed forms of one group slot, all files empty. A group member at
  // ascending index q sees its q smaller co-members at segment
  // position q-1 of their target files and the r-q larger ones at
  // position q (removing a smaller node shifts this node's index down
  // by one). s8[p] is one segment of an empty packed value.
  const std::uint64_t empty_packed = PackedSize(0);
  std::vector<std::uint64_t> s8(static_cast<std::size_t>(r));
  for (int p = 0; p < r; ++p) {
    s8[static_cast<std::size_t>(p)] = SegmentOf(empty_packed, r, p).length;
  }
  const int slots = r + 1;
  std::vector<std::uint64_t> e8(static_cast<std::size_t>(slots));
  std::vector<std::uint64_t> p8(static_cast<std::size_t>(slots));
  std::vector<std::uint64_t> wire8(static_cast<std::size_t>(slots));
  std::uint64_t wire8_sum = 0;
  const std::uint64_t header =  // CodedPacket wire minus payload:
      4 + 8 * static_cast<std::uint64_t>(r) + 8;
  for (int q = 0; q < slots; ++q) {
    const std::uint64_t below =
        q > 0 ? s8[static_cast<std::size_t>(q - 1)] : 0;
    const std::uint64_t above = q < r ? s8[static_cast<std::size_t>(q)] : 0;
    e8[static_cast<std::size_t>(q)] =
        static_cast<std::uint64_t>(q) * below +
        static_cast<std::uint64_t>(r - q) * above;
    p8[static_cast<std::size_t>(q)] = std::max(below, above);
    wire8[static_cast<std::size_t>(q)] =
        header + p8[static_cast<std::size_t>(q)];
    wire8_sum += wire8[static_cast<std::size_t>(q)];
  }

  // Baseline: node k sits at slot q in C(k, q) * C(K-1-k, r-q) groups.
  std::vector<CodedAcc> acc(static_cast<std::size_t>(K));
  if (r < K) {
    for (int k = 0; k < K; ++k) {
      CodedAcc& a = acc[static_cast<std::size_t>(k)];
      for (int q = 0; q < slots; ++q) {
        const std::uint64_t choose_below = C(k, q);
        const std::uint64_t choose_above = C(K - 1 - k, r - q);
        if (choose_below == 0 || choose_above == 0) {
          continue;  // no group puts k at slot q
        }
        // Both factors nonzero: their product is bounded by
        // C(K-1, r), which fits (groups_per_node above), so neither
        // factor can have saturated.
        CTS_CHECK(choose_below != kU64Max && choose_above != kU64Max);
        const I128 cnt = static_cast<I128>(choose_below) * choose_above;
        a.encode_xor += cnt * e8[static_cast<std::size_t>(q)];
        a.encode_payload += cnt * p8[static_cast<std::size_t>(q)];
        // Per slot, decode cancels everything the co-members' packets
        // carry for other targets: sum of their values minus what this
        // node XORed in at encode time.
        a.decode_xor +=
            cnt * (static_cast<std::uint64_t>(r) * empty_packed -
                   e8[static_cast<std::size_t>(q)]);
        a.tx += cnt * wire8[static_cast<std::size_t>(q)];
        a.rx += cnt * (wire8_sum - wire8[static_cast<std::size_t>(q)]);
      }
      a.decoded = static_cast<I128>(empty_packed) * groups_per_node;
    }
  }

  // Stream the input once. Each record lands in exactly one file
  // (FileOfRecord) and one partition; only the (file, partition) cells
  // with the partition OUTSIDE the file's node set shape the coding
  // (inside, the record either goes straight to its owner's reduce
  // pool or is a discarded duplicate), so only those become sparse
  // state. Everything else folds into per-node scalars here.
  //
  // FileOfRecord steps through files 0, 1, 2, ... at most one per
  // record, so one file is open at a time: `members` is its ascending
  // node set (a colex successor step per file), `file_records` counts
  // its records and `outside[t]` its records in partition t, for the
  // targets listed in `touched`. Closing the file turns each nonzero
  // cell (S, t) into a contribution to dirty group S + {t}.
  std::vector<std::uint64_t> partition_records(static_cast<std::size_t>(K),
                                               0);
  std::vector<std::uint64_t> mapped_records(static_cast<std::size_t>(K), 0);
  std::vector<int> members(static_cast<std::size_t>(r));
  for (int j = 0; j < r; ++j) members[static_cast<std::size_t>(j)] = j;
  std::uint64_t open_file = 0;
  std::uint64_t file_records = 0;
  std::vector<std::uint64_t> outside(static_cast<std::size_t>(K), 0);
  std::vector<int> touched;
  std::vector<int> group_members;  // slots ascending ids per contribution
  std::vector<Contribution> contributions;
  const auto close_file = [&] {
    for (const int m : members) {
      mapped_records[static_cast<std::size_t>(m)] += file_records;
    }
    file_records = 0;
    for (const int t : touched) {
      const std::size_t offset = group_members.size();
      const auto split = std::upper_bound(members.begin(), members.end(), t);
      group_members.insert(group_members.end(), members.begin(), split);
      group_members.push_back(t);
      group_members.insert(group_members.end(), split, members.end());
      contributions.push_back(
          {ColexRankMembers(C, &group_members[offset], slots), offset,
           static_cast<int>(split - members.begin()),
           outside[static_cast<std::size_t>(t)]});
      outside[static_cast<std::size_t>(t)] = 0;
    }
    touched.clear();
  };
  for (std::uint64_t i = 0; i < config.num_records; ++i) {
    const std::uint64_t f = FileOfRecord(i, config.num_records, num_files);
    if (f != open_file) {
      CTS_CHECK_EQ(f, open_file + 1);
      close_file();
      ColexNextMembers(members.data(), r);
      open_file = f;
    }
    const PartitionId t = partitioner->partition(gen.key(i));
    ++partition_records[static_cast<std::size_t>(t)];
    ++file_records;
    if (!std::binary_search(members.begin(), members.end(), t) &&
        outside[static_cast<std::size_t>(t)]++ == 0) {
      touched.push_back(t);
    }
  }
  close_file();

  // Dirty groups: group S + {t} deviates from the all-empty baseline
  // exactly when some member's target value n[S][t] is nonzero, so the
  // contributions sorted by group rank list every dirty group once per
  // nonzero value: one run of equal ranks per group, at most
  // num_records of them. Per group, recompute every member's exact
  // encode/decode and wire contribution and replace the baseline slot
  // values. seg[j * r + p] is segment p of member j's incoming value;
  // an empty value's segments are the precomputed s8.
  std::sort(contributions.begin(), contributions.end(),
            [](const Contribution& a, const Contribution& b) {
              return a.group < b.group;
            });
  std::vector<std::uint64_t> incoming(static_cast<std::size_t>(slots));
  std::vector<std::uint64_t> value_len(static_cast<std::size_t>(slots));
  std::vector<std::uint64_t> seg(static_cast<std::size_t>(slots * r));
  std::vector<std::uint64_t> wire(static_cast<std::size_t>(slots));
  for (std::size_t run_begin = 0; run_begin < contributions.size();) {
    const Contribution& first = contributions[run_begin];
    const int* g = &group_members[first.offset];
    std::fill(incoming.begin(), incoming.end(), 0);
    std::size_t run_end = run_begin;
    for (; run_end < contributions.size() &&
           contributions[run_end].group == first.group;
         ++run_end) {
      incoming[static_cast<std::size_t>(contributions[run_end].slot)] =
          contributions[run_end].count;
    }
    run_begin = run_end;
    std::uint64_t len_sum = 0;
    for (int j = 0; j < slots; ++j) {
      const std::uint64_t n = incoming[static_cast<std::size_t>(j)];
      const std::uint64_t len = PackedSize(n);
      value_len[static_cast<std::size_t>(j)] = len;
      len_sum += len;
      std::uint64_t* row = &seg[static_cast<std::size_t>(j * r)];
      for (int p = 0; p < r; ++p) {
        row[p] = n == 0 ? s8[static_cast<std::size_t>(p)]
                        : SegmentOf(len, r, p).length;
      }
    }
    std::uint64_t wire_sum = 0;
    for (int q = 0; q < slots; ++q) {
      CodedAcc& a = acc[static_cast<std::size_t>(g[q])];
      std::uint64_t xor_bytes = 0;
      std::uint64_t payload = 0;
      for (int j = 0; j < slots; ++j) {
        if (j == q) continue;
        const int position = q - (j < q ? 1 : 0);
        const std::uint64_t len =
            seg[static_cast<std::size_t>(j * r + position)];
        xor_bytes += len;
        payload = std::max(payload, len);
      }
      wire[static_cast<std::size_t>(q)] = header + payload;
      wire_sum += wire[static_cast<std::size_t>(q)];
      a.encode_xor += static_cast<I128>(xor_bytes) -
                      e8[static_cast<std::size_t>(q)];
      a.encode_payload += static_cast<I128>(payload) -
                          p8[static_cast<std::size_t>(q)];
      a.decoded += static_cast<I128>(value_len[static_cast<std::size_t>(q)]) -
                   empty_packed;
      a.decode_xor +=
          (static_cast<I128>(len_sum) -
           value_len[static_cast<std::size_t>(q)] - xor_bytes) -
          (static_cast<I128>(static_cast<std::uint64_t>(r) * empty_packed) -
           e8[static_cast<std::size_t>(q)]);
      a.tx += static_cast<I128>(wire[static_cast<std::size_t>(q)]) -
              wire8[static_cast<std::size_t>(q)];
    }
    for (int q = 0; q < slots; ++q) {
      acc[static_cast<std::size_t>(g[q])].rx +=
          (static_cast<I128>(wire_sum) - wire[static_cast<std::size_t>(q)]) -
          (static_cast<I128>(wire8_sum) -
           wire8[static_cast<std::size_t>(q)]);
    }
  }

  // Assemble the run.
  auto run = NewRun(config, "CodedTeraSort");
  std::vector<simmpi::NodeTraffic> nodes(static_cast<std::size_t>(K));
  I128 mcast_bytes = 0;
  const auto overflow = [&] {
    return Err(OverflowMessage(K, r, "a 64-bit traffic counter"));
  };
  for (int k = 0; k < K; ++k) {
    const CodedAcc& a = acc[static_cast<std::size_t>(k)];
    auto& work = run->work[static_cast<std::size_t>(k)];
    work.map_bytes = mapped_records[static_cast<std::size_t>(k)] *
                     kRecordBytes;
    work.map_files = files_per_node;
    work.reduce_bytes =
        partition_records[static_cast<std::size_t>(k)] * kRecordBytes;
    work.codec.packets_encoded = groups_per_node;
    work.codec.packets_decoded =
        static_cast<std::uint64_t>(r) * groups_per_node;
    if (!Narrow(a.encode_xor, &work.codec.encode_xor_bytes) ||
        !Narrow(a.encode_payload, &work.codec.encode_payload_bytes) ||
        !Narrow(a.decode_xor, &work.codec.decode_xor_bytes) ||
        !Narrow(a.decoded, &work.codec.decoded_bytes) ||
        !Narrow(a.tx, &nodes[static_cast<std::size_t>(k)].tx_bytes) ||
        !Narrow(a.rx, &nodes[static_cast<std::size_t>(k)].rx_bytes)) {
      return overflow();
    }
    mcast_bytes += a.tx;
  }
  simmpi::ChannelCounters shuffle;
  const I128 mcast_msgs = static_cast<I128>(slots) * num_groups;
  if (!Narrow(mcast_msgs, &shuffle.mcast_msgs) ||
      !Narrow(mcast_bytes, &shuffle.mcast_bytes) ||
      !Narrow(mcast_bytes * r, &shuffle.mcast_recipient_bytes)) {
    return overflow();
  }
  simmpi::ChannelCounters codegen;
  codegen.comm_creations = num_groups;  // both CodeGenModes create one
                                        // communicator per group
  run->traffic[stage::kCodeGen] = codegen;
  run->traffic[stage::kShuffle] = shuffle;
  if (shuffle.mcast_msgs > 0) run->shuffle_node_traffic = std::move(nodes);
  run->stage_order = {stage::kCodeGen, stage::kMap, stage::kEncode,
                      stage::kShuffle, stage::kDecode, stage::kReduce};
  SynthesisResult result;
  result.run = std::move(run);
  return result;
}

}  // namespace

SynthesisResult SynthesizeRun(const std::string& algorithm,
                              const SortConfig& config) {
  if (algorithm == "terasort") return SynthesizeTeraSort(config);
  if (algorithm == "coded") return SynthesizeCoded(config);
  return Err("algorithm '" + algorithm +
             "' has no synthesized pricing (supported: terasort, coded)");
}

}  // namespace cts::simulate
