#include "cmr/cmr.h"

#include <map>
#include <numeric>
#include <set>
#include <span>
#include <sstream>
#include <utility>

#include "coding/codec.h"
#include "coding/placement.h"
#include "common/buffer.h"
#include "common/check.h"
#include "common/random.h"
#include "driver/cluster.h"
#include "simmpi/comm.h"
#include "simmpi/multicast_round.h"
#include "simmpi/world.h"

namespace cts::cmr {

namespace {

constexpr simmpi::Tag kTagBase = 0;

// FNV-1a: stable, platform-independent routing hash (std::hash is not
// specified across implementations).
std::uint64_t StableHash(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

NodeId MinMember(NodeMask mask) {
  CTS_CHECK_NE(mask, NodeMask{0});
  return std::countr_zero(mask);
}

}  // namespace

double CmrResult::measured_payload_load() const {
  CTS_CHECK_GT(total_iv_bytes, std::uint64_t{0});
  return static_cast<double>(shuffled_payload_bytes) /
         static_cast<double>(total_iv_bytes);
}

CmrResult RunCmr(const CmrApp& app, const SortConfig& config,
                 ShuffleMode mode) {
  const int K = config.num_nodes;
  const Placement placement = Placement::Create(K, config.redundancy);
  const int N = placement.num_files();
  const bool coded = mode == ShuffleMode::kCoded;
  const bool overlapped = config.shuffle_sync == ShuffleSync::kOverlapped;

  simmpi::World world(K);
  RunRecorder recorder(K);
  // One slot per node: node k writes only slot k, and the slots are
  // read after the node threads join.
  std::vector<std::string> outputs(static_cast<std::size_t>(K));
  std::vector<std::uint64_t> iv_bytes(static_cast<std::size_t>(K), 0);
  std::vector<std::uint64_t> payload_bytes(static_cast<std::size_t>(K), 0);

  RunOnCluster(world, recorder, [&](simmpi::Comm& comm, RunRecorder& rec) {
    const NodeId self = comm.my_global();
    const auto slot = static_cast<std::size_t>(self);
    StageRunner stages(comm, rec, &config.injected_delays);
    using IvKey = std::pair<NodeId, FileId>;

    // ---- CodeGen (coded mode only) ----
    std::map<NodeMask, simmpi::Comm> groups;
    if (coded) {
      stages.run(stage::kCodeGen, [&] {
        groups = CreateGroups(comm, placement.multicast_groups(),
                              CodeGenMode::kCommSplit);
      });
    }

    // ---- Map ----
    // own_ivs[f] = I^self_f for files this node holds; kept[{t, f}] =
    // serialized I^t_f this node retains for the shuffle (t outside
    // the file's holders).
    std::map<FileId, Buffer> own_ivs;
    std::map<IvKey, Buffer> kept;
    const auto map_file = [&](FileId f) {
      const NodeMask mask = placement.file_nodes(f);
      auto ivs = app.map(app.make_file(f, config.seed), K);
      CTS_CHECK_EQ(static_cast<int>(ivs.size()), K);
      // The lowest-id holder accounts the Q*N normalizer once.
      if (MinMember(mask) == self) {
        for (const auto& iv : ivs) iv_bytes[slot] += iv.size();
      }
      for (int t = 0; t < K; ++t) {
        auto& iv = ivs[static_cast<std::size_t>(t)];
        if (t == self) {
          own_ivs.emplace(f, std::move(iv));
        } else if (!Contains(mask, t)) {
          kept.emplace(IvKey{t, f}, std::move(iv));
        }
      }
    };
    // The uncoded sends of file f: its lowest holder unicasts each
    // kept value to its reducer, nonblocking under kOverlapped.
    const auto send_file = [&](FileId f) {
      const NodeMask mask = placement.file_nodes(f);
      if (MinMember(mask) != self) return;
      for (NodeId t = 0; t < K; ++t) {
        if (Contains(mask, t)) continue;
        const Buffer& iv = kept.at(IvKey{t, f});
        payload_bytes[slot] += iv.size();
        if (overlapped) {
          (void)comm.isend(t, kTagBase + f, iv);
        } else {
          comm.send(t, kTagBase + f, iv);
        }
      }
    };

    std::map<FileId, Buffer> received;
    if (!coded && overlapped) {
      // ---- Pipelined Map+Shuffle (one merged stage, labeled Shuffle
      // so the traffic lands where the load accounting expects it;
      // Map itself generates no traffic) ----
      // Receives are posted before mapping begins; each file's values
      // go on the wire the moment the file is mapped.
      stages.run(stage::kShuffle, [&] {
        std::vector<std::pair<FileId, simmpi::Request>> recvs;
        for (FileId f = 0; f < N; ++f) {
          const NodeMask mask = placement.file_nodes(f);
          if (Contains(mask, self)) continue;
          recvs.emplace_back(
              f, comm.irecv(comm.rank_of_global(MinMember(mask)),
                            kTagBase + f));
        }
        for (const FileId f : placement.files_on_node(self)) {
          map_file(f);
          send_file(f);
        }
        for (auto& [f, req] : recvs) {
          received.emplace(f, comm.wait(req));
        }
      });
    } else {
      stages.run(stage::kMap, [&] {
        for (const FileId f : placement.files_on_node(self)) map_file(f);
      });

      // ---- Shuffle ----
      // Either plain unicast (lowest holder sends each needed IV) or
      // the Algorithm 1/2 coded multicast. Received values are keyed
      // by file.
      stages.run(stage::kShuffle, [&] {
        if (!coded) {
          for (NodeId sender = 0; sender < K; ++sender) {
            for (FileId f = 0; f < N; ++f) {
              const NodeMask mask = placement.file_nodes(f);
              if (MinMember(mask) != sender) continue;
              if (sender == self) {
                send_file(f);
              } else if (!Contains(mask, self)) {
                received.emplace(f, comm.recv(sender, kTagBase + f));
              }
            }
          }
          return;
        }
        // Coded: CodedTeraSort's kernels. Each packet is encoded
        // straight into its multicast payload, and each group's r
        // packets decode straight into the wanted value once the
        // header pass has sized it. (No Encode/Decode stage split: the
        // generic engine reports loads, not stage times.)
        const IvAccess iv_access =
            [&](NodeId target, NodeMask file) -> std::span<const std::uint8_t> {
          return kept.at(IvKey{target, placement.file_of(file)}).span();
        };
        CodecStats codec;
        std::map<NodeMask, Buffer> outgoing;
        for (const auto& [g, gc] : groups) {
          EncodeInto(g, self, iv_access, outgoing[g], &codec);
        }
        payload_bytes[slot] = codec.encode_payload_bytes;
        std::map<std::pair<NodeMask, NodeId>, Buffer> incoming =
            simmpi::MulticastRound(groups, outgoing, overlapped);
        std::vector<PacketView> packets;
        for (const auto& [g, gc] : groups) {
          packets.clear();
          for (const NodeId sender : MaskToNodes(WithoutNode(g, self))) {
            packets.push_back(ParsePacket(incoming.at({g, sender}).span()));
          }
          Buffer value;
          const std::span<std::uint8_t> out =
              value.append_unfilled(GroupValueLength(g, self, packets));
          DecodeGroupInto(g, self, packets, iv_access, {0, {}, out});
          received.emplace(placement.file_of(WithoutNode(g, self)),
                           std::move(value));
        }
      });
    }

    // ---- Reduce ----
    stages.run(stage::kReduce, [&] {
      std::vector<Buffer> values;
      values.reserve(static_cast<std::size_t>(N));
      for (FileId f = 0; f < N; ++f) {
        if (const auto own = own_ivs.find(f); own != own_ivs.end()) {
          values.push_back(std::move(own->second));
        } else {
          const auto got = received.find(f);
          CTS_CHECK_MSG(got != received.end(),
                        "reducer " << self << " missing IV of file " << f);
          values.push_back(std::move(got->second));
        }
      }
      outputs[slot] = app.reduce(self, values);
    });
  });

  CmrResult result;
  result.run = CollectRunResult(config, "CMR-" + app.name(), world, recorder);
  result.outputs = std::move(outputs);
  result.total_iv_bytes =
      std::accumulate(iv_bytes.begin(), iv_bytes.end(), std::uint64_t{0});
  result.shuffled_payload_bytes = std::accumulate(
      payload_bytes.begin(), payload_bytes.end(), std::uint64_t{0});
  return result;
}

// ---- Grep ----

namespace {

// Small dictionary for deterministic text generation.
constexpr const char* kWords[] = {
    "map",    "reduce",  "shuffle", "sort",   "coded",  "packet",
    "node",   "cluster", "spark",   "hadoop", "stream", "kernel",
    "matrix", "vector",  "graph",   "index",  "needle", "gradient",
};
constexpr std::size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);

std::vector<std::string> MakeTextFile(FileId file, std::uint64_t seed,
                                      int records) {
  Xoshiro256 rng(Mix64(seed ^ (0x9e37ULL + static_cast<std::uint64_t>(file))));
  std::vector<std::string> lines;
  lines.reserve(static_cast<std::size_t>(records));
  for (int i = 0; i < records; ++i) {
    std::ostringstream line;
    const int words = 4 + static_cast<int>(rng.below(5));
    for (int w = 0; w < words; ++w) {
      if (w > 0) line << ' ';
      line << kWords[rng.below(kNumWords)];
    }
    lines.push_back(line.str());
  }
  return lines;
}

class GrepApp final : public CmrApp {
 public:
  GrepApp(std::string pattern, int records_per_file)
      : pattern_(std::move(pattern)), records_per_file_(records_per_file) {}

  std::string name() const override { return "Grep(" + pattern_ + ")"; }

  std::vector<std::string> make_file(FileId file,
                                     std::uint64_t seed) const override {
    return MakeTextFile(file, seed, records_per_file_);
  }

  std::vector<Buffer> map(const std::vector<std::string>& records,
                          int num_reducers) const override {
    std::vector<Buffer> per_reducer(static_cast<std::size_t>(num_reducers));
    for (const std::string& record : records) {
      if (record.find(pattern_) == std::string::npos) continue;
      const auto q = static_cast<std::size_t>(
          StableHash(record) % static_cast<std::uint64_t>(num_reducers));
      per_reducer[q].write_string(record);
    }
    return per_reducer;
  }

  std::string reduce(int /*reducer*/,
                     std::span<Buffer> values) const override {
    std::ostringstream os;
    for (Buffer& b : values) {
      while (b.remaining() > 0) os << b.read_string() << '\n';
    }
    return os.str();
  }

 private:
  std::string pattern_;
  int records_per_file_;
};

// ---- WordCount ----

class WordCountApp final : public CmrApp {
 public:
  explicit WordCountApp(int records_per_file)
      : records_per_file_(records_per_file) {}

  std::string name() const override { return "WordCount"; }

  std::vector<std::string> make_file(FileId file,
                                     std::uint64_t seed) const override {
    return MakeTextFile(file, seed, records_per_file_);
  }

  std::vector<Buffer> map(const std::vector<std::string>& records,
                          int num_reducers) const override {
    // Combiner-style local tally, then (word, count) pairs per reducer.
    std::vector<std::map<std::string, std::uint64_t>> tallies(
        static_cast<std::size_t>(num_reducers));
    for (const std::string& record : records) {
      std::istringstream is(record);
      std::string word;
      while (is >> word) {
        const auto q = static_cast<std::size_t>(
            StableHash(word) % static_cast<std::uint64_t>(num_reducers));
        ++tallies[q][word];
      }
    }
    std::vector<Buffer> out(tallies.size());
    for (std::size_t q = 0; q < tallies.size(); ++q) {
      for (const auto& [word, count] : tallies[q]) {
        out[q].write_string(word);
        out[q].write_u64(count);
      }
    }
    return out;
  }

  std::string reduce(int /*reducer*/,
                     std::span<Buffer> values) const override {
    std::map<std::string, std::uint64_t> counts;
    for (Buffer& b : values) {
      while (b.remaining() > 0) {
        const std::string word = b.read_string();
        counts[word] += b.read_u64();
      }
    }
    std::ostringstream os;
    for (const auto& [word, count] : counts) {
      os << word << ' ' << count << '\n';
    }
    return os.str();
  }

 private:
  int records_per_file_;
};

// ---- SelfJoin ----

class SelfJoinApp final : public CmrApp {
 public:
  SelfJoinApp(int records_per_file, int key_space)
      : records_per_file_(records_per_file), key_space_(key_space) {}

  std::string name() const override { return "SelfJoin"; }

  // Records "k<id> v<n>": keys from a small space so collisions (and
  // hence join output) actually occur.
  std::vector<std::string> make_file(FileId file,
                                     std::uint64_t seed) const override {
    Xoshiro256 rng(Mix64(seed ^ (0x5e1fULL + static_cast<std::uint64_t>(file))));
    std::vector<std::string> records;
    records.reserve(static_cast<std::size_t>(records_per_file_));
    for (int i = 0; i < records_per_file_; ++i) {
      std::ostringstream os;
      os << 'k' << rng.below(static_cast<std::uint64_t>(key_space_)) << ' '
         << 'v' << rng.below(1000);
      records.push_back(os.str());
    }
    return records;
  }

  std::vector<Buffer> map(const std::vector<std::string>& records,
                          int num_reducers) const override {
    std::vector<Buffer> per_reducer(static_cast<std::size_t>(num_reducers));
    for (const std::string& record : records) {
      const std::size_t space = record.find(' ');
      CTS_CHECK_NE(space, std::string::npos);
      const std::string key = record.substr(0, space);
      const auto q = static_cast<std::size_t>(
          StableHash(key) % static_cast<std::uint64_t>(num_reducers));
      per_reducer[q].write_string(record);
    }
    return per_reducer;
  }

  std::string reduce(int /*reducer*/,
                     std::span<Buffer> values) const override {
    // Group values by key (values kept in arrival order: file order,
    // then record order — deterministic across shuffles).
    std::map<std::string, std::vector<std::string>> by_key;
    for (Buffer& b : values) {
      while (b.remaining() > 0) {
        const std::string record = b.read_string();
        const std::size_t space = record.find(' ');
        by_key[record.substr(0, space)].push_back(record.substr(space + 1));
      }
    }
    std::ostringstream os;
    for (const auto& [key, vals] : by_key) {
      for (std::size_t i = 0; i < vals.size(); ++i) {
        for (std::size_t j = i + 1; j < vals.size(); ++j) {
          os << key << ' ' << vals[i] << ' ' << vals[j] << '\n';
        }
      }
    }
    return os.str();
  }

 private:
  int records_per_file_;
  int key_space_;
};

// ---- Inverted index ----

class InvertedIndexApp final : public CmrApp {
 public:
  explicit InvertedIndexApp(int records_per_file)
      : records_per_file_(records_per_file) {}

  std::string name() const override { return "InvertedIndex"; }

  std::vector<std::string> make_file(FileId file,
                                     std::uint64_t seed) const override {
    return MakeTextFile(file, seed, records_per_file_);
  }

  std::vector<Buffer> map(const std::vector<std::string>& records,
                          int num_reducers) const override {
    // Document id = hash of the full line (stable across the nodes
    // that map the same file). Postings are (word -> set of doc ids).
    std::vector<std::map<std::string, std::set<std::uint64_t>>> postings(
        static_cast<std::size_t>(num_reducers));
    for (const std::string& record : records) {
      const std::uint64_t doc = StableHash(record) >> 32;  // short id
      std::istringstream is(record);
      std::string word;
      while (is >> word) {
        const auto q = static_cast<std::size_t>(
            StableHash(word) % static_cast<std::uint64_t>(num_reducers));
        postings[q][word].insert(doc);
      }
    }
    std::vector<Buffer> out(postings.size());
    for (std::size_t q = 0; q < postings.size(); ++q) {
      for (const auto& [word, docs] : postings[q]) {
        out[q].write_string(word);
        out[q].write_u64(docs.size());
        for (const std::uint64_t d : docs) out[q].write_u64(d);
      }
    }
    return out;
  }

  std::string reduce(int /*reducer*/,
                     std::span<Buffer> values) const override {
    std::map<std::string, std::set<std::uint64_t>> merged;
    for (Buffer& b : values) {
      while (b.remaining() > 0) {
        const std::string word = b.read_string();
        const std::uint64_t n = b.read_u64();
        auto& docs = merged[word];
        for (std::uint64_t i = 0; i < n; ++i) docs.insert(b.read_u64());
      }
    }
    std::ostringstream os;
    for (const auto& [word, docs] : merged) {
      os << word << ':';
      for (const std::uint64_t d : docs) os << ' ' << d;
      os << '\n';
    }
    return os.str();
  }

 private:
  int records_per_file_;
};

}  // namespace

std::unique_ptr<CmrApp> MakeGrepApp(std::string pattern,
                                    int records_per_file) {
  return std::make_unique<GrepApp>(std::move(pattern), records_per_file);
}

std::unique_ptr<CmrApp> MakeWordCountApp(int records_per_file) {
  return std::make_unique<WordCountApp>(records_per_file);
}

std::unique_ptr<CmrApp> MakeSelfJoinApp(int records_per_file,
                                        int key_space) {
  return std::make_unique<SelfJoinApp>(records_per_file, key_space);
}

std::unique_ptr<CmrApp> MakeInvertedIndexApp(int records_per_file) {
  return std::make_unique<InvertedIndexApp>(records_per_file);
}

}  // namespace cts::cmr
