#include "cmr/cmr.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <set>
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

CmrResult RunCmr(const CmrApp& app, const CmrConfig& config) {
  const int K = config.num_nodes;
  const int r = config.redundancy;
  const Placement placement = Placement::Create(K, r);
  const int N = placement.num_files();

  simmpi::World world(K);
  RunRecorder recorder(K);
  std::mutex out_mu;
  std::vector<std::string> outputs(static_cast<std::size_t>(K));
  std::atomic<std::uint64_t> total_iv_bytes{0};
  std::atomic<std::uint64_t> payload_bytes{0};

  const auto program = [&](simmpi::Comm& comm, RunRecorder& rec) {
    const NodeId self = comm.my_global();
    StageRunner stages(comm, rec, &config.injected_delays);
    using IvKey = std::pair<NodeId, FileId>;

    // ---- CodeGen (coded mode only) ----
    std::map<NodeMask, simmpi::Comm> groups;
    if (config.mode == ShuffleMode::kCoded) {
      stages.run(stage::kCodeGen, [&] {
        for (const NodeMask g : placement.multicast_groups()) {
          auto sub = comm.split(Contains(g, self) ? 0 : -1, self);
          if (sub.has_value()) groups.emplace(g, std::move(*sub));
        }
      });
    }

    // ---- Map ----
    // own_ivs[f] = I^self_f for files this node holds; kept[t][f] =
    // serialized I^t_f this node retains for the shuffle. The body is
    // shared between the barrier-synchronous Map stage and the
    // pipelined map/shuffle overlap; `on_file_mapped` (may be null)
    // fires after each file's values are stored.
    std::map<FileId, std::vector<std::uint8_t>> own_ivs;
    std::map<IvKey, std::vector<std::uint8_t>> kept;
    const auto map_files =
        [&](const std::function<void(FileId)>& on_file_mapped) {
          for (const FileId f : placement.files_on_node(self)) {
            const NodeMask mask = placement.file_nodes(f);
            const auto records = app.make_file(f, config.seed);
            auto ivs = app.map(records, K);
            CTS_CHECK_EQ(static_cast<int>(ivs.size()), K);
            // The lowest-id holder accounts the Q*N normalizer once.
            if (MinMember(mask) == self) {
              std::uint64_t bytes = 0;
              for (const auto& iv : ivs) bytes += iv.size();
              total_iv_bytes.fetch_add(bytes);
            }
            for (int t = 0; t < K; ++t) {
              auto& iv = ivs[static_cast<std::size_t>(t)];
              if (t == self) {
                own_ivs.emplace(f, std::move(iv));
              } else if (!Contains(mask, t)) {
                kept.emplace(IvKey{t, f}, std::move(iv));
              }
            }
            if (on_file_mapped) on_file_mapped(f);
          }
        };

    // The uncoded sends of one mapped file (lowest holder only).
    // `post` transmits one intermediate value to one target rank.
    const auto send_file_ivs =
        [&](FileId f,
            const std::function<void(NodeId, simmpi::Tag,
                                     const std::vector<std::uint8_t>&)>&
                post) {
          const NodeMask mask = placement.file_nodes(f);
          if (MinMember(mask) != self) return;
          for (NodeId t = 0; t < K; ++t) {
            if (Contains(mask, t) || t == self) continue;
            const auto& iv = kept.at(IvKey{t, f});
            payload_bytes.fetch_add(iv.size());
            post(t, kTagBase + f, iv);
          }
        };

    std::map<FileId, std::vector<std::uint8_t>> received;
    const bool overlapped = config.sync == ShuffleSync::kOverlapped;

    if (config.mode == ShuffleMode::kUncoded && overlapped) {
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
        map_files([&](FileId f) {
          send_file_ivs(f, [&](NodeId t, simmpi::Tag tag,
                               const std::vector<std::uint8_t>& iv) {
            (void)comm.isend(t, tag, iv);
          });
        });
        for (auto& [f, req] : recvs) {
          received.emplace(f, comm.wait(req).take());
        }
      });
    } else {
      stages.run(stage::kMap, [&] { map_files(nullptr); });

      // ---- Shuffle ----
      // Either plain unicast (lowest holder sends each needed IV) or
      // the Algorithm 1/2 coded multicast. Received values are keyed
      // by file.
      stages.run(stage::kShuffle, [&] {
        if (config.mode == ShuffleMode::kUncoded) {
          for (NodeId sender = 0; sender < K; ++sender) {
            for (FileId f = 0; f < N; ++f) {
              const NodeMask mask = placement.file_nodes(f);
              if (MinMember(mask) != sender) continue;
              if (sender == self) {
                send_file_ivs(f, [&](NodeId t, simmpi::Tag tag,
                                     const std::vector<std::uint8_t>& iv) {
                  comm.send(t, tag, iv);
                });
              } else if (!Contains(mask, self)) {
                Buffer payload = comm.recv(sender, kTagBase + f);
                received.emplace(f, payload.take());
              }
            }
          }
        } else {
          // Coded: encode, multicast, decode (same codec as
          // CodedTeraSort; stage split is not needed here because the
          // generic engine reports loads, not stage times).
          const IvAccess iv_access =
              [&](NodeId target,
                  NodeMask file) -> std::span<const std::uint8_t> {
            return kept.at(IvKey{target, placement.file_of(file)});
          };
          std::map<NodeMask, Buffer> outgoing;
          for (const auto& [g, gc] : groups) {
            const CodedPacket packet = EncodePacket(g, self, iv_access);
            payload_bytes.fetch_add(packet.payload.size());
            Buffer wire;
            packet.serialize(wire);
            outgoing.emplace(g, std::move(wire));
          }
          std::map<std::pair<NodeMask, NodeId>, Buffer> incoming =
              simmpi::MulticastRound(groups, outgoing, overlapped);
          for (const auto& [g, gc] : groups) {
            std::vector<DecodedSegment> segments;
            for (const NodeId sender : MaskToNodes(WithoutNode(g, self))) {
              Buffer& wire = incoming.at({g, sender});
              const CodedPacket packet = CodedPacket::deserialize(wire);
              segments.push_back(
                  DecodePacket(g, self, sender, packet, iv_access));
            }
            received.emplace(placement.file_of(WithoutNode(g, self)),
                             MergeSegments(segments));
          }
        }
      });
    }

    // ---- Reduce ----
    stages.run(stage::kReduce, [&] {
      std::vector<std::vector<std::uint8_t>> values;
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
      std::string out = app.reduce(self, values);
      std::lock_guard lock(out_mu);
      outputs[static_cast<std::size_t>(self)] = std::move(out);
    });
  };

  RunOnCluster(world, recorder, program);

  CmrResult result;
  result.config = config;
  result.outputs = std::move(outputs);
  for (const auto& name : world.stats().stage_names()) {
    result.traffic[name] = world.stats().stage(name);
  }
  result.total_iv_bytes = total_iv_bytes.load();
  result.shuffled_payload_bytes = payload_bytes.load();
  result.shuffle_log = world.stats().transmission_log(stage::kShuffle);
  result.transport_events = world.transport_log();
  result.stage_order = recorder.stage_order();
  result.compute_events = recorder.compute_events();
  CTS_CHECK_EQ(world.pending_messages(), std::size_t{0});
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

  std::vector<std::vector<std::uint8_t>> map(
      const std::vector<std::string>& records,
      int num_reducers) const override {
    std::vector<Buffer> per_reducer(static_cast<std::size_t>(num_reducers));
    for (const std::string& record : records) {
      if (record.find(pattern_) == std::string::npos) continue;
      const auto q = static_cast<std::size_t>(
          StableHash(record) % static_cast<std::uint64_t>(num_reducers));
      per_reducer[q].write_string(record);
    }
    std::vector<std::vector<std::uint8_t>> out;
    out.reserve(per_reducer.size());
    for (auto& b : per_reducer) out.push_back(b.take());
    return out;
  }

  std::string reduce(
      int /*reducer*/,
      const std::vector<std::vector<std::uint8_t>>& values) const override {
    std::ostringstream os;
    for (const auto& blob : values) {
      Buffer b{std::vector<std::uint8_t>(blob)};
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

  std::vector<std::vector<std::uint8_t>> map(
      const std::vector<std::string>& records,
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
    std::vector<std::vector<std::uint8_t>> out;
    out.reserve(tallies.size());
    for (const auto& tally : tallies) {
      Buffer b;
      for (const auto& [word, count] : tally) {
        b.write_string(word);
        b.write_u64(count);
      }
      out.push_back(b.take());
    }
    return out;
  }

  std::string reduce(
      int /*reducer*/,
      const std::vector<std::vector<std::uint8_t>>& values) const override {
    std::map<std::string, std::uint64_t> counts;
    for (const auto& blob : values) {
      Buffer b{std::vector<std::uint8_t>(blob)};
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

  std::vector<std::vector<std::uint8_t>> map(
      const std::vector<std::string>& records,
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
    std::vector<std::vector<std::uint8_t>> out;
    out.reserve(per_reducer.size());
    for (auto& b : per_reducer) out.push_back(b.take());
    return out;
  }

  std::string reduce(
      int /*reducer*/,
      const std::vector<std::vector<std::uint8_t>>& values) const override {
    // Group values by key (values kept in arrival order: file order,
    // then record order — deterministic across shuffles).
    std::map<std::string, std::vector<std::string>> by_key;
    for (const auto& blob : values) {
      Buffer b{std::vector<std::uint8_t>(blob)};
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

  std::vector<std::vector<std::uint8_t>> map(
      const std::vector<std::string>& records,
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
    std::vector<std::vector<std::uint8_t>> out;
    out.reserve(postings.size());
    for (const auto& tally : postings) {
      Buffer b;
      for (const auto& [word, docs] : tally) {
        b.write_string(word);
        b.write_u64(docs.size());
        for (const std::uint64_t d : docs) b.write_u64(d);
      }
      out.push_back(b.take());
    }
    return out;
  }

  std::string reduce(
      int /*reducer*/,
      const std::vector<std::vector<std::uint8_t>>& values) const override {
    std::map<std::string, std::set<std::uint64_t>> merged;
    for (const auto& blob : values) {
      Buffer b{std::vector<std::uint8_t>(blob)};
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
