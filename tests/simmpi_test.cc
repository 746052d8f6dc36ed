// Tests for the simmpi substrate: mailboxes, send/recv, collectives,
// group creation, and traffic accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "check/race.h"
#include "combinatorics/subsets.h"
#include "common/check.h"
#include "driver/cluster.h"
#include "simmpi/comm.h"
#include "simmpi/eventlog.h"
#include "simmpi/mailbox.h"
#include "simmpi/multicast_round.h"
#include "simmpi/world.h"

namespace cts::simmpi {
namespace {

// Runs fn(node) on one thread per node of a world and joins them,
// re-throwing the first per-node failure.
void RunNodes(World& world, const std::function<void(NodeId)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(world.num_nodes()));
  for (NodeId n = 0; n < world.num_nodes(); ++n) {
    threads.emplace_back([&, n] {
      try {
        fn(n);
      } catch (...) {
        errors[static_cast<std::size_t>(n)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// Labels every node's traffic `stage` before the node threads start, as
// each node's StageRunner does for itself at a stage's barrier.
void LabelNodes(World& world, const std::string& stage) {
  for (NodeId n = 0; n < world.num_nodes(); ++n) {
    world.stats().set_stage(n, stage);
  }
}

Buffer BufferOf(std::initializer_list<std::uint8_t> bytes) {
  Buffer b;
  b.write_bytes(std::vector<std::uint8_t>(bytes));
  return b;
}

TEST(Mailbox, FifoPerKey) {
  Mailbox mb;
  mb.deliver(0, 1, 7, BufferOf({1}));
  mb.deliver(0, 1, 7, BufferOf({2}));
  EXPECT_EQ(mb.pending(), 2u);
  EXPECT_EQ(mb.receive(0, 1, 7).data()[0], 1);
  EXPECT_EQ(mb.receive(0, 1, 7).data()[0], 2);
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(Mailbox, KeysAreIndependent) {
  Mailbox mb;
  mb.deliver(0, 1, 7, BufferOf({1}));
  mb.deliver(0, 2, 7, BufferOf({2}));
  mb.deliver(1, 1, 7, BufferOf({3}));
  mb.deliver(0, 1, 8, BufferOf({4}));
  EXPECT_EQ(mb.receive(0, 1, 8).data()[0], 4);
  EXPECT_EQ(mb.receive(1, 1, 7).data()[0], 3);
  EXPECT_EQ(mb.receive(0, 2, 7).data()[0], 2);
  EXPECT_EQ(mb.receive(0, 1, 7).data()[0], 1);
}

TEST(Mailbox, ReceiveBlocksUntilDelivery) {
  Mailbox mb;
  std::atomic<bool> received{false};
  std::thread receiver([&] {
    (void)mb.receive(0, 5, 1);
    received = true;
  });
  EXPECT_FALSE(received.load());
  mb.deliver(0, 5, 1, BufferOf({9}));
  receiver.join();
  EXPECT_TRUE(received.load());
}

TEST(World, RejectsBadSizes) {
  EXPECT_THROW(World{0}, CheckError);
  // The transport is mask-free, so worlds larger than kMaxNodes are
  // legal (live TeraSort runs at K~100; only coded placements cap).
  EXPECT_NO_THROW(World{kMaxNodes});
  EXPECT_NO_THROW(World{kMaxNodes + 1});
}

TEST(Comm, WorldCommRanksMatchNodeIds) {
  World world(4);
  const Comm c = Comm::World(world, 2);
  EXPECT_EQ(c.rank(), 2);
  EXPECT_EQ(c.size(), 4);
  EXPECT_EQ(c.my_global(), 2);
  EXPECT_EQ(c.global(3), 3);
  EXPECT_EQ(c.rank_of_global(1), 1);
  EXPECT_EQ(c.rank_of_global(99), -1);
}

TEST(Comm, SendRecvMovesPayload) {
  World world(2);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    if (n == 0) {
      Buffer b;
      b.write_u32(0xfeedu);
      c.send(1, 3, b);
    } else {
      Buffer got = c.recv(0, 3);
      EXPECT_EQ(got.read_u32(), 0xfeedu);
    }
  });
  EXPECT_EQ(world.pending_messages(), 0u);
}

TEST(Comm, SendToSelfIsAnError) {
  World world(2);
  Comm c = Comm::World(world, 0);
  Buffer b;
  EXPECT_THROW(c.send(0, 1, b), CheckError);
  EXPECT_THROW(c.send(0, 1, BufferOf({1})), CheckError);
  EXPECT_THROW((void)c.recv(0, 1), CheckError);
  EXPECT_EQ(world.pending_messages(), 0u);
}

TEST(Comm, NegativeUserTagRejected) {
  World world(2);
  Comm c = Comm::World(world, 0);
  Buffer b;
  EXPECT_THROW(c.send(1, -1, b), CheckError);
  EXPECT_THROW(c.send(1, -1, BufferOf({1})), CheckError);
  EXPECT_THROW((void)c.isend(1, -1, BufferOf({1})), CheckError);
  EXPECT_EQ(world.pending_messages(), 0u);
  EXPECT_EQ(world.stats().total().unicast_msgs, 0u);
}

// What one run of the exchange below leaves behind: the received
// bytes, the accounting and the captured transport events.
struct ExchangeRecord {
  std::vector<std::vector<std::uint8_t>> received;  // by receiving node
  ChannelCounters counters;
  std::vector<NodeTraffic> per_node;
  std::vector<std::tuple<NodeId, std::vector<NodeId>, std::uint64_t>>
      log;  // (src, dsts, bytes)
  // Per performing thread, its events in program order (stamps drop
  // out: they interleave the threads).
  std::map<NodeId, std::vector<std::tuple<int, NodeId, NodeId, CommId, Tag,
                                          std::uint64_t, std::uint64_t>>>
      events;
};

// Node 0 sends eight payloads of different sizes, alternating blocking
// send and isend to nodes 1 and 2, plus one loopback isend to itself;
// every send goes through the moving overloads when `move` is set and
// through the copying ones otherwise.
ExchangeRecord RunExchange(bool move) {
  TransportRecorder::RequestCapture(true);
  World world(3);
  TransportRecorder::RequestCapture(false);
  LabelNodes(world, "Shuffle");
  ExchangeRecord out;
  out.received.resize(3);
  const auto payload = [](int i) {
    Buffer b;
    for (int j = 0; j < 10 * i + 3; ++j) {
      b.write_u8(static_cast<std::uint8_t>(17 * i + j));
    }
    return b;
  };
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    auto& got = out.received[static_cast<std::size_t>(n)];
    const auto take = [&got](Buffer b) {
      got.insert(got.end(), b.data(), b.data() + b.size());
    };
    if (n != 0) {
      // Posting every receive first keeps the key's match state alive,
      // so arrival indices do not depend on how fast this node drains.
      std::vector<Request> recvs;
      for (int i = 0; i < 4; ++i) recvs.push_back(c.irecv(0, 7));
      for (Request& req : recvs) take(Comm::wait(req));
      return;
    }
    Request self_recv = c.irecv(0, 9);
    for (int i = 0; i < 8; ++i) {
      Buffer b = payload(i);
      const int dst = 1 + i % 2;
      if (move) {
        if (i < 4) {
          c.send(dst, 7, std::move(b));
        } else {
          (void)c.isend(dst, 7, std::move(b));
        }
        EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): moved out
      } else if (i < 4) {
        c.send(dst, 7, b);
      } else {
        (void)c.isend(dst, 7, b.span());
      }
    }
    Buffer loop = payload(9);
    if (move) {
      (void)c.isend(0, 9, std::move(loop));
    } else {
      (void)c.isend(0, 9, loop);
    }
    take(Comm::wait(self_recv));
  });
  EXPECT_EQ(world.pending_messages(), 0u);
  out.counters = world.stats().stage("Shuffle");
  out.per_node = world.stats().per_node("Shuffle");
  for (const auto& t : world.stats().transmission_log("Shuffle")) {
    out.log.emplace_back(t.src, t.dsts, t.bytes);
  }
  for (const TransportEvent& ev : world.transport_log()) {
    out.events[ev.performer].emplace_back(static_cast<int>(ev.kind), ev.dst,
                                          ev.src, ev.comm, ev.tag, ev.index,
                                          ev.bytes);
  }
  return out;
}

TEST(Comm, MovingSendMatchesCopyingSend) {
  const ExchangeRecord copied = RunExchange(/*move=*/false);
  const ExchangeRecord moved = RunExchange(/*move=*/true);
  EXPECT_EQ(moved.received, copied.received);
  EXPECT_FALSE(moved.received[0].empty());  // the loopback arrived
  // Eight unicasts; the loopback is never on the network.
  EXPECT_EQ(moved.counters.unicast_msgs, 8u);
  EXPECT_EQ(copied.counters.unicast_msgs, 8u);
  EXPECT_EQ(moved.counters.unicast_bytes, copied.counters.unicast_bytes);
  EXPECT_EQ(moved.counters.mcast_msgs, 0u);
  ASSERT_EQ(moved.per_node.size(), copied.per_node.size());
  for (std::size_t k = 0; k < moved.per_node.size(); ++k) {
    EXPECT_EQ(moved.per_node[k].tx_bytes, copied.per_node[k].tx_bytes) << k;
    EXPECT_EQ(moved.per_node[k].rx_bytes, copied.per_node[k].rx_bytes) << k;
  }
  EXPECT_EQ(moved.log, copied.log);
  ASSERT_EQ(moved.log.size(), 8u);
  for (std::size_t i = 0; i < moved.log.size(); ++i) {
    // Sender program order: send i carries payload(i), 10 i + 3 bytes.
    EXPECT_EQ(std::get<2>(moved.log[i]), 10 * i + 3) << i;
  }
  EXPECT_EQ(moved.events, copied.events);
  EXPECT_EQ(moved.events.at(0).size(), 11u);  // 9 sends, 1 post, 1 match
}

TEST(Comm, ManyToOneOrderedPerSource) {
  constexpr int K = 6;
  World world(K);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    if (n == 0) {
      for (int src = 1; src < K; ++src) {
        Buffer first = c.recv(src, 1);
        Buffer second = c.recv(src, 1);
        EXPECT_EQ(first.read_i32(), src * 10);
        EXPECT_EQ(second.read_i32(), src * 10 + 1);
      }
    } else {
      Buffer b1, b2;
      b1.write_i32(n * 10);
      b2.write_i32(n * 10 + 1);
      c.send(0, 1, b1);
      c.send(0, 1, b2);
    }
  });
}

TEST(Comm, BcastDeliversToAll) {
  constexpr int K = 5;
  World world(K);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    Buffer payload;
    if (n == 2) payload.write_u64(777);
    c.bcast(2, payload);
    payload.rewind();
    EXPECT_EQ(payload.read_u64(), 777u);
  });
}

// FNV-1a over what a run leaves in the transport, minus the thread
// race: the "Shuffle" counters and per-node traffic, each sender's
// transmissions in its program order, and each performing thread's
// captured events in its program order.
std::uint64_t TransportDigest(const World& world) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  const ChannelCounters c = world.stats().stage("Shuffle");
  for (const std::uint64_t v :
       {c.unicast_msgs, c.unicast_bytes, c.mcast_msgs, c.mcast_bytes,
        c.mcast_recipient_bytes, c.comm_creations}) {
    add(v);
  }
  for (const NodeTraffic& t : world.stats().per_node("Shuffle")) {
    add(t.tx_bytes);
    add(t.rx_bytes);
  }
  auto log = world.stats().transmission_log("Shuffle");
  std::stable_sort(log.begin(), log.end(),
                   [](const auto& a, const auto& b) { return a.src < b.src; });
  for (const auto& t : log) {
    add(static_cast<std::uint64_t>(t.src));
    for (const NodeId d : t.dsts) add(static_cast<std::uint64_t>(d));
    add(t.bytes);
  }
  std::map<NodeId, std::vector<TransportEvent>> by_performer;
  for (const TransportEvent& ev : world.transport_log()) {
    by_performer[ev.performer].push_back(ev);
  }
  for (const auto& [performer, events] : by_performer) {
    add(static_cast<std::uint64_t>(performer));
    for (const TransportEvent& ev : events) {
      for (const std::uint64_t v :
           {static_cast<std::uint64_t>(ev.kind),
            static_cast<std::uint64_t>(ev.dst),
            static_cast<std::uint64_t>(ev.src),
            static_cast<std::uint64_t>(ev.comm),
            static_cast<std::uint64_t>(ev.tag), ev.index, ev.bytes}) {
        add(v);
      }
    }
  }
  return h;
}

// The bytes multicast by `sender`, a different length per (sender, tag).
Buffer PayloadOf(NodeId sender, std::uint64_t tag) {
  Buffer b;
  for (std::uint64_t i = 0; i < 40 + 7 * static_cast<std::uint64_t>(sender) + tag;
       ++i) {
    b.write_u8(static_cast<std::uint8_t>(31 * sender + 3 * tag + i));
  }
  return b;
}

std::uintptr_t AddressOf(const Buffer& b) {
  return reinterpret_cast<std::uintptr_t>(b.data());
}

// A blocking bcast rooted at node 1, then a multicast round over every
// 3-node group under each schedule. Every holder of a payload — the
// root included — reads it in place from one allocation; the root's
// payload stays readable and unchanged; a holder that writes
// (write_u8, mutable_span, take) gets a private copy that no other
// holder sees. The transport's accounting, per-sender order and
// captured events are pinned: the Shuffle counters, per-node traffic,
// log and every group communicator's events are those of the copying
// multicast this replaced; the world communicator's events hold
// create_groups' one round on the groups tag.
TEST(Comm, BcastSharesOnePayload) {
  constexpr int K = 4;
  const std::vector<NodeMask> masks = AllSubsets(K, 3);
  for (const bool overlapped : {false, true}) {
    SCOPED_TRACE(overlapped ? "overlapped" : "serial");
    TransportRecorder::RequestCapture(true);
    World world(K);
    TransportRecorder::RequestCapture(false);
    LabelNodes(world, "Shuffle");
    const Buffer expected = PayloadOf(1, 0);
    std::array<std::uintptr_t, K> bcast_at{};
    // (group, sender) -> where each member holds that packet.
    std::map<std::pair<NodeMask, NodeId>, std::array<std::uintptr_t, K>>
        round_at;
    for (const NodeMask g : masks) {
      for (const NodeId u : MaskToNodes(g)) round_at[{g, u}] = {};
    }
    RunNodes(world, [&](NodeId n) {
      Comm c = Comm::World(world, n);
      Buffer payload;
      if (n == 1) payload = expected.Clone();
      c.bcast(1, payload);
      bcast_at[static_cast<std::size_t>(n)] = AddressOf(payload);
      EXPECT_EQ(payload, expected);
      c.barrier();
      if (n == 0) payload.write_u8(0xee);
      if (n == 2) payload.mutable_span()[0] ^= 0xff;
      if (n == 3) {
        std::vector<std::uint8_t> mine = payload.take();
        mine[1] ^= 0xff;
        EXPECT_TRUE(payload.empty());
      }
      c.barrier();
      if (n == 1) {
        // The root wrote nothing: it still reads the shared bytes.
        EXPECT_EQ(payload, expected);
        EXPECT_EQ(AddressOf(payload), bcast_at[1]);
        payload.rewind();
        EXPECT_EQ(payload.read_u8(), expected.span()[0]);
      } else if (n == 0) {
        EXPECT_EQ(payload.size(), expected.size() + 1);
        EXPECT_TRUE(std::equal(expected.span().begin(), expected.span().end(),
                               payload.span().begin()));
      } else if (n == 2) {
        EXPECT_NE(AddressOf(payload), bcast_at[1]);
        EXPECT_EQ(payload.span()[0], expected.span()[0] ^ 0xff);
      }

      std::map<NodeMask, Comm> groups = c.create_groups(masks);
      std::map<NodeMask, Buffer> outgoing;
      for (const auto& [g, gc] : groups) outgoing[g] = PayloadOf(n, g);
      std::map<std::pair<NodeMask, NodeId>, Buffer> incoming =
          MulticastRound(groups, outgoing, overlapped);
      for (const auto& [g, b] : outgoing) {
        EXPECT_EQ(b, PayloadOf(n, g));  // the root's payload is intact
        round_at.at({g, n})[static_cast<std::size_t>(n)] = AddressOf(b);
      }
      for (const auto& [key, b] : incoming) {
        EXPECT_EQ(b, PayloadOf(key.second, key.first));
        round_at.at(key)[static_cast<std::size_t>(n)] = AddressOf(b);
      }
      c.barrier();
      // Node 0 writes to every packet it received; the others, root
      // included, still read the original bytes.
      if (n == 0) {
        for (auto& [key, b] : incoming) b.mutable_span()[0] ^= 0x5a;
      }
      c.barrier();
      for (const auto& [g, b] : outgoing) EXPECT_EQ(b, PayloadOf(n, g));
      if (n != 0) {
        for (const auto& [key, b] : incoming) {
          EXPECT_EQ(b, PayloadOf(key.second, key.first));
        }
      }
      c.barrier();  // every holder stays alive until all have checked
    });
    EXPECT_EQ(world.pending_messages(), 0u);
    for (int n = 0; n < K; ++n) EXPECT_EQ(bcast_at[n], bcast_at[1]) << n;
    for (const auto& [key, at] : round_at) {
      for (const NodeId m : MaskToNodes(key.first)) {
        EXPECT_EQ(at[static_cast<std::size_t>(m)],
                  at[static_cast<std::size_t>(key.second)])
            << "group " << key.first << " sender " << key.second
            << " holder " << m;
      }
    }
    const ChannelCounters shuffle = world.stats().stage("Shuffle");
    EXPECT_EQ(shuffle.mcast_msgs, 1u + masks.size() * 3);
    EXPECT_EQ(shuffle.unicast_msgs, 0u);
    EXPECT_EQ(TransportDigest(world),
              overlapped ? 0x8afda746b3d63308ULL : 0x28a50b284280b02eULL)
        << std::hex << "got 0x" << TransportDigest(world);
  }
}

TEST(Comm, BcastOnSingletonCommIsNoop) {
  World world(1);
  Comm c = Comm::World(world, 0);
  Buffer payload;
  payload.write_u8(1);
  EXPECT_NO_THROW(c.bcast(0, payload));
  EXPECT_EQ(payload.size(), 1u);
}

TEST(Comm, BarrierSynchronizes) {
  constexpr int K = 8;
  World world(K);
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    ++before;
    c.barrier();
    if (before.load() != K) violated = true;
    c.barrier();
  });
  EXPECT_FALSE(violated.load());
}

// create_groups is a mailbox collective, so a captured transport log
// holds it: every rank but 0 sends one request to rank 0 and gets one
// reply, all on the groups tag, and the log certifies. Rank 0 reserves
// one id per mask, consecutive in list order.
TEST(Comm, CreateGroupsIsAMailboxCollective) {
  constexpr int K = 5;
  TransportRecorder::RequestCapture(true);
  World world(K);
  TransportRecorder::RequestCapture(false);
  LabelNodes(world, "CodeGen");
  // Nodes 1 and 3 form the first group, nodes 0 and 2 the second; node
  // 4 is in neither.
  const std::vector<NodeMask> masks = {NodesToMask({1, 3}),
                                       NodesToMask({0, 2})};
  std::array<std::map<NodeMask, CommId>, K> ids;
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    for (const auto& [mask, gc] : c.create_groups(masks)) {
      ids[static_cast<std::size_t>(n)][mask] = gc.id();
    }
  });
  // The world communicator is id 0, so the first group is id 1.
  EXPECT_EQ(ids[1], (std::map<NodeMask, CommId>{{masks[0], 1}}));
  EXPECT_EQ(ids[3], ids[1]);
  EXPECT_EQ(ids[0], (std::map<NodeMask, CommId>{{masks[1], 2}}));
  EXPECT_EQ(ids[2], ids[0]);
  EXPECT_TRUE(ids[4].empty());
  EXPECT_EQ(world.stats().stage("CodeGen").comm_creations, 2u);
  EXPECT_EQ(world.pending_messages(), 0u);

  const TransportLog log = world.transport_log();
  std::multiset<std::tuple<NodeId, NodeId, std::uint64_t>> sends, matches;
  for (const TransportEvent& ev : log) {
    EXPECT_EQ(ev.tag, Comm::kTagGroups);
    const auto slot = std::make_tuple(ev.dst, ev.src, ev.index);
    if (ev.kind == TransportEventKind::kSend) sends.insert(slot);
    if (ev.kind == TransportEventKind::kMatch) matches.insert(slot);
  }
  EXPECT_EQ(sends.size(), 2u * (K - 1));
  EXPECT_EQ(matches, sends);
  EXPECT_TRUE(check::AnalyzeTransport(log, K).certified());
}

// The two CodeGen modes (driver/cluster.h's CreateGroups): one
// create_groups round per group, as the paper's MPI_Comm_split, and
// one round for every group give each node the same communicators,
// ids included, and record the same comm creations; neither leaves a
// message behind, and both captured logs certify. Each round is
// 2(K - 1) messages on the groups tag.
TEST(Comm, CreateGroupsPerGroupEqualsBatched) {
  // Per node: mask -> (id, members, rank).
  using Groups =
      std::map<NodeMask, std::tuple<CommId, std::vector<NodeId>, int>>;
  for (const int K : {4, 6}) {
    for (const int r : {1, 2, 3}) {
      SCOPED_TRACE("K = " + std::to_string(K) + ", r = " + std::to_string(r));
      const std::vector<NodeMask> masks = AllSubsets(K, r + 1);
      std::map<CodeGenMode, std::vector<Groups>> got;
      std::map<CodeGenMode, std::uint64_t> creations;
      for (const CodeGenMode mode :
           {CodeGenMode::kCommSplit, CodeGenMode::kBatched}) {
        TransportRecorder::RequestCapture(true);
        World world(K);
        TransportRecorder::RequestCapture(false);
        LabelNodes(world, "CodeGen");
        std::vector<Groups>& mine = got[mode];
        mine.resize(static_cast<std::size_t>(K));
        RunNodes(world, [&](NodeId n) {
          Comm c = Comm::World(world, n);
          for (const auto& [mask, gc] : CreateGroups(c, masks, mode)) {
            mine[static_cast<std::size_t>(n)][mask] = {gc.id(), gc.members(),
                                                       gc.rank()};
          }
        });
        creations[mode] = world.stats().stage("CodeGen").comm_creations;
        EXPECT_EQ(world.pending_messages(), 0u);
        const TransportLog log = world.transport_log();
        std::size_t sends = 0;
        for (const TransportEvent& ev : log) {
          EXPECT_EQ(ev.tag, Comm::kTagGroups);
          sends += ev.kind == TransportEventKind::kSend;
        }
        const std::size_t rounds =
            mode == CodeGenMode::kBatched ? 1 : masks.size();
        EXPECT_EQ(sends, rounds * 2 * (K - 1));
        EXPECT_TRUE(check::AnalyzeTransport(log, K).certified());
      }
      EXPECT_EQ(got[CodeGenMode::kCommSplit], got[CodeGenMode::kBatched]);
      EXPECT_EQ(creations[CodeGenMode::kCommSplit], masks.size());
      EXPECT_EQ(creations[CodeGenMode::kBatched], masks.size());
      for (const Groups& node : got[CodeGenMode::kBatched]) {
        EXPECT_EQ(node.size(), Binomial(K - 1, r));
      }
    }
  }
}

TEST(Traffic, SendRecordsUnicastUnderCurrentStage) {
  World world(2);
  LabelNodes(world, "Shuffle");
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    if (n == 0) {
      Buffer b;
      b.resize(1000);
      c.send(1, 1, b);
    } else {
      (void)c.recv(0, 1);
    }
  });
  const auto s = world.stats().stage("Shuffle");
  EXPECT_EQ(s.unicast_msgs, 1u);
  EXPECT_EQ(s.unicast_bytes, 1000u);
  EXPECT_EQ(s.mcast_msgs, 0u);
  EXPECT_EQ(s.transmitted_bytes(), 1000u);
}

TEST(Traffic, BcastRecordsOneMulticastWithFanout) {
  constexpr int K = 5;
  World world(K);
  LabelNodes(world, "MulticastShuffle");
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    Buffer payload;
    if (n == 0) payload.resize(600);
    c.bcast(0, payload);
  });
  const auto s = world.stats().stage("MulticastShuffle");
  EXPECT_EQ(s.mcast_msgs, 1u);
  EXPECT_EQ(s.mcast_bytes, 600u);
  EXPECT_EQ(s.mcast_recipient_bytes, 600u * (K - 1));
  EXPECT_EQ(s.unicast_msgs, 0u);  // no control pollution
  EXPECT_EQ(s.transmitted_bytes(), 600u);
}

TEST(Traffic, BarrierIsUnaccounted) {
  constexpr int K = 4;
  World world(K);
  LabelNodes(world, "ControlOnly");
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    c.barrier();
    c.barrier();
  });
  const auto s = world.stats().stage("ControlOnly");
  EXPECT_EQ(s.unicast_msgs, 0u);
  EXPECT_EQ(s.unicast_bytes, 0u);
  EXPECT_EQ(s.mcast_msgs, 0u);
}

// create_groups' requests and replies are control plane, like barrier
// tokens: the stage records the communicators it creates and no data
// traffic.
TEST(Traffic, CreateGroupsRecordsOnlyCommCreations) {
  constexpr int K = 4;
  World world(K);
  LabelNodes(world, "CodeGen");
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    EXPECT_EQ(c.create_groups(AllSubsets(K, 3)).size(), 3u);
  });
  const ChannelCounters s = world.stats().stage("CodeGen");
  EXPECT_EQ(s.comm_creations, 4u);
  EXPECT_EQ(s.unicast_msgs, 0u);
  EXPECT_EQ(s.unicast_bytes, 0u);
  EXPECT_EQ(s.mcast_msgs, 0u);
  EXPECT_EQ(s.mcast_bytes, 0u);
  EXPECT_EQ(s.mcast_recipient_bytes, 0u);
  EXPECT_TRUE(world.stats().transmission_log("CodeGen").empty());
  EXPECT_EQ(world.pending_messages(), 0u);
}

// Each node relabels itself after the barrier between two stages, as
// StageRunner does.
TEST(Traffic, StagesAccumulateIndependently) {
  World world(2);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    Buffer b;
    b.resize(10);
    world.stats().set_stage(n, "A");
    if (n == 0) {
      c.send(1, 1, b);
    } else {
      (void)c.recv(0, 1);
    }
    c.barrier();
    world.stats().set_stage(n, "B");
    if (n == 1) {
      c.send(0, 1, b);
      c.send(0, 2, b);
    } else {
      (void)c.recv(1, 1);
      (void)c.recv(1, 2);
    }
  });
  EXPECT_EQ(world.stats().stage("A").unicast_msgs, 1u);
  EXPECT_EQ(world.stats().stage("B").unicast_msgs, 2u);
  EXPECT_EQ(world.stats().total().unicast_msgs, 3u);
  EXPECT_EQ(world.stats().total().unicast_bytes, 30u);
}

// Each node's traffic is charged to its own label: with node 0 in
// stage A and node 1 in stage B at the same time, each one's unicast
// and log entry land in its own stage.
TEST(Traffic, EachSenderChargesItsOwnStage) {
  World world(2);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    world.stats().set_stage(n, n == 0 ? "A" : "B");
    Buffer b;
    b.resize(n == 0 ? 10 : 20);
    c.send(1 - n, 1, b);
    (void)c.recv(1 - n, 1);
  });
  for (const auto& [stage, src, bytes] :
       {std::tuple{"A", 0, 10u}, std::tuple{"B", 1, 20u}}) {
    SCOPED_TRACE(stage);
    const ChannelCounters s = world.stats().stage(stage);
    EXPECT_EQ(s.unicast_msgs, 1u);
    EXPECT_EQ(s.unicast_bytes, bytes);
    const simnet::TransmissionLog log = world.stats().transmission_log(stage);
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].src, src);
    EXPECT_EQ(log[0].dsts, std::vector<NodeId>{1 - src});
    EXPECT_EQ(log[0].bytes, bytes);
  }
}

// Stress: all-to-all exchange with many tags, verifying no message is
// lost or cross-delivered under thread contention.
TEST(Stress, AllToAllExchange) {
  constexpr int K = 8;
  constexpr int kRounds = 20;
  World world(K);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    for (int round = 0; round < kRounds; ++round) {
      for (int dst = 0; dst < K; ++dst) {
        if (dst == n) continue;
        Buffer b;
        b.write_i32(n);
        b.write_i32(dst);
        b.write_i32(round);
        c.send(dst, round, b);
      }
      for (int src = 0; src < K; ++src) {
        if (src == n) continue;
        Buffer b = c.recv(src, round);
        EXPECT_EQ(b.read_i32(), src);
        EXPECT_EQ(b.read_i32(), n);
        EXPECT_EQ(b.read_i32(), round);
      }
    }
  });
  EXPECT_EQ(world.pending_messages(), 0u);
}

}  // namespace
}  // namespace cts::simmpi
