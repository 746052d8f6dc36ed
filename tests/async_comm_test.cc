// Tests for the nonblocking simmpi layer: isend/irecv/ibcast_recv
// Requests, wait completion, FIFO matching, self-sends, initiation-time
// traffic accounting, and shutdown leak detection of posted-but-
// unmatched receives.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "common/check.h"
#include "simmpi/comm.h"
#include "simmpi/mailbox.h"
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

Buffer BufferOfI32(std::int32_t v) {
  Buffer b;
  b.write_i32(v);
  return b;
}

TEST(AsyncComm, IsendCompletesImmediately) {
  World world(2);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    if (n == 0) {
      Request req = c.isend(1, 1, BufferOfI32(42));
      EXPECT_TRUE(req.done());  // eager-buffered: complete at initiation
      EXPECT_TRUE(c.wait(req).empty());
    } else {
      EXPECT_EQ(c.recv(0, 1).read_i32(), 42);
    }
  });
  EXPECT_EQ(world.pending_messages(), 0u);
}

TEST(AsyncComm, IrecvMatchesBlockingSend) {
  World world(2);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    if (n == 0) {
      c.send(1, 7, BufferOfI32(1234));
    } else {
      Request req = c.irecv(0, 7);
      EXPECT_EQ(c.wait(req).read_i32(), 1234);
    }
  });
  EXPECT_EQ(world.pending_messages(), 0u);
}

// MPI's non-overtaking guarantee carries over: two isends on the same
// (source, tag, comm) key complete two irecvs posted for that key in
// sending order, regardless of wait order.
TEST(AsyncComm, FifoOrderingPerKey) {
  constexpr int kMessages = 16;
  World world(2);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    if (n == 0) {
      for (int i = 0; i < kMessages; ++i) {
        (void)c.isend(1, 3, BufferOfI32(i));
      }
    } else {
      std::vector<Request> reqs;
      reqs.reserve(kMessages);
      for (int i = 0; i < kMessages; ++i) reqs.push_back(c.irecv(0, 3));
      // Wait in reverse posting order: message order must still be
      // FIFO in POSTING order, not wait order.
      std::vector<std::int32_t> got(kMessages, -1);
      for (int i = kMessages - 1; i >= 0; --i) {
        got[static_cast<std::size_t>(i)] =
            c.wait(reqs[static_cast<std::size_t>(i)]).read_i32();
      }
      for (int i = 0; i < kMessages; ++i) {
        EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
      }
    }
  });
  EXPECT_EQ(world.pending_messages(), 0u);
}

// Messages with distinct tags match their irecvs regardless of the
// order sends and receives were issued in.
TEST(AsyncComm, OutOfOrderTagMatching) {
  World world(2);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    if (n == 0) {
      (void)c.isend(1, 10, BufferOfI32(100));
      (void)c.isend(1, 20, BufferOfI32(200));
      (void)c.isend(1, 30, BufferOfI32(300));
    } else {
      // Post receives for the tags in reverse order; each matches its
      // tag, not arrival order.
      Request r30 = c.irecv(0, 30);
      Request r20 = c.irecv(0, 20);
      Request r10 = c.irecv(0, 10);
      EXPECT_EQ(c.wait(r30).read_i32(), 300);
      EXPECT_EQ(c.wait(r10).read_i32(), 100);
      EXPECT_EQ(c.wait(r20).read_i32(), 200);
    }
  });
  EXPECT_EQ(world.pending_messages(), 0u);
}

TEST(AsyncComm, WaitallReturnsAllInRequestOrder) {
  constexpr int K = 6;
  World world(K);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    std::vector<Request> reqs;
    for (int src = 0; src < K; ++src) {
      if (src == n) continue;
      reqs.push_back(c.irecv(src, 5));
    }
    for (int dst = 0; dst < K; ++dst) {
      if (dst == n) continue;
      reqs.push_back(c.isend(dst, 5, BufferOfI32(n * 100)));
    }
    std::vector<Buffer> msgs;
    for (Request& req : reqs) msgs.push_back(c.wait(req));
    ASSERT_EQ(msgs.size(), 2u * (K - 1));
    std::size_t i = 0;
    for (int src = 0; src < K; ++src) {
      if (src == n) continue;
      EXPECT_EQ(msgs[i++].read_i32(), src * 100);
    }
    for (; i < msgs.size(); ++i) EXPECT_TRUE(msgs[i].empty());  // sends
  });
  EXPECT_EQ(world.pending_messages(), 0u);
}

// Unlike the blocking pair (where send-to-self throws), the
// nonblocking pair supports self-messaging: isend is eager, so
// isend(self) + irecv(self) cannot deadlock.
TEST(AsyncComm, SelfSendCompletes) {
  World world(1);
  Comm c = Comm::World(world, 0);
  Request send = c.isend(0, 4, BufferOfI32(7));
  EXPECT_TRUE(send.done());
  Request recv = c.irecv(0, 4);
  EXPECT_EQ(c.wait(recv).read_i32(), 7);
  EXPECT_EQ(world.pending_messages(), 0u);
}

// Self-sends are loopback and must not pollute the network load
// measurements; remote isends account at initiation.
TEST(AsyncComm, TrafficAccountedAtInitiationAndNotForLoopback) {
  World world(2);
  world.stats().set_stage(0, "Shuffle");  // node 0 is the only sender
  Comm c = Comm::World(world, 0);
  Buffer big;
  big.resize(500);
  (void)c.isend(0, 1, big);  // loopback: unaccounted
  EXPECT_EQ(world.stats().stage("Shuffle").unicast_msgs, 0u);
  (void)c.isend(1, 1, big);  // remote: accounted before any recv exists
  const auto s = world.stats().stage("Shuffle");
  EXPECT_EQ(s.unicast_msgs, 1u);
  EXPECT_EQ(s.unicast_bytes, 500u);
  // Drain so shutdown hygiene holds.
  Request self_recv = c.irecv(0, 1);
  (void)c.wait(self_recv);
  Comm peer = Comm::World(world, 1);
  (void)peer.recv(0, 1);
  EXPECT_EQ(world.pending_messages(), 0u);
}

// ibcast_recv overlaps multicast rounds: every root transmits before
// any receiver drains.
TEST(AsyncComm, IbcastRecvOverlapsRoots) {
  constexpr int K = 3;
  World world(K);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    std::vector<std::pair<NodeId, Request>> recvs;
    for (int root = 0; root < K; ++root) {
      if (root == n) continue;
      recvs.emplace_back(root, c.ibcast_recv(root));
    }
    Buffer mine = BufferOfI32(n * 11);
    c.bcast(n, mine);  // every node is a root once; no turn-taking
    for (auto& [root, req] : recvs) {
      EXPECT_EQ(c.wait(req).read_i32(), root * 11);
    }
  });
  EXPECT_EQ(world.pending_messages(), 0u);
}

// Regression: a receive that was posted but never matched by a send
// must be visible at shutdown — World::pending_messages() counts
// still-posted receives alongside queued messages, so neither leaked
// messages nor leaked requests pass the hygiene checks silently.
TEST(AsyncComm, UnmatchedPostedIrecvDetectedAtShutdown) {
  World world(2);
  Comm c = Comm::World(world, 1);
  {
    Request req = c.irecv(0, 2);  // never matched, never completed
    EXPECT_FALSE(req.done());
    EXPECT_EQ(world.pending_messages(), 1u);
  }
  // Destroying the abandoned request does NOT absolve it.
  EXPECT_EQ(world.pending_messages(), 1u);
}

TEST(AsyncComm, MatchedButUnwaitedPairStillDetected) {
  World world(2);
  Comm sender = Comm::World(world, 0);
  Comm receiver = Comm::World(world, 1);
  (void)sender.isend(1, 2, BufferOfI32(1));
  Request req = receiver.irecv(0, 2);
  // Message queued AND receive still posted: both count.
  EXPECT_EQ(world.pending_messages(), 2u);
  (void)receiver.wait(req);
  EXPECT_EQ(world.pending_messages(), 0u);
}

// A moved-from Request is a null handle: it cannot double-claim the
// ticket or double-retire the posted-recv counter.
TEST(AsyncComm, MoveResetsSourceRequest) {
  World world(2);
  Comm sender = Comm::World(world, 0);
  Comm receiver = Comm::World(world, 1);
  (void)sender.isend(1, 6, BufferOfI32(9));
  Request a = receiver.irecv(0, 6);
  Request b = std::move(a);
  EXPECT_TRUE(a.null());  // NOLINT(bugprone-use-after-move): the point
  EXPECT_THROW((void)Comm::wait(a), CheckError);
  EXPECT_EQ(Comm::wait(b).read_i32(), 9);
  EXPECT_EQ(world.pending_messages(), 0u);
}

TEST(AsyncComm, NegativeUserTagRejected) {
  World world(2);
  Comm c = Comm::World(world, 0);
  Buffer b;
  EXPECT_THROW((void)c.isend(1, -1, b), CheckError);
  EXPECT_THROW((void)c.irecv(1, -3), CheckError);
}

// Stress: overlapped all-to-all with interleaved isend/irecv across
// many tags under real thread contention.
TEST(AsyncComm, StressOverlappedAllToAll) {
  constexpr int K = 8;
  constexpr int kRounds = 20;
  World world(K);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    for (int round = 0; round < kRounds; ++round) {
      std::vector<Request> recvs;
      for (int src = 0; src < K; ++src) {
        if (src == n) continue;
        recvs.push_back(c.irecv(src, round));
      }
      for (int dst = 0; dst < K; ++dst) {
        if (dst == n) continue;
        Buffer b;
        b.write_i32(n);
        b.write_i32(round);
        (void)c.isend(dst, round, b);
      }
      std::size_t i = 0;
      for (int src = 0; src < K; ++src) {
        if (src == n) continue;
        Buffer b = c.wait(recvs[i++]);
        EXPECT_EQ(b.read_i32(), src);
        EXPECT_EQ(b.read_i32(), round);
      }
    }
  });
  EXPECT_EQ(world.pending_messages(), 0u);
}

}  // namespace
}  // namespace cts::simmpi
