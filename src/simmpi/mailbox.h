// Point-to-point message transport (blocking and nonblocking fronts).
//
// One Mailbox per destination node. Messages are keyed by
// (communicator id, source node, tag) and matched FIFO per key —
// exactly MPI's non-overtaking guarantee for matching (source, tag,
// comm) triples. send() is eager-buffered (the payload is placed in
// the destination mailbox and send returns), which matches MPI_Send
// semantics for the message sizes the simulator moves.
//
// Matching happens in POSTING order, as in MPI: every receive — the
// blocking receive() as well as a posted irecv — takes a ticket, the
// next free slot in the key's match sequence, and the ticket claims
// the message with the same arrival index. Two irecvs posted for one
// key therefore complete with the first and second message sent on
// that key no matter which is waited first.
//
// Posted-receive tracking: every posted irecv increments a counter
// that only its completing wait decrements, so a receive that is
// posted but never matched shows up in pending() — and hence in
// World::pending_messages() — at shutdown, exactly like a leaked
// message would.
//
// Abort: once a mailbox is aborted (World::abort), every receive
// blocked on it wakes with WorldAborted, and every later receive fails
// the same way, so a node program that throws cannot leave its peers
// waiting for messages it will never send.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "common/buffer.h"
#include "common/types.h"
#include "simmpi/eventlog.h"

namespace cts::simmpi {

using CommId = std::uint32_t;
using Tag = std::int32_t;

// What a receive throws once its world was aborted.
struct WorldAborted : std::runtime_error {
  WorldAborted() : std::runtime_error("receive in an aborted world") {}
};

class Mailbox {
 public:
  // `owner` is the destination node this mailbox belongs to;
  // `recorder`, when armed, captures the matching-relevant events for
  // the happens-before analysis in src/check (see simmpi/eventlog.h).
  explicit Mailbox(NodeId owner = 0, TransportRecorder* recorder = nullptr)
      : owner_(owner), recorder_(recorder) {}

  // Enqueues a message for this mailbox's owner.
  void deliver(CommId comm, NodeId src, Tag tag, Buffer payload) {
    {
      std::lock_guard lock(mu_);
      auto& state = keys_[Key{comm, src, tag}];
      record(TransportEventKind::kSend, /*performer=*/src, src, comm, tag,
             state.arrived, payload.size());
      state.msgs.emplace(state.arrived++, std::move(payload));
    }
    cv_.notify_all();
  }

  // Reserves the next match slot of the key (the posting half of an
  // irecv). The returned ticket is redeemed with claim.
  std::uint64_t post(CommId comm, NodeId src, Tag tag) {
    std::lock_guard lock(mu_);
    posted_recvs_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t ticket = keys_[Key{comm, src, tag}].next_ticket++;
    record(TransportEventKind::kPost, owner_, src, comm, tag, ticket, 0);
    return ticket;
  }

  // Blocks until the message with arrival index `ticket` on the key
  // is present, then removes and returns it. Throws WorldAborted once
  // the mailbox is aborted.
  Buffer claim(CommId comm, NodeId src, Tag tag, std::uint64_t ticket) {
    std::unique_lock lock(mu_);
    const Key key{comm, src, tag};
    cv_.wait(lock, [&] {
      const auto it = keys_.find(key);
      return aborted_ ||
             (it != keys_.end() && it->second.msgs.contains(ticket));
    });
    if (aborted_) throw WorldAborted();
    Buffer payload = take(key, ticket);
    record(TransportEventKind::kMatch, owner_, src, comm, tag, ticket,
           payload.size());
    return payload;
  }

  // Blocking receive: reserve the key's next match slot and claim it.
  Buffer receive(CommId comm, NodeId src, Tag tag) {
    std::uint64_t ticket;
    {
      std::lock_guard lock(mu_);
      ticket = keys_[Key{comm, src, tag}].next_ticket++;
      record(TransportEventKind::kPost, owner_, src, comm, tag, ticket, 0);
    }
    return claim(comm, src, tag, ticket);
  }

  // Wakes every receive blocked here with WorldAborted; every later
  // one fails the same way.
  void abort() {
    std::lock_guard lock(mu_);
    aborted_ = true;
    cv_.notify_all();
  }

  // Retires a posted receive once its wait completed it. An
  // abandoned request is deliberately never retired so leak checks
  // see it.
  void retire_recv() {
    posted_recvs_.fetch_sub(1, std::memory_order_relaxed);
  }

  // Queued messages plus still-posted receives (for tests and
  // shutdown leak checks; both must drain to zero on a clean run).
  std::size_t pending() const {
    std::lock_guard lock(mu_);
    std::size_t n = posted_recvs_.load(std::memory_order_relaxed);
    for (const auto& [key, state] : keys_) n += state.msgs.size();
    return n;
  }

 private:
  using Key = std::tuple<CommId, NodeId, Tag>;

  // Per-key match state. `arrived` and `next_ticket` never reset while
  // the key is live; the state is reclaimed once every delivered
  // message has been claimed and no reservation is outstanding.
  struct KeyState {
    std::map<std::uint64_t, Buffer> msgs;  // arrival index -> message
    std::uint64_t arrived = 0;             // messages ever delivered
    std::uint64_t next_ticket = 0;         // match slots ever reserved
  };

  // Requires mu_ held (stamps drawn under it order every kMatch after
  // the kSend it consumes; see TransportRecorder::Record).
  void record(TransportEventKind kind, NodeId performer, NodeId src,
              CommId comm, Tag tag, std::uint64_t index,
              std::uint64_t bytes) {
    if (recorder_ == nullptr || !recorder_->armed()) return;
    TransportEvent ev;
    ev.kind = kind;
    ev.performer = performer;
    ev.dst = owner_;
    ev.src = src;
    ev.comm = comm;
    ev.tag = tag;
    ev.index = index;
    ev.bytes = bytes;
    recorder_->Record(ev);
  }

  // Requires mu_ held and the ticket's message present. Reclaims the
  // key state only when nothing is queued AND no reservation is
  // outstanding (an outstanding ticket anticipates a future arrival
  // index, which an erase would reset).
  Buffer take(const Key& key, std::uint64_t ticket) {
    const auto it = keys_.find(key);
    Buffer payload = std::move(it->second.msgs.at(ticket));
    it->second.msgs.erase(ticket);
    if (it->second.msgs.empty() &&
        it->second.next_ticket == it->second.arrived) {
      keys_.erase(it);
    }
    return payload;
  }

  const NodeId owner_ = 0;
  TransportRecorder* const recorder_ = nullptr;
  // repo-lint: allow(mutex): the transport is already sharded one
  // mailbox per destination node — this is that shard's lock.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<Key, KeyState> keys_;
  bool aborted_ = false;  // guarded by mu_
  std::atomic<std::size_t> posted_recvs_{0};
};

}  // namespace cts::simmpi
