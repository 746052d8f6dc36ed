#include "simmpi/comm.h"

#include "combinatorics/subsets.h"

#include <algorithm>

namespace cts::simmpi {

Comm Comm::World(class World& world, NodeId self) {
  CTS_CHECK_GE(self, 0);
  CTS_CHECK_LT(self, world.num_nodes());
  auto members = std::make_shared<std::vector<NodeId>>();
  members->reserve(static_cast<std::size_t>(world.num_nodes()));
  for (NodeId n = 0; n < world.num_nodes(); ++n) members->push_back(n);
  return Comm(&world, /*id=*/0, std::move(members), /*rank=*/self);
}

int Comm::rank_of_global(NodeId node) const {
  const auto it = std::find(members_->begin(), members_->end(), node);
  if (it == members_->end()) return -1;
  return static_cast<int>(it - members_->begin());
}

Buffer Comm::Copy(std::span<const std::uint8_t> payload) {
  Buffer copy;
  copy.write_bytes(payload);
  return copy;
}

void Comm::deliver(int dst_rank, Tag tag, Buffer payload) {
  world_->mailbox(global(dst_rank)).deliver(id_, my_global(), tag,
                                            std::move(payload));
}

void Comm::send(int dst_rank, Tag tag, Buffer&& payload) {
  CTS_CHECK_MSG(dst_rank != rank_, "send to self (rank " << rank_ << ")");
  CTS_CHECK_GE(tag, 0);  // negative tags are reserved for collectives
  world_->stats().record_unicast(payload.size(), my_global(),
                                 global(dst_rank));
  deliver(dst_rank, tag, std::move(payload));
}

Buffer Comm::recv(int src_rank, Tag tag) {
  CTS_CHECK_GE(src_rank, 0);
  CTS_CHECK_LT(src_rank, size());
  CTS_CHECK_MSG(src_rank != rank_, "recv from self (rank " << rank_ << ")");
  return world_->mailbox(my_global()).receive(id_, global(src_rank), tag);
}

Request Comm::isend(int dst_rank, Tag tag, Buffer&& payload) {
  CTS_CHECK_GE(tag, 0);  // negative tags are reserved for collectives
  if (dst_rank != rank_) {
    // Accounted at initiation: handing the payload to the mailbox is
    // the moment the bytes occupy the wire, so overlapped schedules
    // measure the same loads as blocking ones.
    world_->stats().record_unicast(payload.size(), my_global(),
                                   global(dst_rank));
  }
  // Self-sends are loopback: delivered, but never on the network.
  deliver(dst_rank, tag, std::move(payload));
  Request req;
  req.kind_ = Request::Kind::kSend;
  req.done_ = true;
  return req;
}

Request Comm::irecv(int src_rank, Tag tag) {
  CTS_CHECK_GE(src_rank, 0);
  CTS_CHECK_LT(src_rank, size());
  CTS_CHECK_GE(tag, 0);
  return post_recv(global(src_rank), tag);
}

Request Comm::ibcast_recv(int root_rank) {
  CTS_CHECK_GE(root_rank, 0);
  CTS_CHECK_LT(root_rank, size());
  CTS_CHECK_MSG(root_rank != rank_,
                "ibcast_recv at the root (rank " << rank_ << ")");
  return post_recv(global(root_rank), kTagBcast);
}

Request Comm::post_recv(NodeId src, Tag tag) {
  Request req;
  req.kind_ = Request::Kind::kRecv;
  req.mailbox_ = &world_->mailbox(my_global());
  req.comm_ = id_;
  req.src_ = src;
  req.tag_ = tag;
  // The ticket reserves the key's next match slot NOW: posted
  // receives complete in posting order (MPI matching semantics),
  // whatever order they are waited in.
  req.ticket_ = req.mailbox_->post(id_, src, tag);
  return req;
}

Buffer Comm::wait(Request& req) {
  CTS_CHECK_MSG(!req.null(), "wait on a null request");
  if (req.kind_ == Request::Kind::kSend) return Buffer{};
  if (!req.done_) {
    req.payload_ =
        req.mailbox_->claim(req.comm_, req.src_, req.tag_, req.ticket_);
    req.mailbox_->retire_recv();
    req.done_ = true;
  }
  CTS_CHECK_MSG(req.mailbox_ != nullptr, "request waited twice");
  req.mailbox_ = nullptr;  // consumed
  return std::move(req.payload_);
}

void Comm::bcast(int root_rank, Buffer& payload) {
  CTS_CHECK_GE(root_rank, 0);
  CTS_CHECK_LT(root_rank, size());
  if (size() == 1) return;
  if (rank_ == root_rank) {
    // Application-layer multicast: account a single transmission with
    // fan-out size()-1 (the serial shared channel carries it once; the
    // cost model adds the MPI_Bcast log-fanout penalty).
    std::vector<NodeId> recipients;
    recipients.reserve(static_cast<std::size_t>(size()) - 1);
    for (int m = 0; m < size(); ++m) {
      if (m != rank_) recipients.push_back(global(m));
    }
    world_->stats().record_multicast(payload.size(), my_global(),
                                     recipients);
    bcast_put(payload);
  } else {
    payload = world_->mailbox(my_global())
                  .receive(id_, global(root_rank), kTagBcast);
  }
}

void Comm::bcast_put(Buffer& payload) {
  for (int m = 0; m < size(); ++m) {
    if (m == rank_) continue;
    deliver(m, kTagBcast, payload.Share());
  }
}

void Comm::barrier() {
  if (size() == 1) return;
  if (rank_ == 0) {
    for (int m = 1; m < size(); ++m) {
      (void)world_->mailbox(my_global()).receive(id_, global(m), kTagBarrier);
    }
    for (int m = 1; m < size(); ++m) deliver(m, kTagBarrier, Buffer{});
  } else {
    deliver(0, kTagBarrier, Buffer{});
    (void)world_->mailbox(my_global()).receive(id_, global(0), kTagBarrier);
  }
}

std::map<NodeMask, Comm> Comm::create_groups(
    const std::vector<NodeMask>& groups) {
  // Requests and replies are control plane, like barrier tokens:
  // delivered, never accounted, so the stage records only the
  // communicators created.
  Buffer reply;
  if (rank_ == 0) {
    for (int m = 1; m < size(); ++m) (void)recv(m, kTagGroups);
    reply.write_u32(
        world_->allocate_comm_ids(static_cast<CommId>(groups.size())));
    world_->stats().record_comm_creation(my_global(), groups.size());
    for (int m = 1; m < size(); ++m) deliver(m, kTagGroups, reply.Share());
  } else {
    deliver(0, kTagGroups, Buffer{});
    reply = recv(0, kTagGroups);
  }
  const CommId base = reply.read_u32();

  std::map<NodeMask, Comm> mine;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const NodeMask mask = groups[i];
    CTS_CHECK_MSG((mask & ~NodesToMask(*members_)) == 0,
                  "group mask " << mask << " has non-members");
    if (!Contains(mask, my_global())) continue;
    auto members = std::make_shared<const std::vector<NodeId>>(
        MaskToNodes(mask));
    const auto it =
        std::find(members->begin(), members->end(), my_global());
    const int rank = static_cast<int>(it - members->begin());
    mine.emplace(mask, Comm(world_, base + static_cast<CommId>(i),
                            std::move(members), rank));
  }
  return mine;
}

}  // namespace cts::simmpi
