// Transport event capture for happens-before analysis (src/check).
//
// When capture is requested, every Mailbox records the three moments
// that determine MPI matching: a message arriving on a key (kSend,
// performed by the sending thread, stamped with the arrival index it
// claimed), a receive reserving the key's next match slot (kPost,
// performed by the mailbox owner, stamped with the ticket), and a
// wait/test redeeming a ticket (kMatch). The merged, stamp-ordered
// stream is one valid linearization of the run; the race detector
// rebuilds vector clocks over it and decides whether it is the *only*
// one (a determinism certificate) or whether two concurrent sends
// could have matched a key's posted receives in either order.
//
// Cost model: capture is off by default — the hot path pays one
// pointer test and one predictable branch per transport operation
// (the bench_micro trend gate keeps this honest). When armed, each
// event appends under the recorder's one lock, stamped with its index
// in the log; mailboxes record while holding their own lock, so stamps
// respect both program order and every deliver -> claim edge.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/types.h"

namespace cts::simmpi {

using CommId = std::uint32_t;
using Tag = std::int32_t;

// Wildcard receive source (MPI_ANY_SOURCE analogue) in analysis
// inputs. The live transport never posts one — Mailbox keys are always
// fully named — which is exactly why real runs can certify: the
// constant exists for synthetic logs (tests, the injected-race
// regression) and for any future wildcard-receive extension.
inline constexpr NodeId kAnySource = -1;

enum class TransportEventKind : std::uint8_t {
  kSend,   // message delivered onto (dst, comm, src, tag); index = its
           // arrival slot on that key
  kPost,   // receive reserved the key's next match slot; index = ticket
  kMatch,  // a wait/test redeemed `index` (the ticket == arrival index
           // it consumes under posting-order matching)
};

struct TransportEvent {
  TransportEventKind kind = TransportEventKind::kSend;
  NodeId performer = 0;  // thread that executed the operation
  NodeId dst = 0;        // mailbox owner
  NodeId src = 0;        // key source (kAnySource on wildcard posts)
  CommId comm = 0;
  Tag tag = 0;
  std::uint64_t index = 0;  // arrival index / ticket on the key
  std::uint64_t bytes = 0;  // payload size (kSend / kMatch)
  std::uint64_t stamp = 0;  // global draw order — a valid linearization
};

using TransportLog = std::vector<TransportEvent>;

// One recorder per World, armed at construction from the process-wide
// capture request (so enabling capture never races a running cluster).
class TransportRecorder {
 public:
  // Process-wide request, read by every World constructed afterwards.
  // ctcheck and the check tests set it before executing a run.
  static void RequestCapture(bool on) {
    capture_requested().store(on, std::memory_order_relaxed);
  }
  static bool CaptureRequested() {
    return capture_requested().load(std::memory_order_relaxed);
  }

  TransportRecorder() : armed_(CaptureRequested()) {}

  bool armed() const { return armed_; }

  // Appends `ev`, stamped with its index in the log. Callers hold the
  // mailbox lock of ev.dst, which orders each kMatch stamp after the
  // stamp of the kSend it consumes.
  void Record(TransportEvent ev) {
    std::lock_guard lock(mu_);
    ev.stamp = events_.size();
    events_.push_back(ev);
  }

  // The log in stamp order. Call once the cluster threads have joined
  // (the same quiescence contract TrafficStats has).
  TransportLog Snapshot() const {
    std::lock_guard lock(mu_);
    return events_;
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return events_.size();
  }

 private:
  static std::atomic<bool>& capture_requested() {
    static std::atomic<bool> requested{false};
    return requested;
  }

  const bool armed_;
  // Taken only while capture is armed (ctcheck, the check tests), so
  // no other run pays for it: live walls at coded K = 32 / 48 (r = 3)
  // and TeraSort K = 100 are unchanged. Armed, it serializes the
  // mailboxes: coded K = 32, r = 3 overlapped Shuffle 0.50–0.57 s →
  // 0.97–1.14 s against 16 stripes (4-vCPU VM); ctcheck's K = 8 sweep
  // did not slow.
  // repo-lint: allow(mutex): off every unarmed run's path; see above.
  mutable std::mutex mu_;
  TransportLog events_;
};

}  // namespace cts::simmpi
