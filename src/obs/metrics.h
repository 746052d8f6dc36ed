// MetricRegistry: named counters shared by every subsystem that wants
// to be observable.
//
// The registry is the "new columns are cheap" substrate the ROADMAP's
// fleet-planner and job-service items ask for: a component registers a
// metric once (a stable slash-separated name, see the naming
// convention below), mutates it through a handle, and every consumer —
// ctsort --metrics, the bench --json artifacts, JobResult snapshots —
// reads the same flat name -> value map without knowing who produced
// it.
//
// Concurrency: the registry itself is lock-striped (the name ->
// handle map is sharded by name hash, each stripe with its own
// mutex), and the handles are lock-free — counters are relaxed
// atomics. Registration (the striped map lookup) is the only
// mutex-taking operation; hot paths resolve their handles once and
// then add through them. Metrics are always on — there is no
// compiled-out build — so every handle operation is deliberately one
// relaxed atomic add, cheap enough for the transport hot path (the
// bench_micro trend gate enforces this).
//
// Naming convention (enforced by style, not code):
//   <subsystem>/<object>[/<stage>]/<metric>
//   e.g. simmpi/Shuffle/unicast_bytes, job/cache_hits,
//        simscen/flows_requeued
// Names never end in "_s" or "total_s": those suffixes belong to the
// makespan metrics the bench trend gate watches, and a registry key
// must not be mistaken for one.
//
// Snapshots flatten to std::map<std::string, double>, one exact count
// per counter, so values add across runs and jobs. The map plugs
// directly into bench::JsonReport (which embeds it under the
// artifact's "metrics" key) and the run ledger. The registry is
// process-wide and cumulative; a per-job view is the difference of two
// snapshots taken around the job.
//
// Header-only: the registry sits below every subsystem (transport,
// DES, cache, driver) and needs no translation unit of its own.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace cts::obs {

// Monotonic event count. add() is a relaxed atomic increment; readers
// see a value that is exact once the writers are quiescent (the same
// contract TrafficStats aggregation has).
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// The registry: stable handles keyed by name. Handles live as long as
// the registry (values are node-owned unique_ptrs; Reset() zeroes
// values but never invalidates handles, so cached pointers in hot
// paths survive test-scoped resets).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // The process-wide default registry. Components default to it so
  // observability needs no plumbing through every constructor; tests
  // that need isolation construct their own and pass it explicitly.
  static MetricRegistry& Global() {
    static MetricRegistry* g = new MetricRegistry();  // never destroyed
    return *g;
  }

  Counter& counter(const std::string& name) {
    Stripe& s = stripes_[std::hash<std::string>{}(name) % kStripes];
    std::lock_guard lock(s.mu);
    auto& slot = s.counters[name];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
  }

  // Flat name -> value view of every registered counter.
  std::map<std::string, double> Snapshot() const {
    std::map<std::string, double> out;
    for (const Stripe& s : stripes_) {
      std::lock_guard lock(s.mu);
      for (const auto& [name, c] : s.counters) {
        out[name] = static_cast<double>(c->value());
      }
    }
    return out;
  }

  // Zeroes every value, keeping registrations (and outstanding
  // handles) intact. Call between runs to scope a snapshot.
  void Reset() {
    for (Stripe& s : stripes_) {
      std::lock_guard lock(s.mu);
      for (auto& [name, c] : s.counters) c->reset();
    }
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const Stripe& s : stripes_) {
      std::lock_guard lock(s.mu);
      n += s.counters.size();
    }
    return n;
  }

 private:
  // Stripe count: enough that concurrent registrations rarely
  // collide, small enough that Snapshot stays a trivial sweep.
  static constexpr std::size_t kStripes = 16;

  struct Stripe {
    mutable std::mutex mu;
    std::map<std::string, std::unique_ptr<Counter>> counters;
  };

  Stripe stripes_[kStripes];
};

}  // namespace cts::obs
