// MetricRegistry: named counters and histograms shared by every
// subsystem that wants to be observable.
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
// mutex), and the handles are lock-free — counters and histogram
// buckets are relaxed atomics. Registration (the striped map lookup)
// is the only mutex-taking operation; hot paths resolve their handles
// once and then mutate through them. Metrics are always on — there is
// no compiled-out build — so every handle operation is deliberately a
// handful of relaxed atomic instructions, cheap enough for the
// transport hot path (the bench_micro trend gate enforces this).
//
// Naming convention (enforced by style, not code):
//   <subsystem>/<object>[/<stage>]/<metric>
//   e.g. simmpi/Shuffle/unicast_bytes, job/cache_hits,
//        simscen/flows_requeued
// Names never end in "_s" or "total_s": those suffixes belong to the
// makespan metrics the bench trend gate watches, and a registry key
// must not be mistaken for one.
//
// Snapshots flatten to std::map<std::string, double>: counters by
// value, histograms expanded to <name>/count, <name>/sum, <name>/max
// and <name>/p50-p99 bucket upper-bound estimates. The map plugs
// directly into bench::JsonReport (which embeds it under the
// artifact's "metrics" key) and the run ledger. The registry is
// process-wide and cumulative; RunCache freezes each execution's
// deltas into AlgorithmResult::run_metrics, the per-run view.
//
// Header-only: the registry sits below every subsystem (transport,
// DES, cache, driver) and needs no translation unit of its own.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

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

// Power-of-two-bucketed histogram of non-negative samples. record() is
// two relaxed atomic adds plus a CAS loop for the running sum — no
// locks, so concurrent recorders never serialize. Quantiles are
// geometric-midpoint bucket estimates (within sqrt 2 of the true
// value), which is all an observability readout needs.
class Histogram {
 public:
  // Buckets: [0, 1), [1, 2), [2, 4), ... doubling up to 2^62, plus a
  // final overflow bucket. Samples are scaled by the caller (record
  // seconds as microseconds, bytes as bytes) to land in range.
  static constexpr int kBuckets = 64;

  void record(double sample) {
    if (!(sample >= 0)) return;  // negatives and NaN are dropped
    buckets_[bucket_of(sample)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // Relaxed CAS accumulation: double has no fetch_add until C++20's
    // is optional; the loop is short and contention-tolerant.
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + sample,
                                       std::memory_order_relaxed)) {
    }
    double mx = max_.load(std::memory_order_relaxed);
    while (sample > mx && !max_.compare_exchange_weak(
                              mx, sample, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }

  // Geometric midpoint (upper bound / sqrt 2) of the bucket containing
  // the q-quantile sample — the estimate with the smallest worst-case
  // relative error (sqrt 2, vs 2x for the upper bound) given only the
  // bucket. 0 when empty; q is clamped to [0, 1] — casting a negative
  // rank to uint64_t would be undefined.
  double quantile(double q) const {
    const std::uint64_t n = count();
    if (n == 0) return 0;
    q = std::min(std::max(q, 0.0), 1.0);
    const std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += buckets_[b].load(std::memory_order_relaxed);
      if (seen > rank) return upper_bound(b) / kSqrt2;
    }
    return upper_bound(kBuckets - 1) / kSqrt2;
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr double kSqrt2 = 1.4142135623730951;

  static int bucket_of(double sample) {
    if (sample < 1.0) return 0;
    const int e = std::ilogb(sample);  // floor(log2) for finite >= 1
    return std::min(e + 1, kBuckets - 1);
  }
  static double upper_bound(int bucket) {
    return bucket >= kBuckets - 1
               ? std::ldexp(1.0, kBuckets - 1)
               : std::ldexp(1.0, bucket);  // bucket b covers [2^(b-1), 2^b)
  }

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> max_{0};
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
    return get_or_create(name, Kind::kCounter).counter_or_die(name);
  }
  Histogram& histogram(const std::string& name) {
    return get_or_create(name, Kind::kHistogram).histogram_or_die(name);
  }

  // Flat name -> value view of everything registered. Counters report
  // their value, histograms expand to /count, /sum, /max, /p50, /p99
  // (skipped entirely while empty so quiet histograms don't spam
  // snapshots).
  std::map<std::string, double> Snapshot() const {
    std::map<std::string, double> out;
    for (const Stripe& s : stripes_) {
      std::lock_guard lock(s.mu);
      for (const auto& [name, m] : s.metrics) {
        switch (m->kind) {
          case Kind::kCounter:
            out[name] = static_cast<double>(m->counter.value());
            break;
          case Kind::kHistogram:
            if (m->histogram.count() == 0) break;
            out[name + "/count"] =
                static_cast<double>(m->histogram.count());
            out[name + "/sum"] = m->histogram.sum();
            out[name + "/max"] = m->histogram.max();
            out[name + "/p50"] = m->histogram.quantile(0.5);
            out[name + "/p99"] = m->histogram.quantile(0.99);
            break;
        }
      }
    }
    return out;
  }

  // Zeroes every value, keeping registrations (and outstanding
  // handles) intact. Call between runs to scope a snapshot.
  void Reset() {
    for (Stripe& s : stripes_) {
      std::lock_guard lock(s.mu);
      for (auto& [name, m] : s.metrics) {
        switch (m->kind) {
          case Kind::kCounter:
            m->counter.reset();
            break;
          case Kind::kHistogram:
            m->histogram.reset();
            break;
        }
      }
    }
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const Stripe& s : stripes_) {
      std::lock_guard lock(s.mu);
      n += s.metrics.size();
    }
    return n;
  }

 private:
  enum class Kind { kCounter, kHistogram };

  struct Metric {
    explicit Metric(Kind k) : kind(k) {}
    const Kind kind;
    Counter counter;
    Histogram histogram;

    Counter& counter_or_die(const std::string& name) {
      check_kind(Kind::kCounter, name);
      return counter;
    }
    Histogram& histogram_or_die(const std::string& name) {
      check_kind(Kind::kHistogram, name);
      return histogram;
    }
    void check_kind(Kind want, const std::string& name) const {
      if (kind != want) {
        // Re-registering a name as a different kind is a programming
        // error; abort with the offending name rather than silently
        // aliasing two meanings onto one key.
        std::fprintf(stderr, "MetricRegistry: '%s' registered twice with "
                             "different kinds\n", name.c_str());
        std::abort();
      }
    }
  };

  // Stripe count: enough that concurrent registrations rarely
  // collide, small enough that Snapshot stays a trivial sweep.
  static constexpr std::size_t kStripes = 16;

  struct Stripe {
    mutable std::mutex mu;
    std::map<std::string, std::unique_ptr<Metric>> metrics;
  };

  // Get-or-create: the first registration fixes the kind, *_or_die
  // aborts on a mismatched re-registration.
  Metric& get_or_create(const std::string& name, Kind kind) {
    Stripe& s = stripes_[std::hash<std::string>{}(name) % kStripes];
    std::lock_guard lock(s.mu);
    auto& slot = s.metrics[name];
    if (!slot) slot = std::make_unique<Metric>(kind);
    return *slot;
  }

  Stripe stripes_[kStripes];
};

}  // namespace cts::obs
