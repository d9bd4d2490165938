#ifndef DKINDEX_COMMON_METRICS_H_
#define DKINDEX_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace dki {

// Process-wide observability for the serving path: named monotonic counters
// and latency histograms, registered on first use and kept for the process
// lifetime. Increments are lock-free (relaxed atomics — the values are
// statistics, not synchronization). Every metric keeps kMetricStripes
// cache-line-aligned copies of its cells and a thread records into the
// stripe of its per-thread index, so readers on different cores never
// bounce one line between them; reads, snapshots and resets visit all
// stripes. Registration takes a mutex but happens once per name; call sites
// cache the returned reference (see DKI_METRIC_COUNTER).
//
// Naming convention: dotted lowercase paths grouped by subsystem, e.g.
// "eval.index.calls", "wal.append_bytes", "index.dk.add_edge.latency". One
// instrument per measurement: a timed scope records one Histogram named
// "<scope>.latency", whose count is the call count — no ".calls" counter
// beside it. Counters count what a histogram cannot: successes only,
// failures, bytes, nodes.

// Stripes per metric. Threads take indexes round-robin on their first
// record, so threads that start recording one after another share a cell
// only once more than this many have started.
inline constexpr int kMetricStripes = 8;

namespace metrics_internal {

constexpr size_t kCacheLine = 64;

int NextStripe();

inline int ThisThreadStripe() {
  thread_local const int stripe = NextStripe();
  return stripe;
}

}  // namespace metrics_internal

class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void Increment(int64_t delta = 1) {
    cells_[metrics_internal::ThisThreadStripe()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  int64_t value() const {
    int64_t sum = 0;
    for (const Cell& c : cells_) sum += c.value.load(std::memory_order_relaxed);
    return sum;
  }
  const std::string& name() const { return name_; }

  // Test support: counters are process-global, so tests compare deltas or
  // reset explicitly.
  void Reset() {
    for (Cell& c : cells_) c.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(metrics_internal::kCacheLine) Cell {
    std::atomic<int64_t> value{0};
  };
  const std::string name_;
  std::array<Cell, kMetricStripes> cells_{};
};

// A point-in-time view of one Histogram (relaxed loads; consistent enough
// for reporting). Percentiles interpolate linearly inside the containing
// bucket, so their relative error is bounded by the bucket width — at most
// 1/2^kSubBucketBits (25%) of the value, and exact below 2^kSubBucketBits.
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;   // of recorded values
  int64_t max = 0;
  std::array<int64_t, 256> buckets{};  // Histogram::kNumBuckets

  // Value at quantile q in [0, 1]; 0 when empty. Monotone in q.
  double ValueAtQuantile(double q) const;
  double p50() const { return ValueAtQuantile(0.50); }
  double p95() const { return ValueAtQuantile(0.95); }
  double p99() const { return ValueAtQuantile(0.99); }
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

// Lock-free log-linear-bucketed histogram of non-negative values (nanosecond
// latencies by convention). Record() costs one relaxed atomic add on the
// containing bucket of the thread's stripe (plus a sum add and a wait-free
// max update there) — cheap enough for the serving hot path. Buckets:
// 2^kSubBucketBits linear sub-buckets per power-of-two octave (the
// HdrHistogram layout), so percentile error is bounded at 25% of the value
// while one stripe's table is 256 atomics.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 2;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 4 per octave
  static constexpr int kNumBuckets = 64 * kSubBuckets;     // covers int64

  explicit Histogram(std::string name) : name_(std::move(name)) {}

  void Record(int64_t value) {
    const uint64_t v = value <= 0 ? 0 : static_cast<uint64_t>(value);
    Stripe& s = stripes_[metrics_internal::ThisThreadStripe()];
    s.buckets[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(static_cast<int64_t>(v), std::memory_order_relaxed);
    int64_t prev = s.max.load(std::memory_order_relaxed);
    while (static_cast<int64_t>(v) > prev &&
           !s.max.compare_exchange_weak(prev, static_cast<int64_t>(v),
                                        std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot snapshot() const;
  const std::string& name() const { return name_; }

  void Reset();

  // Bucket geometry (shared with HistogramSnapshot::ValueAtQuantile).
  static size_t BucketIndex(uint64_t v) {
    if (v < static_cast<uint64_t>(kSubBuckets)) return static_cast<size_t>(v);
    const int msb = std::bit_width(v) - 1;  // >= kSubBucketBits here
    const uint64_t sub = (v >> (msb - kSubBucketBits)) &
                         static_cast<uint64_t>(kSubBuckets - 1);
    return static_cast<size_t>((msb - kSubBucketBits + 1) * kSubBuckets +
                               static_cast<int>(sub));
  }
  static int64_t BucketLowerBound(size_t index);
  static int64_t BucketWidth(size_t index);

 private:
  struct alignas(metrics_internal::kCacheLine) Stripe {
    std::array<std::atomic<int64_t>, kNumBuckets> buckets{};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> max{0};
  };
  const std::string name_;
  std::array<Stripe, kMetricStripes> stripes_{};
};

// RAII scope latency recorder feeding a Histogram (nanoseconds).
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* histogram);
  ~ScopedLatency();

  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* histogram_;
  int64_t start_nanos_;
};

// One row of MetricsRegistry::Snapshot().
struct MetricSample {
  std::string name;
  int64_t value = 0;  // counter value
};

// One row of MetricsRegistry::SnapshotHistograms().
struct HistogramSample {
  std::string name;
  HistogramSnapshot snapshot;
};

// The process-wide registry. Metric objects are never destroyed or
// re-registered, so references returned here stay valid forever — cache them
// at call sites instead of re-looking-up per event.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Returns the counter/histogram registered under `name`, creating it if
  // new.
  Counter& GetCounter(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  // A consistent-enough view for reporting: every counter that existed at
  // the call, with relaxed-loaded values, sorted by name. Histograms have
  // their own snapshot call (their sample shape differs).
  std::vector<MetricSample> Snapshot() const;
  std::vector<HistogramSample> SnapshotHistograms() const;

  // Human-readable dump of Snapshot() + SnapshotHistograms() (one
  // "name value" line per counter; histograms as count plus
  // mean/p50/p95/p99/max milliseconds).
  void Dump(std::ostream* out) const;

  // Zeroes every registered metric (tests and bench phase boundaries).
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;  // guards the maps, not the metric values
  // Stable addresses: the registry hands out references into these.
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
};

// Caches the registry lookup in a function-local static so hot paths pay
// only the atomic increment after the first call.
#define DKI_METRIC_COUNTER(name)                                        \
  ([]() -> ::dki::Counter& {                                            \
    static ::dki::Counter& counter =                                    \
        ::dki::MetricsRegistry::Global().GetCounter(name);              \
    return counter;                                                     \
  }())

#define DKI_METRIC_HISTOGRAM(name)                                     \
  ([]() -> ::dki::Histogram& {                                         \
    static ::dki::Histogram& histogram =                               \
        ::dki::MetricsRegistry::Global().GetHistogram(name);           \
    return histogram;                                                  \
  }())

}  // namespace dki

#endif  // DKINDEX_COMMON_METRICS_H_
