#include "common/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace dki {
namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

namespace metrics_internal {

int NextStripe() {
  static std::atomic<int> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kMetricStripes;
}

}  // namespace metrics_internal

ScopedLatency::ScopedLatency(Histogram* histogram)
    : histogram_(histogram), start_nanos_(NowNanos()) {}

ScopedLatency::~ScopedLatency() {
  histogram_->Record(NowNanos() - start_nanos_);
}

int64_t Histogram::BucketLowerBound(size_t index) {
  if (index < static_cast<size_t>(kSubBuckets)) {
    return static_cast<int64_t>(index);
  }
  const int octave = static_cast<int>(index) / kSubBuckets;
  const int sub = static_cast<int>(index) % kSubBuckets;
  return static_cast<int64_t>(kSubBuckets + sub) << (octave - 1);
}

int64_t Histogram::BucketWidth(size_t index) {
  if (index < static_cast<size_t>(kSubBuckets)) return 1;
  return int64_t{1} << (static_cast<int>(index) / kSubBuckets - 1);
}

void Histogram::Reset() {
  for (Stripe& s : stripes_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  for (const Stripe& s : stripes_) {
    for (size_t i = 0; i < s.buckets.size(); ++i) {
      snap.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
    snap.max = std::max(snap.max, s.max.load(std::memory_order_relaxed));
  }
  size_t highest_nonzero = 0;
  for (size_t i = 0; i < snap.buckets.size(); ++i) {
    snap.count += snap.buckets[i];
    if (snap.buckets[i] > 0) highest_nonzero = i;
  }
  // Record() bumps the bucket and the max in two independent relaxed
  // stores, so a snapshot racing it can observe the bucket increment but a
  // stale max (e.g. count > 0 with max == 0) — and ValueAtQuantile clamps
  // every quantile to that bogus max. Restore the invariant "max covers
  // every counted observation" from the buckets themselves: an observation
  // in bucket i is at least BucketLowerBound(i).
  if (snap.count > 0) {
    snap.max = std::max(snap.max, BucketLowerBound(highest_nonzero));
  }
  return snap;
}

double HistogramSnapshot::ValueAtQuantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the q-quantile observation (1-based, nearest-rank rule).
  const int64_t target = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(count))));
  int64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (cumulative + buckets[i] >= target) {
      const double frac = static_cast<double>(target - cumulative) /
                          static_cast<double>(buckets[i]);
      const double value =
          static_cast<double>(Histogram::BucketLowerBound(i)) +
          frac * static_cast<double>(Histogram::BucketWidth(i));
      // The true maximum is tracked exactly; never report past it.
      return std::min(value, static_cast<double>(max));
    }
    cumulative += buckets[i];
  }
  return static_cast<double>(max);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& c : counters_) {
    if (c->name() == name) return *c;
  }
  counters_.push_back(std::make_unique<Counter>(name));
  return *counters_.back();
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& h : histograms_) {
    if (h->name() == name) return *h;
  }
  histograms_.push_back(std::make_unique<Histogram>(name));
  return *histograms_.back();
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::vector<MetricSample> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(counters_.size());
    for (const auto& c : counters_) out.push_back({c->name(), c->value()});
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<HistogramSample> MetricsRegistry::SnapshotHistograms() const {
  std::vector<HistogramSample> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(histograms_.size());
    for (const auto& h : histograms_) {
      out.push_back({h->name(), h->snapshot()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const HistogramSample& a, const HistogramSample& b) {
              return a.name < b.name;
            });
  return out;
}

void MetricsRegistry::Dump(std::ostream* out) const {
  for (const MetricSample& s : Snapshot()) {
    *out << s.name << " " << s.value << "\n";
  }
  for (const HistogramSample& h : SnapshotHistograms()) {
    const HistogramSnapshot& snap = h.snapshot;
    *out << h.name << " count=" << snap.count
         << " mean=" << snap.mean() / 1e6 << "ms p50=" << snap.p50() / 1e6
         << "ms p95=" << snap.p95() / 1e6 << "ms p99=" << snap.p99() / 1e6
         << "ms max=" << static_cast<double>(snap.max) / 1e6 << "ms\n";
  }
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& c : counters_) c->Reset();
  for (const auto& h : histograms_) h->Reset();
}

}  // namespace dki
