#include "common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "index/dk_index.h"
#include "query/evaluator.h"
#include "serve/query_server.h"
#include "tests/test_util.h"

namespace dki {
namespace {

TEST(MetricsTest, CounterRegistrationIsStableAndNamed) {
  Counter& c = MetricsRegistry::Global().GetCounter("test.metrics.stable");
  Counter& again = MetricsRegistry::Global().GetCounter("test.metrics.stable");
  EXPECT_EQ(&c, &again);  // one object per name, forever
  c.Reset();
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42);
  EXPECT_EQ(c.name(), "test.metrics.stable");
}

TEST(MetricsTest, ConcurrentIncrementsAreLossless) {
  Counter& c = MetricsRegistry::Global().GetCounter("test.metrics.concurrent");
  c.Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<int64_t>(kThreads) * kPerThread);
}

TEST(MetricsTest, SnapshotContainsRegisteredMetricsSorted) {
  MetricsRegistry::Global().GetCounter("test.metrics.snap_b").Reset();
  MetricsRegistry::Global().GetCounter("test.metrics.snap_a").Increment(7);
  auto snapshot = MetricsRegistry::Global().Snapshot();
  ASSERT_GE(snapshot.size(), 2u);
  for (size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LE(snapshot[i - 1].name, snapshot[i].name);
  }
  bool found = false;
  for (const MetricSample& s : snapshot) {
    if (s.name == "test.metrics.snap_a") {
      found = true;
      EXPECT_EQ(s.value, 7);
    }
  }
  EXPECT_TRUE(found);
}

// More recording threads than stripes, so threads share stripes: records
// stay lossless, Reset and ResetAll clear every stripe, and the histogram's
// max and sum stay exact across stripes.
TEST(MetricsTest, StripedCellsAreLosslessAndResetEverywhere) {
  constexpr int kThreads = 16;
  static_assert(kThreads > kMetricStripes);
  constexpr int kPerThread = 5000;
  auto& registry = MetricsRegistry::Global();
  Counter& c = registry.GetCounter("test.metrics.striped.counter");
  Histogram& h = registry.GetHistogram("test.metrics.striped.hist");
  auto record_everywhere = [&] {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        for (int j = 0; j < kPerThread; ++j) {
          c.Increment(2);
          h.Record(i * 100 + j % 7);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  };
  c.Reset();
  h.Reset();
  record_everywhere();
  EXPECT_EQ(c.value(), int64_t{2} * kThreads * kPerThread);
  HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, int64_t{kThreads} * kPerThread);
  EXPECT_EQ(snap.max, (kThreads - 1) * 100 + 6);
  int64_t expected_sum = 0;
  for (int i = 0; i < kThreads; ++i) {
    for (int j = 0; j < kPerThread; ++j) expected_sum += i * 100 + j % 7;
  }
  EXPECT_EQ(snap.sum, expected_sum);

  c.Reset();
  h.Reset();
  EXPECT_EQ(c.value(), 0);
  snap = h.snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.sum, 0);
  EXPECT_EQ(snap.max, 0);

  record_everywhere();
  registry.ResetAll();
  EXPECT_EQ(c.value(), 0);
  snap = h.snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.sum, 0);
  EXPECT_EQ(snap.max, 0);
}

// ---------------------------------------------------------------------------
// Histogram: bucket geometry, percentile accuracy, concurrency.
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketGeometryIsContiguous) {
  // Every value maps into a bucket whose [lower, lower + width) range
  // contains it, and bucket boundaries tile the axis with no gaps. The
  // values straddle every octave boundary up to INT64_MAX.
  std::vector<uint64_t> values = {5, 100, 123456789};
  for (int k = 0; k <= 62; ++k) {
    const uint64_t p = uint64_t{1} << k;
    values.insert(values.end(), {p - 1, p, p + 1});
  }
  values.push_back(static_cast<uint64_t>(INT64_MAX));
  for (uint64_t v : values) {
    const size_t idx = Histogram::BucketIndex(v);
    ASSERT_LT(idx, static_cast<size_t>(Histogram::kNumBuckets)) << v;
    const uint64_t lo = static_cast<uint64_t>(Histogram::BucketLowerBound(idx));
    const uint64_t width = static_cast<uint64_t>(Histogram::BucketWidth(idx));
    EXPECT_GE(v, lo) << v;
    EXPECT_LT(v - lo, width) << v;  // v < lo + width, which can pass 2^63-1
  }
  for (size_t idx = 1; idx < 64; ++idx) {
    EXPECT_EQ(Histogram::BucketLowerBound(idx),
              Histogram::BucketLowerBound(idx - 1) +
                  Histogram::BucketWidth(idx - 1));
  }
}

TEST(HistogramTest, ExactBelowSubBucketCount) {
  Histogram h("test.hist.exact");
  for (int i = 0; i < 100; ++i) h.Record(i % Histogram::kSubBuckets);
  HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 100);
  for (size_t b = 0; b < static_cast<size_t>(Histogram::kSubBuckets); ++b) {
    EXPECT_EQ(snap.buckets[b], 25);
  }
}

TEST(HistogramTest, PercentilesWithinBucketErrorBound) {
  // Uniform values 1..10000: every reported quantile must be within one
  // bucket width (<= 25%) of the true order statistic.
  Histogram h("test.hist.quantiles");
  const int kN = 10000;
  for (int v = 1; v <= kN; ++v) h.Record(v);
  HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, kN);
  EXPECT_EQ(snap.max, kN);
  for (double q : {0.10, 0.50, 0.95, 0.99}) {
    const double truth = q * kN;
    const double got = snap.ValueAtQuantile(q);
    EXPECT_GE(got, truth * 0.75) << q;
    EXPECT_LE(got, truth * 1.25) << q;
  }
  EXPECT_LE(snap.ValueAtQuantile(1.0), static_cast<double>(snap.max));
  EXPECT_NEAR(snap.mean(), (kN + 1) / 2.0, 1.0);
}

TEST(HistogramTest, QuantilesAreMonotoneAndClampedByMax) {
  Histogram h("test.hist.monotone");
  h.Record(5);
  h.Record(1000);
  h.Record(7);
  HistogramSnapshot snap = h.snapshot();
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = snap.ValueAtQuantile(q);
    EXPECT_GE(v, prev);
    EXPECT_LE(v, static_cast<double>(snap.max));
    prev = v;
  }
}

TEST(HistogramTest, EmptyAndNegativeInputsAreSafe) {
  Histogram h("test.hist.edge");
  EXPECT_EQ(h.snapshot().ValueAtQuantile(0.5), 0.0);
  h.Record(-17);  // clamped to 0, not UB
  HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1);
  EXPECT_EQ(snap.buckets[0], 1);
}

TEST(HistogramTest, ConcurrentRecordsAreLossless) {
  Histogram& h =
      MetricsRegistry::Global().GetHistogram("test.hist.concurrent");
  h.Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.Record(t * 1000 + i);
    });
  }
  for (auto& th : threads) th.join();
  HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<int64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.max, (kThreads - 1) * 1000 + kPerThread - 1);
}

TEST(HistogramTest, SnapshotMaxCoversCountedObservationsUnderRaces) {
  // Record() bumps the bucket and the max in two separate relaxed atomic
  // ops; a snapshot landing between them used to report count > 0 with a
  // stale max (even 0), and ValueAtQuantile clamps EVERY quantile to max —
  // so a freshly loaded histogram read p50 == p99 == 0. The snapshot now
  // reconstructs a covering max from the buckets. Hammer the interleaving:
  // a writer recording a constant value, a reader snapshotting in a loop.
  Histogram& h =
      MetricsRegistry::Global().GetHistogram("test.hist.snapshot_race");
  h.Reset();
  constexpr int64_t kValue = 4096;  // exact bucket lower bound
  std::atomic<bool> stop{false};
  std::thread writer([&h, &stop] {
    while (!stop.load(std::memory_order_relaxed)) h.Record(kValue);
  });
  for (int i = 0; i < 50000; ++i) {
    HistogramSnapshot snap = h.snapshot();
    if (snap.count == 0) continue;
    // The invariant the fix restores: the reported max covers every counted
    // observation (>= the highest nonzero bucket's lower bound), so
    // quantiles can never clamp below the data.
    ASSERT_GE(snap.max, kValue) << "stale max with count=" << snap.count;
    ASSERT_GE(snap.ValueAtQuantile(0.99), static_cast<double>(kValue));
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(HistogramTest, SnapshotMaxStillExactWhenQuiescent) {
  Histogram& h =
      MetricsRegistry::Global().GetHistogram("test.hist.snapshot_exact");
  h.Reset();
  h.Record(12345);
  h.Record(7);
  HistogramSnapshot snap = h.snapshot();
  // With no concurrent writer the tracked max is already covering, and the
  // clamp must not inflate it past the true maximum.
  EXPECT_EQ(snap.max, 12345);
}

TEST(HistogramTest, RegistryRegistrationAndDump) {
  Histogram& h = MetricsRegistry::Global().GetHistogram("test.hist.dump");
  Histogram& again =
      MetricsRegistry::Global().GetHistogram("test.hist.dump");
  EXPECT_EQ(&h, &again);
  h.Reset();
  h.Record(1000000);  // 1ms
  auto samples = MetricsRegistry::Global().SnapshotHistograms();
  bool found = false;
  for (const HistogramSample& s : samples) {
    if (s.name == "test.hist.dump") {
      found = true;
      EXPECT_EQ(s.snapshot.count, 1);
    }
  }
  EXPECT_TRUE(found);
  std::ostringstream dump;
  MetricsRegistry::Global().Dump(&dump);
  EXPECT_NE(dump.str().find("test.hist.dump count=1 mean=1ms p50="),
            std::string::npos)
      << dump.str();
  EXPECT_NE(dump.str().find("p99"), std::string::npos);
}

// The count of a scope's "<scope>.latency" histogram is its call count: no
// code may record a "<scope>.calls" counter beside it.
void ExpectNoCallsCounterBesideLatency() {
  auto& registry = MetricsRegistry::Global();
  std::set<std::string> counters;
  for (const MetricSample& s : registry.Snapshot()) counters.insert(s.name);
  const std::string suffix = ".latency";
  for (const HistogramSample& h : registry.SnapshotHistograms()) {
    if (!h.name.ends_with(suffix)) continue;
    const std::string scope = h.name.substr(0, h.name.size() - suffix.size());
    EXPECT_EQ(counters.count(scope + ".calls"), 0u) << scope;
  }
}

int64_t HistogramCount(const std::string& name) {
  return MetricsRegistry::Global().GetHistogram(name).snapshot().count;
}

TEST(MetricsTest, ServingPathIsInstrumented) {
  MetricsRegistry::Global().ResetAll();
  DataGraph g = testing_util::BuildMovieGraph();
  LabelRequirements reqs;
  reqs[g.labels().Find("title")] = 2;
  DkIndex dk = DkIndex::Build(&g, reqs);
  PathExpression q =
      testing_util::MustParse("director.movie.title", g.labels());
  EvalStats stats;
  auto result = EvaluateOnIndex(dk.index(), q, &stats);

  auto& registry = MetricsRegistry::Global();
  EXPECT_EQ(HistogramCount("index.dk.build.latency"), 1);
  EXPECT_EQ(registry.GetCounter("eval.index.calls").value(), 1);
  EXPECT_EQ(registry.GetCounter("eval.index.index_nodes_visited").value(),
            stats.index_nodes_visited);
  EXPECT_EQ(registry.GetCounter("eval.index.results").value(),
            static_cast<int64_t>(result.size()));

  dk.AddEdge(1, 2);
  EXPECT_EQ(HistogramCount("index.dk.add_edge.latency"), 1);

  // The front door: a miss, a hit and a miss through a held snapshot. Each
  // query is one histogram record.
  {
    QueryServer::Options options;
    options.tuning.period_ms = 0;  // no background retunes
    QueryServer server(dk, options);
    ASSERT_TRUE(server.Evaluate("director.movie.title").has_value());
    ASSERT_TRUE(server.Evaluate("director.movie.title").has_value());
    ASSERT_TRUE(
        server.EvaluateOn(*server.snapshot(), "actor.name").has_value());
    server.SubmitRemoveEdge(1, 2);
    server.Flush();
    EXPECT_EQ(HistogramCount("serve.query.latency"), 3);
    EXPECT_EQ(HistogramCount("serve.writer.republish.latency"),
              server.stats().publishes);
    EXPECT_EQ(HistogramCount("serve.writer.batch.latency"),
              server.stats().batches);
    EXPECT_EQ(HistogramCount("serve.writer.op.latency"), 1);
    EXPECT_EQ(HistogramCount("index.dk.remove_edge.latency"), 1);
  }

  ExpectNoCallsCounterBesideLatency();
  std::ostringstream dump;
  registry.Dump(&dump);
  EXPECT_NE(dump.str().find("eval.index.calls 1"), std::string::npos);
  EXPECT_NE(dump.str().find("serve.query.latency count=3 mean="),
            std::string::npos);
}

// Which maintenance engine ran is readable from the histogram counts alone:
// an incremental rebuild records incremental_rebuild.latency; a fallback
// bumps fallback_full and records full_rebuild.latency instead; kFullRebuild
// mode records full_rebuild.latency with no fallback.
TEST(MetricsTest, RebuildEngineCountsAreExact) {
  struct Case {
    const char* name;
    DkIndex::MaintenanceMode mode;
    bool drop_trace;  // reassemble the index from parts, as recovery does
    int demote_to;  // title's requirement after the Demote (built with 2)
    int64_t incremental, full, fallback;
  };
  const Case cases[] = {
      {"incremental demote", DkIndex::MaintenanceMode::kIncremental, false,
       1, 1, 0, 0},
      // A requirement above the trace's capture extends the trace.
      {"raised requirement", DkIndex::MaintenanceMode::kIncremental, false,
       3, 1, 0, 0},
      // No trace to project from forces the full engine.
      {"forced fallback", DkIndex::MaintenanceMode::kIncremental, true, 1, 0,
       1, 1},
      {"full-rebuild mode", DkIndex::MaintenanceMode::kFullRebuild, false, 1,
       0, 1, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    DataGraph g = testing_util::BuildMovieGraph();
    const LabelId title = g.labels().Find("title");
    DkIndex dk = DkIndex::Build(&g, {{title, 2}});
    if (c.drop_trace) {
      dk = DkIndex::FromParts(&g, dk.index(), dk.effective_requirements());
    }
    dk.set_maintenance_mode(c.mode);
    MetricsRegistry::Global().ResetAll();
    dk.Demote({{title, c.demote_to}});
    EXPECT_EQ(HistogramCount("index.dk.demote.latency"), 1);
    EXPECT_EQ(HistogramCount("index.dk.rebuild.latency"), 1);
    EXPECT_EQ(HistogramCount("index.dk.incremental_rebuild.latency"),
              c.incremental);
    EXPECT_EQ(HistogramCount("index.dk.full_rebuild.latency"), c.full);
    EXPECT_EQ(MetricsRegistry::Global()
                  .GetCounter("index.dk.incremental_rebuild.fallback_full")
                  .value(),
              c.fallback);
  }
}

}  // namespace
}  // namespace dki
