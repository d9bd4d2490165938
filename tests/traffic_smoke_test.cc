// Smoke coverage for the open-loop traffic simulator (bench/traffic_lib.h)
// and the shared BENCH_*.json emitter (bench/bench_json.h): a tiny run must
// complete every phase, and the emitted JSON must round-trip through the
// parser carrying the documented schema (docs/BENCHMARKS.md).

#include "bench/traffic_lib.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "io/fs_util.h"

namespace dki {
namespace bench {
namespace {

TEST(BenchJsonTest, RoundTripsValuesExactly) {
  Json root = Json::Object();
  root.Set("name", Json::Str("tra\"ffic\n"));
  root.Set("count", Json::Int(1234567890123));
  root.Set("rate", Json::Num(0.125));
  root.Set("ok", Json::Bool(true));
  root.Set("nothing", Json());
  Json arr = Json::Array();
  arr.Push(Json::Int(-7)).Push(Json::Num(2.5)).Push(Json::Str(""));
  root.Set("items", std::move(arr));

  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::Parse(root.ToString(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.Find("name")->AsString(), "tra\"ffic\n");
  EXPECT_EQ(parsed.Find("count")->AsInt(), 1234567890123);
  EXPECT_DOUBLE_EQ(parsed.Find("rate")->AsDouble(), 0.125);
  EXPECT_TRUE(parsed.Find("ok")->AsBool());
  EXPECT_EQ(parsed.Find("nothing")->kind(), Json::Kind::kNull);
  ASSERT_TRUE(parsed.Find("items")->is_array());
  ASSERT_EQ(parsed.Find("items")->items().size(), 3u);
  EXPECT_EQ(parsed.Find("items")->items()[0].AsInt(), -7);
  // Dump of the parse equals the dump of the original (stable formatting).
  EXPECT_EQ(parsed.ToString(), root.ToString());
}

TEST(BenchJsonTest, RejectsMalformedInput) {
  Json out;
  std::string error;
  EXPECT_FALSE(Json::Parse("{\"a\": }", &out, &error));
  EXPECT_FALSE(Json::Parse("[1, 2", &out, &error));
  EXPECT_FALSE(Json::Parse("{} trailing", &out, &error));
  EXPECT_FALSE(Json::Parse("\"unterminated", &out, &error));
  EXPECT_FALSE(error.empty());
}

// One tiny end-to-end run shared by the schema assertions below (building
// the dataset + index dominates, so run it once).
class TrafficSmokeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Dataset dataset = MakeXmark(0.05);
    TrafficOptions opts;
    opts.query_pool = 16;
    opts.workers = 2;
    opts.phase_sec = 0.15;
    opts.warm_qps = 150.0;
    opts.sweep_qps = {150.0};
    opts.drift_qps = 150.0;
    opts.tuning.period_ms = 40;
    opts.tuning.min_misses = 4;
    result_ = new TrafficResult(RunTraffic(dataset, opts));
    opts_ = new TrafficOptions(opts);
  }
  static void TearDownTestSuite() {
    delete result_;
    delete opts_;
    result_ = nullptr;
    opts_ = nullptr;
  }

  static TrafficResult* result_;
  static TrafficOptions* opts_;
};

TrafficResult* TrafficSmokeTest::result_ = nullptr;
TrafficOptions* TrafficSmokeTest::opts_ = nullptr;

TEST_F(TrafficSmokeTest, CompletesAllPhasesAndServesTraffic) {
  // warm + 1 sweep + drift.
  ASSERT_EQ(result_->phases.size(), 3u);
  EXPECT_EQ(result_->phases[0].name, "warm");
  EXPECT_EQ(result_->phases.back().name, "drift");
  int64_t total_completed = 0;
  for (const PhaseStats& p : result_->phases) {
    EXPECT_GT(p.arrivals, 0) << p.name;
    EXPECT_GE(p.completed, 0) << p.name;
    EXPECT_GE(p.p99_ms, p.p50_ms) << p.name;
    EXPECT_GE(p.max_ms, p.p99_ms) << p.name;
    total_completed += p.completed;
  }
  EXPECT_GT(total_completed, 0);
}

TEST_F(TrafficSmokeTest, EmittedJsonRoundTripsTheDocumentedSchema) {
  const std::string path =
      ::testing::TempDir() + "BENCH_traffic_smoke.json";
  Json emitted = TrafficResultToJson(*result_, *opts_);
  std::string error;
  ASSERT_TRUE(Json::WriteFile(path, emitted, &error)) << error;

  std::string contents;
  ASSERT_TRUE(ReadFileToString(path, &contents, &error)) << error;
  Json parsed;
  ASSERT_TRUE(Json::Parse(contents, &parsed, &error)) << error;
  std::remove(path.c_str());

  // Schema version 4, as documented in docs/BENCHMARKS.md.
  ASSERT_NE(parsed.Find("bench"), nullptr);
  EXPECT_EQ(parsed.Find("bench")->AsString(), "traffic");
  ASSERT_NE(parsed.Find("version"), nullptr);
  EXPECT_EQ(parsed.Find("version")->AsInt(), 4);
  const Json* dataset = parsed.Find("dataset");
  ASSERT_NE(dataset, nullptr);
  for (const char* key : {"name", "nodes", "edges", "labels"}) {
    EXPECT_NE(dataset->Find(key), nullptr) << key;
  }
  const Json* config = parsed.Find("config");
  ASSERT_NE(config, nullptr);
  for (const char* key : {"seed", "query_pool", "zipf_s", "workers",
                          "update_fraction", "deadline_ms", "phase_sec",
                          "coverage", "num_shards", "durability"}) {
    EXPECT_NE(config->Find(key), nullptr) << key;
  }
  EXPECT_EQ(config->Find("num_shards")->AsInt(), 0);
  const Json* memory = parsed.Find("memory");
  ASSERT_NE(memory, nullptr);
  for (const char* key :
       {"frozen_resident_bytes", "checkpoint_bytes_written", "max_rss_kb"}) {
    EXPECT_NE(memory->Find(key), nullptr) << key;
  }
  EXPECT_EQ(memory->members().size(), 3u);
  EXPECT_GT(memory->Find("frozen_resident_bytes")->AsInt(), 0);
  EXPECT_GT(memory->Find("max_rss_kb")->AsInt(), 0);
  const Json* phases = parsed.Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->is_array());
  ASSERT_EQ(phases->items().size(), result_->phases.size());
  for (const Json& phase : phases->items()) {
    for (const char* key :
         {"name", "offered_qps", "achieved_qps", "duration_sec", "arrivals",
          "completed", "dropped", "updates_submitted", "updates_rejected",
          "latency_ms", "metrics_delta"}) {
      EXPECT_NE(phase.Find(key), nullptr) << key;
    }
    const Json* lat = phase.Find("latency_ms");
    ASSERT_NE(lat, nullptr);
    for (const char* key : {"p50", "p95", "p99", "max", "mean"}) {
      EXPECT_NE(lat->Find(key), nullptr) << key;
    }
    const Json* deltas = phase.Find("metrics_delta");
    ASSERT_NE(deltas, nullptr);
    for (const char* key :
         {"cache_hits", "cache_misses", "publishes", "wal_appends",
          "retunes_submitted", "promote_label_calls", "demote_calls",
          "ops_applied", "cross_shard_rejects"}) {
      EXPECT_NE(deltas->Find(key), nullptr) << key;
    }
  }
  // Unsharded runs emit an empty per-shard array.
  const Json* shards = parsed.Find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_TRUE(shards->is_array());
  EXPECT_TRUE(shards->items().empty());
}

// A sharded run must complete the same phase script through the
// ShardedQueryServer front door, apply its (router-filtered) updates, and
// emit per-shard latency entries in the v2 schema.
TEST(ShardedTrafficSmokeTest, ShardedRunServesAndEmitsPerShardLatency) {
  Dataset dataset = MakeXmarkTree(0.05);
  TrafficOptions opts;
  opts.query_pool = 16;
  opts.workers = 2;
  opts.phase_sec = 0.15;
  opts.warm_qps = 150.0;
  opts.sweep_qps = {150.0};
  opts.drift_qps = 150.0;
  opts.tuning.period_ms = 40;
  opts.tuning.min_misses = 4;
  opts.update_fraction = 0.2;  // make sure the writer path is exercised
  opts.num_shards = 2;
  TrafficResult result = RunTraffic(dataset, opts);

  ASSERT_EQ(result.phases.size(), 3u);
  int64_t completed = 0, applied = 0, rejects = 0;
  for (const PhaseStats& p : result.phases) {
    completed += p.completed;
    applied += p.ops_applied;
    rejects += p.cross_shard_rejects;
  }
  EXPECT_GT(completed, 0);
  EXPECT_GT(applied, 0);  // router-filtered pool: toggles reach a writer
  EXPECT_EQ(rejects, 0);  // ...and none of them are cross-shard
  ASSERT_EQ(result.shard_latency.size(), 2u);
  int64_t shard_evals = 0;
  for (const ShardLatencyStats& l : result.shard_latency) {
    shard_evals += l.evals;
    EXPECT_GE(l.max_ms, l.p50_ms);
  }
  EXPECT_GT(shard_evals, 0);

  Json emitted = TrafficResultToJson(result, opts);
  EXPECT_EQ(emitted.Find("version")->AsInt(), 4);
  EXPECT_EQ(emitted.Find("config")->Find("num_shards")->AsInt(), 2);
  const Json* shards = emitted.Find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->items().size(), 2u);
  for (const Json& shard : shards->items()) {
    EXPECT_NE(shard.Find("shard"), nullptr);
    EXPECT_NE(shard.Find("evals"), nullptr);
    EXPECT_NE(shard.Find("latency_ms"), nullptr);
  }
}

}  // namespace
}  // namespace bench
}  // namespace dki
