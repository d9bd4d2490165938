// Mixed read/update serving benchmark: N reader threads evaluate a fixed
// query workload against QueryServer snapshots while one producer submits a
// continuous stream of Section 6.2 edge toggles that the server's writer
// thread applies and republishes. Reports reader throughput and republish
// latency per reader count (the EXPERIMENTS.md "concurrent serving" table).
//
// Correctness of the concurrent path (bit-identical to the sequential
// interleaving) is asserted in tests/serve_test.cc; this binary measures it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "common/metrics.h"
#include "index/dk_index.h"
#include "serve/query_server.h"

namespace dki {
namespace {

struct ConfigResult {
  int readers = 0;
  int64_t reads = 0;
  double elapsed_sec = 0.0;
  double reads_per_sec = 0.0;
  int64_t ops_applied = 0;
  int64_t publishes = 0;
  double republish_mean_ms = 0.0;
  double cache_hit_rate = 0.0;
};

ConfigResult RunConfig(const DkIndex& source,
                       const std::vector<std::string>& queries,
                       const std::vector<std::pair<NodeId, NodeId>>& edges,
                       const std::set<std::pair<NodeId, NodeId>>& initial,
                       int num_readers, double duration_sec) {
  MetricsRegistry::Global().ResetAll();
  QueryServer::Options options;
  options.max_batch = 8;
  QueryServer server(source, options);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> total_reads{0};

  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(num_readers));
  for (int r = 0; r < num_readers; ++r) {
    readers.emplace_back([&, r] {
      int64_t reads = 0;
      size_t i = static_cast<size_t>(r);  // de-phase the reader loops
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = server.Evaluate(queries[i++ % queries.size()]);
        if (!result.has_value()) break;  // parse errors are impossible here
        ++reads;
      }
      total_reads.fetch_add(reads, std::memory_order_relaxed);
    });
  }

  // The producer: toggle each recipe edge (add if absent in the served
  // state, remove if present), paced so the writer keeps republishing for
  // the whole window rather than going idle after an initial burst.
  std::thread producer([&] {
    std::set<std::pair<NodeId, NodeId>> present = initial;
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto& e = edges[i++ % edges.size()];
      auto it = present.find(e);
      if (it == present.end()) {
        server.SubmitAddEdge(e.first, e.second);
        present.insert(e);
      } else {
        server.SubmitRemoveEdge(e.first, e.second);
        present.erase(it);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int64_t>(duration_sec * 1000)));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  producer.join();
  auto elapsed = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  server.Flush();
  server.Stop();

  ConfigResult out;
  out.readers = num_readers;
  out.reads = total_reads.load();
  out.elapsed_sec = elapsed;
  out.reads_per_sec = static_cast<double>(out.reads) / elapsed;
  QueryServer::Stats stats = server.stats();
  out.ops_applied = stats.ops_applied;
  out.publishes = stats.publishes;
  out.republish_mean_ms = MetricsRegistry::Global()
                              .GetHistogram("serve.writer.republish.latency")
                              .snapshot()
                              .mean() /
                          1e6;
  ResultCache::Stats cs = server.cache_stats();
  if (cs.hits + cs.misses > 0) {
    out.cache_hit_rate = static_cast<double>(cs.hits) /
                         static_cast<double>(cs.hits + cs.misses);
  }
  return out;
}

// Batched read throughput against an otherwise idle server: each round trip
// evaluates `batch_size` queries (the workload cycled) through
// QueryServer::EvaluateBatch over `batch_threads` lanes. The cache is
// disabled (budget 0) so every query exercises the frozen evaluator rather
// than the LRU.
double RunBatchConfig(const DkIndex& source,
                      const std::vector<std::string>& workload,
                      size_t batch_size, int batch_threads,
                      double duration_sec) {
  std::vector<std::string> queries;
  queries.reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    queries.push_back(workload[i % workload.size()]);
  }
  QueryServer::Options options;
  options.batch_threads = batch_threads;
  options.cache_byte_budget = 0;
  QueryServer server(source, options);
  int64_t evaluated = 0;
  auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::milliseconds(
                  static_cast<int64_t>(duration_sec * 1000));
  while (std::chrono::steady_clock::now() < deadline) {
    auto results = server.EvaluateBatch(queries);
    evaluated += static_cast<int64_t>(results.size());
  }
  auto elapsed = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  server.Stop();
  return static_cast<double>(evaluated) / elapsed;
}

int Main(int argc, char** argv) {
  // --small: the CI smoke configuration — tiny dataset, short windows,
  // fewer configs — just enough to catch regressions in the serving path.
  // --json PATH: also emit the results in the shared BENCH_*.json shape
  // (bench/bench_json.h, schema in docs/BENCHMARKS.md).
  bool small = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small") small = true;
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
  }
  bench::Dataset dataset =
      bench::MakeXmark(small ? 0.1 : bench::ScaleFromEnv());
  bench::PrintDatasetBanner(dataset);
  const double duration_sec = small ? 0.3 : 2.0;
  const std::vector<int> reader_configs =
      small ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  const std::vector<int> batch_configs =
      small ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

  DataGraph build_copy = dataset.graph;
  auto workload = bench::MakeWorkload(build_copy, 20, 20030609);
  LabelRequirements reqs =
      bench::MineWorkloadRequirements(workload, build_copy.labels());
  DkIndex dk = DkIndex::Build(&build_copy, reqs);

  std::vector<std::string> queries;
  for (const auto& q : workload) queries.push_back(q.text());

  auto edges = bench::MakeUpdateEdges(dataset, 128, 7);
  std::set<std::pair<NodeId, NodeId>> initial;
  for (const auto& e : edges) {
    if (build_copy.HasEdge(e.first, e.second)) initial.insert(e);
  }

  std::printf("\nMixed workload: %d-query cycle per reader, 1 producer "
              "toggling %zu recipe edges (~2000 ops/s), writer batch=8\n",
              static_cast<int>(queries.size()), edges.size());
  std::printf("\n%-8s %12s %12s %10s %10s %16s %10s\n", "readers", "reads",
              "reads/sec", "applied", "publishes", "republish(ms)",
              "hit_rate");
  bench::Json mixed_rows = bench::Json::Array();
  for (int readers : reader_configs) {
    ConfigResult r =
        RunConfig(dk, queries, edges, initial, readers, duration_sec);
    std::printf("%-8d %12lld %12.0f %10lld %10lld %16.3f %10.2f\n", r.readers,
                static_cast<long long>(r.reads), r.reads_per_sec,
                static_cast<long long>(r.ops_applied),
                static_cast<long long>(r.publishes), r.republish_mean_ms,
                r.cache_hit_rate);
    bench::Json row = bench::Json::Object();
    row.Set("readers", bench::Json::Int(r.readers));
    row.Set("reads", bench::Json::Int(r.reads));
    row.Set("reads_per_sec", bench::Json::Num(r.reads_per_sec));
    row.Set("ops_applied", bench::Json::Int(r.ops_applied));
    row.Set("publishes", bench::Json::Int(r.publishes));
    row.Set("republish_mean_ms", bench::Json::Num(r.republish_mean_ms));
    row.Set("cache_hit_rate", bench::Json::Num(r.cache_hit_rate));
    mixed_rows.Push(std::move(row));
  }

  const size_t batch_size = small ? 40 : 160;
  std::printf("\nBatch evaluation (EvaluateBatch, cache disabled, idle "
              "writer): %zu-query batches (%d-query cycle)\n",
              batch_size, static_cast<int>(queries.size()));
  std::printf("\n%-14s %14s\n", "batch_threads", "queries/sec");
  bench::Json batch_rows = bench::Json::Array();
  for (int threads : batch_configs) {
    double qps =
        RunBatchConfig(dk, queries, batch_size, threads, duration_sec);
    std::printf("%-14d %14.0f\n", threads, qps);
    bench::Json row = bench::Json::Object();
    row.Set("batch_threads", bench::Json::Int(threads));
    row.Set("queries_per_sec", bench::Json::Num(qps));
    batch_rows.Push(std::move(row));
  }

  if (!json_path.empty()) {
    bench::Json root = bench::Json::Object();
    root.Set("bench", bench::Json::Str("serve_mixed"));
    root.Set("version", bench::Json::Int(1));
    bench::Json ds = bench::Json::Object();
    ds.Set("name", bench::Json::Str(dataset.name));
    ds.Set("nodes", bench::Json::Int(dataset.graph.NumNodes()));
    ds.Set("edges", bench::Json::Int(dataset.graph.NumEdges()));
    root.Set("dataset", std::move(ds));
    root.Set("mixed", std::move(mixed_rows));
    root.Set("batch", std::move(batch_rows));
    std::string error;
    if (!bench::Json::WriteFile(json_path, root, &error)) {
      std::fprintf(stderr, "serve_mixed: %s\n", error.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace dki

int main(int argc, char** argv) { return dki::Main(argc, argv); }
