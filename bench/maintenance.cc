// Maintenance-engine benchmark: publish latency of the serving writer as
// the graph scales, incremental cone re-refinement vs full rebuilds.
//
// For each dataset × scale × maintenance mode, the same deterministic
// update stream (Section 6.2 edge toggles interleaved with shrink/grow
// retune waves) is driven through a QueryServer, and the end-to-end
// writer latency (`serve.writer.publish.latency`: batch apply + snapshot
// republish) is reported as p50/p99, alongside its split: the batch apply
// (`serve.writer.batch.latency`) and the snapshot republish
// (`serve.writer.republish.latency`), each as count/p50/p99. The sweep
// spans 10x in graph size. Its original bar, incremental p99 staying ~flat
// (<= 1.5x) across it, is NOT met: incremental publish p99 grows with the
// graph (EXPERIMENTS.md § Incremental maintenance) because costs the
// incremental engine does not cover scale with it — the O(N) snapshot
// graph copy + freeze at every publish, and the grow retune, which
// recomputes every node of a raised label in the rounds beyond the trace.
//
// The binary is also the exactness guard used by CI: after each stream it
// evaluates the mined workload on the final snapshot and hashes results +
// EvalStats. The two modes must hash identically per configuration
// (bit-identical maintenance, tests/maintenance_diff_test.cc proves the
// property; this enforces it at bench scale) — any mismatch exits nonzero.

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "common/metrics.h"
#include "index/dk_index.h"
#include "serve/query_server.h"

namespace dki {
namespace {

// Count, p50 and p99 (ms) of one latency histogram.
struct LatencySummary {
  int64_t count = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

LatencySummary Summarize(const std::string& histogram) {
  const HistogramSnapshot s =
      MetricsRegistry::Global().GetHistogram(histogram).snapshot();
  return {s.count, s.p50() / 1e6, s.p99() / 1e6};
}

struct ModeResult {
  std::string mode;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double rebuild_p50_ms = 0.0;
  double rebuild_p99_ms = 0.0;
  // The writer's split of each batch: apply (serve.writer.batch.latency)
  // vs snapshot republish (serve.writer.republish.latency).
  LatencySummary apply;
  LatencySummary republish;
  int64_t publishes = 0;
  int64_t ops_applied = 0;
  int64_t coalesced = 0;
  int64_t incremental_calls = 0;
  int64_t incremental_fallbacks = 0;
  int64_t projected_nodes = 0;
  int64_t recomputed_nodes = 0;
  int64_t full_calls = 0;
  int64_t index_nodes = 0;
  uint64_t result_hash = 0;
};

void HashMix(uint64_t* h, uint64_t v) {
  *h ^= v;
  *h *= 1099511628211ULL;  // FNV-1a step
}

// Evaluates the workload on the server's final snapshot and folds every
// result id and every EvalStats field into one hash. All inputs are
// partition-numbering-independent, so the two maintenance modes must agree.
uint64_t HashWorkloadResults(const QueryServer& server,
                             const std::vector<std::string>& queries) {
  std::shared_ptr<const IndexSnapshot> snap = server.snapshot();
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const std::string& text : queries) {
    EvalStats stats;
    std::string error;
    auto result = server.EvaluateOn(*snap, text, &stats, &error);
    if (!result.has_value()) {
      std::fprintf(stderr, "maintenance: query failed: %s\n", error.c_str());
      continue;
    }
    HashMix(&h, static_cast<uint64_t>(result->size()));
    for (NodeId n : *result) HashMix(&h, static_cast<uint64_t>(n));
    HashMix(&h, static_cast<uint64_t>(stats.index_nodes_visited));
    HashMix(&h, static_cast<uint64_t>(stats.data_nodes_visited));
    HashMix(&h, static_cast<uint64_t>(stats.validated_candidates));
    HashMix(&h, static_cast<uint64_t>(stats.uncertain_index_nodes));
    HashMix(&h, static_cast<uint64_t>(stats.result_size));
  }
  return h;
}

// Drives one deterministic update stream through a fresh server in the
// given maintenance mode. The stream alternates runs of recipe edge
// toggles with retune waves: shrink to the halved requirements, then grow
// back to the mined ones (each a Demote, i.e. a Rebuild in the mode under
// test), so every shrink has real demotion work to do. Bursts of
// back-to-back retunes exercise the writer's coalescing.
ModeResult RunStream(const bench::Dataset& dataset,
                     const std::vector<std::string>& queries,
                     const LabelRequirements& reqs,
                     const LabelRequirements& reqs_low,
                     const std::vector<std::pair<NodeId, NodeId>>& edges,
                     DkIndex::MaintenanceMode mode, int waves,
                     int toggles_per_wave) {
  MetricsRegistry::Global().ResetAll();
  DataGraph graph = dataset.graph;  // private copy: the server mutates it
  DkIndex dk = DkIndex::Build(&graph, reqs);
  dk.set_maintenance_mode(mode);

  QueryServer::Options options;
  options.max_batch = 8;
  QueryServer server(dk, options);

  std::set<std::pair<NodeId, NodeId>> present;
  for (const auto& e : edges) {
    if (graph.HasEdge(e.first, e.second)) present.insert(e);
  }
  size_t edge_cursor = 0;
  for (int wave = 0; wave < waves; ++wave) {
    for (int t = 0; t < toggles_per_wave; ++t) {
      const auto& e = edges[edge_cursor++ % edges.size()];
      auto it = present.find(e);
      if (it == present.end()) {
        server.SubmitAddEdge(e.first, e.second);
        present.insert(e);
      } else {
        server.SubmitRemoveEdge(e.first, e.second);
        present.erase(it);
      }
    }
    // An overlapping pair of shrink waves back to back: the second
    // supersedes the first inside one batch (coalescing path), then the
    // grow restores the mined requirements for the next round.
    server.SubmitRetune(reqs_low, /*shrink=*/true);
    server.SubmitRetune(reqs_low, /*shrink=*/true);
    server.SubmitRetune(reqs, /*shrink=*/false);
  }
  server.Flush();

  ModeResult out;
  out.mode = mode == DkIndex::MaintenanceMode::kIncremental ? "incremental"
                                                            : "full_rebuild";
  out.result_hash = HashWorkloadResults(server, queries);
  out.index_nodes = server.snapshot()->frozen().num_index_nodes();
  QueryServer::Stats stats = server.stats();
  out.publishes = stats.publishes;
  out.ops_applied = stats.ops_applied;
  out.coalesced = stats.ops_coalesced;
  server.Stop();

  MetricsRegistry& m = MetricsRegistry::Global();
  HistogramSnapshot lat =
      m.GetHistogram("serve.writer.publish.latency").snapshot();
  out.p50_ms = lat.ValueAtQuantile(0.5) / 1e6;
  out.p99_ms = lat.p99() / 1e6;
  HistogramSnapshot rebuild =
      m.GetHistogram("index.dk.rebuild.latency").snapshot();
  out.rebuild_p50_ms = rebuild.ValueAtQuantile(0.5) / 1e6;
  out.rebuild_p99_ms = rebuild.p99() / 1e6;
  out.apply = Summarize("serve.writer.batch.latency");
  out.republish = Summarize("serve.writer.republish.latency");
  out.incremental_fallbacks =
      m.GetCounter("index.dk.incremental_rebuild.fallback_full").value();
  // A fallback records full_rebuild.latency, not incremental_rebuild's.
  out.incremental_calls =
      m.GetHistogram("index.dk.incremental_rebuild.latency").snapshot().count +
      out.incremental_fallbacks;
  out.projected_nodes =
      m.GetCounter("index.dk.incremental_rebuild.projected_nodes").value();
  out.recomputed_nodes =
      m.GetCounter("index.dk.incremental_rebuild.recomputed_nodes").value();
  out.full_calls =
      m.GetHistogram("index.dk.full_rebuild.latency").snapshot().count;
  return out;
}

bench::Json ModeJson(const ModeResult& r) {
  bench::Json j = bench::Json::Object();
  j.Set("mode", bench::Json::Str(r.mode));
  j.Set("p50_ms", bench::Json::Num(r.p50_ms));
  j.Set("p99_ms", bench::Json::Num(r.p99_ms));
  j.Set("rebuild_p50_ms", bench::Json::Num(r.rebuild_p50_ms));
  j.Set("rebuild_p99_ms", bench::Json::Num(r.rebuild_p99_ms));
  for (const auto& [prefix, l] : {std::pair{"apply", r.apply},
                                   std::pair{"republish", r.republish}}) {
    j.Set(std::string(prefix) + "_count", bench::Json::Int(l.count));
    j.Set(std::string(prefix) + "_p50_ms", bench::Json::Num(l.p50_ms));
    j.Set(std::string(prefix) + "_p99_ms", bench::Json::Num(l.p99_ms));
  }
  j.Set("publishes", bench::Json::Int(r.publishes));
  j.Set("ops_applied", bench::Json::Int(r.ops_applied));
  j.Set("ops_coalesced", bench::Json::Int(r.coalesced));
  j.Set("incremental_calls", bench::Json::Int(r.incremental_calls));
  j.Set("incremental_fallbacks", bench::Json::Int(r.incremental_fallbacks));
  j.Set("projected_nodes", bench::Json::Int(r.projected_nodes));
  j.Set("recomputed_nodes", bench::Json::Int(r.recomputed_nodes));
  j.Set("full_calls", bench::Json::Int(r.full_calls));
  j.Set("index_nodes", bench::Json::Int(r.index_nodes));
  j.Set("result_hash", bench::Json::Str(std::to_string(r.result_hash)));
  return j;
}

int Main(int argc, char** argv) {
  bool small = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small") small = true;
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
  }

  // The sweep spans 10x in dataset scale. --small is the CI smoke shape:
  // two tiny scales, fewer waves — enough to exercise both engines and the
  // hash guard without holding the job hostage.
  const std::vector<double> scales =
      small ? std::vector<double>{0.05, 0.1}
            : std::vector<double>{0.1, 0.25, 0.5, 1.0};
  const int waves = small ? 6 : 16;
  const int toggles_per_wave = 5;
  const double env_scale = small ? 1.0 : bench::ScaleFromEnv();

  bench::Json rows = bench::Json::Array();
  bool hashes_match = true;

  std::printf("%-6s %-6s %9s %9s | %-12s %9s %9s %9s %9s %6s %6s %6s | "
              "%6s %9s %9s %6s %9s %9s\n",
              "data", "scale", "nodes", "edges", "mode", "p50(ms)", "p99(ms)",
              "rb50(ms)", "rb99(ms)", "pub", "coal", "fall", "apply",
              "ap50(ms)", "ap99(ms)", "repub", "rp50(ms)", "rp99(ms)");
  for (const char* which : {"xmark", "nasa"}) {
    for (double scale : scales) {
      bench::Dataset dataset = std::string(which) == "xmark"
                                   ? bench::MakeXmark(scale * env_scale)
                                   : bench::MakeNasa(scale * env_scale);
      DataGraph mine_copy = dataset.graph;
      auto workload = bench::MakeWorkload(mine_copy, 12, 424243);
      LabelRequirements reqs =
          bench::MineWorkloadRequirements(workload, mine_copy.labels());
      LabelRequirements reqs_low;
      for (const auto& [label, k] : reqs) reqs_low[label] = k / 2;
      std::vector<std::string> queries;
      for (const auto& q : workload) queries.push_back(q.text());
      auto edges = bench::MakeUpdateEdges(dataset, 64, 11);

      std::vector<ModeResult> results;
      for (auto mode : {DkIndex::MaintenanceMode::kIncremental,
                        DkIndex::MaintenanceMode::kFullRebuild}) {
        results.push_back(RunStream(dataset, queries, reqs, reqs_low, edges,
                                    mode, waves, toggles_per_wave));
        const ModeResult& r = results.back();
        std::printf("%-6s %-6.2f %9lld %9lld | %-12s %9.3f %9.3f %9.3f "
                    "%9.3f %6lld %6lld %6lld | %6lld %9.3f %9.3f %6lld %9.3f "
                    "%9.3f\n",
                    which, scale,
                    static_cast<long long>(dataset.graph.NumNodes()),
                    static_cast<long long>(dataset.graph.NumEdges()),
                    r.mode.c_str(), r.p50_ms, r.p99_ms, r.rebuild_p50_ms,
                    r.rebuild_p99_ms, static_cast<long long>(r.publishes),
                    static_cast<long long>(r.coalesced),
                    static_cast<long long>(r.incremental_fallbacks),
                    static_cast<long long>(r.apply.count), r.apply.p50_ms,
                    r.apply.p99_ms, static_cast<long long>(r.republish.count),
                    r.republish.p50_ms, r.republish.p99_ms);
      }
      bool match = results[0].result_hash == results[1].result_hash &&
                   results[0].index_nodes == results[1].index_nodes;
      if (!match) {
        hashes_match = false;
        std::fprintf(stderr,
                     "maintenance: HASH MISMATCH %s scale=%.2f "
                     "incremental=%llu full=%llu\n",
                     which, scale,
                     static_cast<unsigned long long>(results[0].result_hash),
                     static_cast<unsigned long long>(results[1].result_hash));
      }
      bench::Json row = bench::Json::Object();
      row.Set("dataset", bench::Json::Str(which));
      row.Set("scale", bench::Json::Num(scale));
      row.Set("nodes", bench::Json::Int(dataset.graph.NumNodes()));
      row.Set("edges", bench::Json::Int(dataset.graph.NumEdges()));
      bench::Json modes = bench::Json::Array();
      for (const ModeResult& r : results) modes.Push(ModeJson(r));
      row.Set("modes", std::move(modes));
      row.Set("hashes_match", bench::Json::Bool(match));
      rows.Push(std::move(row));
    }
  }

  if (!json_path.empty()) {
    bench::Json root = bench::Json::Object();
    root.Set("bench", bench::Json::Str("maintenance"));
    root.Set("version", bench::Json::Int(1));
    root.Set("small", bench::Json::Bool(small));
    root.Set("hashes_match", bench::Json::Bool(hashes_match));
    root.Set("rows", std::move(rows));
    std::string error;
    if (!bench::Json::WriteFile(json_path, root, &error)) {
      std::fprintf(stderr, "maintenance: %s\n", error.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!hashes_match) {
    std::fprintf(stderr,
                 "maintenance: incremental and full-rebuild results "
                 "disagree — see rows above\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dki

int main(int argc, char** argv) { return dki::Main(argc, argv); }
