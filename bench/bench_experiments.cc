#include "bench/bench_experiments.h"

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/algorithm6.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "index/ak_index.h"
#include "index/dk_index.h"
#include "query/frozen_view.h"
#include "query/result_cache.h"
#include "serve/query_server.h"

namespace dki {
namespace bench {
namespace {

constexpr int kWorkloadSize = 100;   // paper: 100 test paths
constexpr int kUpdateEdges = 100;    // paper: 100 new edges
constexpr uint64_t kWorkloadSeed = 20030609;  // SIGMOD'03 opening day
constexpr uint64_t kUpdateSeed = 20030612;

void PrintShapeCheck(const std::vector<SeriesRow>& rows) {
  // rows: A(0)..A(4), then D(k). The paper's headline shape: the D(k) point
  // lies below the A(k) size-cost frontier — smaller than every A(k) whose
  // cost it beats, i.e. no A(k) both smaller and cheaper.
  const SeriesRow& dk = rows.back();
  bool dominated = false;
  for (size_t i = 0; i + 1 < rows.size(); ++i) {
    if (rows[i].index_nodes <= dk.index_nodes &&
        rows[i].avg_cost <= dk.avg_cost &&
        (rows[i].index_nodes < dk.index_nodes ||
         rows[i].avg_cost < dk.avg_cost)) {
      dominated = true;
    }
  }
  std::printf("shape_check: D(k) on/below the A(k) frontier: %s\n",
              dominated ? "NO (dominated)" : "yes");
  const SeriesRow& sound_ak = rows[rows.size() - 2];  // A(4): sound horizon
  std::printf(
      "shape_check: size vs sound A(4): D(k)=%lld A(4)=%lld (%.2fx smaller)\n",
      static_cast<long long>(dk.index_nodes),
      static_cast<long long>(sound_ak.index_nodes),
      dk.index_nodes == 0
          ? 0.0
          : static_cast<double>(sound_ak.index_nodes) /
                static_cast<double>(dk.index_nodes));
}

// Repeated-workload serving through the epoch-invalidated result cache:
// the same workload replayed `passes` times against the same index, once
// uncached and once through QueryServer::Evaluate (adaptive loop off, so
// the index stays as built). Prints timing, hit statistics and a
// bit-identical check, then the global metrics snapshot.
void RunCachedWorkloadReplay(const DkIndex& dk,
                             const std::vector<PathExpression>& workload,
                             int passes) {
  WallTimer uncached_timer;
  int64_t uncached_visits = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (const PathExpression& q : workload) {
      EvalStats stats;
      auto result = EvaluateOnIndex(dk.index(), q, &stats);
      uncached_visits += stats.index_nodes_visited + stats.data_nodes_visited;
      (void)result;
    }
  }
  double uncached_ms = uncached_timer.ElapsedMillis();

  QueryServer::Options options;
  options.tuning.period_ms = 0;
  QueryServer server(dk, options);
  WallTimer cached_timer;
  int64_t cached_visits = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (const PathExpression& q : workload) {
      EvalStats stats;
      auto result = server.Evaluate(q.text(), &stats);
      cached_visits += stats.index_nodes_visited + stats.data_nodes_visited;
      (void)result;
    }
  }
  double cached_ms = cached_timer.ElapsedMillis();

  bool identical = true;
  for (const PathExpression& q : workload) {
    if (server.Evaluate(q.text()) != EvaluateOnIndex(dk.index(), q)) {
      identical = false;
    }
  }

  ResultCache::Stats cs = server.cache_stats();
  std::printf(
      "\n== cached serving: %d x %zu repeated queries on D(k) ==\n", passes,
      workload.size());
  std::printf("%-10s %12s %16s\n", "mode", "time(ms)", "nodes visited");
  std::printf("%-10s %12.1f %16lld\n", "uncached", uncached_ms,
              static_cast<long long>(uncached_visits));
  std::printf("%-10s %12.1f %16lld\n", "cached", cached_ms,
              static_cast<long long>(cached_visits));
  std::printf(
      "cache: hits=%lld misses=%lld stale_drops=%lld evictions=%lld "
      "entries=%lld bytes=%lld\n",
      static_cast<long long>(cs.hits), static_cast<long long>(cs.misses),
      static_cast<long long>(cs.stale_drops),
      static_cast<long long>(cs.evictions),
      static_cast<long long>(cs.entries), static_cast<long long>(cs.bytes));
  std::printf("shape_check: cache hits on repeats: %s (hit rate %.2f)\n",
              cs.hits > 0 ? "yes" : "NO",
              cs.hits + cs.misses == 0
                  ? 0.0
                  : static_cast<double>(cs.hits) /
                        static_cast<double>(cs.hits + cs.misses));
  std::printf("shape_check: cached results bit-identical to uncached: %s\n",
              identical ? "yes" : "NO");

  std::printf("\n== metrics snapshot ==\n");
  MetricsRegistry::Global().Dump(&std::cout);
}

// The frozen read path against the reference evaluator on the same D(k)
// index and workload: wall time per pass, freeze cost, flat-memory size, and
// a bit-identical check (results AND stats). This is the EXPERIMENTS.md
// "frozen vs reference" row source for fig4/fig5.
void RunFrozenWorkloadReplay(const DkIndex& dk,
                             const std::vector<PathExpression>& workload,
                             int passes) {
  WallTimer reference_timer;
  int64_t reference_visits = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (const PathExpression& q : workload) {
      EvalStats stats;
      auto result = EvaluateOnIndex(dk.index(), q, &stats);
      reference_visits +=
          stats.index_nodes_visited + stats.data_nodes_visited;
      (void)result;
    }
  }
  double reference_ms = reference_timer.ElapsedMillis();

  WallTimer freeze_timer;
  FrozenView view(dk.index());
  double freeze_ms = freeze_timer.ElapsedMillis();

  FrozenScratch scratch;
  WallTimer frozen_timer;
  int64_t frozen_visits = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (const PathExpression& q : workload) {
      EvalStats stats;
      auto result = view.Evaluate(q, &stats, /*validate=*/true, &scratch);
      frozen_visits += stats.index_nodes_visited + stats.data_nodes_visited;
      (void)result;
    }
  }
  double frozen_ms = frozen_timer.ElapsedMillis();

  bool identical = true;
  for (const PathExpression& q : workload) {
    EvalStats ref_stats, frozen_stats;
    auto ref = EvaluateOnIndex(dk.index(), q, &ref_stats);
    auto frozen = view.Evaluate(q, &frozen_stats, /*validate=*/true,
                                &scratch);
    if (ref != frozen ||
        ref_stats.index_nodes_visited != frozen_stats.index_nodes_visited ||
        ref_stats.data_nodes_visited != frozen_stats.data_nodes_visited ||
        ref_stats.result_size != frozen_stats.result_size) {
      identical = false;
    }
  }

  std::printf("\n== frozen read path: %d x %zu queries on D(k) ==\n", passes,
              workload.size());
  std::printf("%-10s %12s %16s\n", "mode", "time(ms)", "nodes visited");
  std::printf("%-10s %12.1f %16lld\n", "reference", reference_ms,
              static_cast<long long>(reference_visits));
  std::printf("%-10s %12.1f %16lld\n", "frozen", frozen_ms,
              static_cast<long long>(frozen_visits));
  std::printf("freeze: %.1f ms, %.1f MiB flat\n", freeze_ms,
              static_cast<double>(view.ApproxBytes()) / (1024.0 * 1024.0));
  std::printf("shape_check: frozen speedup: %.2fx\n",
              frozen_ms == 0.0 ? 0.0 : reference_ms / frozen_ms);
  std::printf(
      "shape_check: frozen results+stats bit-identical to reference: %s\n",
      identical ? "yes" : "NO");
}

}  // namespace

void RunEvalBeforeUpdating(Dataset dataset, const std::string& figure_name) {
  PrintDatasetBanner(dataset);
  std::vector<PathExpression> workload =
      MakeWorkload(dataset.graph, kWorkloadSize, kWorkloadSeed);
  std::printf("workload: %zu test paths, lengths 2-5\n", workload.size());

  std::vector<SeriesRow> rows;
  for (int k = 0; k <= 4; ++k) {
    DataGraph copy = dataset.graph;
    AkIndex ak = AkIndex::Build(&copy, k);
    rows.push_back(
        MakeRow("A(" + std::to_string(k) + ")", ak.index(), workload));
  }
  LabelRequirements reqs =
      MineWorkloadRequirements(workload, dataset.graph.labels());
  DataGraph copy = dataset.graph;
  DkIndex dk = DkIndex::Build(&copy, reqs);
  rows.push_back(MakeRow("D(k)", dk.index(), workload));

  PrintSeries(figure_name + ": " + dataset.name +
                  " evaluation performance BEFORE updating "
                  "(X=index_nodes, Y=avg_cost)",
              rows);
  PrintShapeCheck(rows);
  RunFrozenWorkloadReplay(dk, workload, /*passes=*/5);
  RunCachedWorkloadReplay(dk, workload, /*passes=*/5);
}

void RunUpdateEfficiency(Dataset xmark, Dataset nasa) {
  struct Cell {
    double millis = 0.0;
    int64_t index_growth = 0;
  };
  // rows: A(1)..A(4), D(k); columns: Xmark, Nasa.
  std::vector<std::vector<Cell>> table(5, std::vector<Cell>(2));

  for (int col = 0; col < 2; ++col) {
    Dataset& dataset = col == 0 ? xmark : nasa;
    PrintDatasetBanner(dataset);
    auto edges = MakeUpdateEdges(dataset, kUpdateEdges, kUpdateSeed);

    for (int k = 1; k <= 4; ++k) {
      DataGraph copy = dataset.graph;
      AkIndex ak = AkIndex::Build(&copy, k);
      int64_t before = ak.index().NumIndexNodes();
      WallTimer timer;
      for (const auto& [u, v] : edges) ak.AddEdgeBaseline(u, v);
      table[static_cast<size_t>(k - 1)][static_cast<size_t>(col)] = {
          timer.ElapsedMillis(), ak.index().NumIndexNodes() - before};
    }
    {
      DataGraph copy = dataset.graph;
      std::vector<PathExpression> workload =
          MakeWorkload(copy, kWorkloadSize, kWorkloadSeed);
      LabelRequirements reqs =
          MineWorkloadRequirements(workload, copy.labels());
      DkIndex dk = DkIndex::Build(&copy, reqs);
      int64_t before = dk.index().NumIndexNodes();
      WallTimer timer;
      for (const auto& [u, v] : edges) dk.AddEdge(u, v);
      table[4][static_cast<size_t>(col)] = {
          timer.ElapsedMillis(), dk.index().NumIndexNodes() - before};
    }
  }

  std::printf(
      "\n== Table 1: update efficiency, total running time (msec) of %d "
      "edge additions ==\n",
      kUpdateEdges);
  std::printf("%-6s %14s %14s %16s %16s\n", "index", "Xmark(ms)", "Nasa(ms)",
              "Xmark(+nodes)", "Nasa(+nodes)");
  const char* names[5] = {"A(1)", "A(2)", "A(3)", "A(4)", "D(k)"};
  for (int row = 0; row < 5; ++row) {
    std::printf("%-6s %14.1f %14.1f %16lld %16lld\n", names[row],
                table[static_cast<size_t>(row)][0].millis,
                table[static_cast<size_t>(row)][1].millis,
                static_cast<long long>(
                    table[static_cast<size_t>(row)][0].index_growth),
                static_cast<long long>(
                    table[static_cast<size_t>(row)][1].index_growth));
  }
  std::printf(
      "shape_check: A(k) time grows with k: %s; D(k) faster than A(1): "
      "Xmark %s, Nasa %s\n",
      (table[0][0].millis <= table[3][0].millis &&
       table[0][1].millis <= table[3][1].millis)
          ? "yes"
          : "NO",
      table[4][0].millis < table[0][0].millis ? "yes" : "NO",
      table[4][1].millis < table[0][1].millis ? "yes" : "NO");
}

void RunEvalAfterUpdating(Dataset dataset, const std::string& figure_name) {
  PrintDatasetBanner(dataset);
  auto edges = MakeUpdateEdges(dataset, kUpdateEdges, kUpdateSeed);

  std::vector<SeriesRow> rows;
  for (int k = 0; k <= 4; ++k) {
    DataGraph copy = dataset.graph;
    AkIndex ak = AkIndex::Build(&copy, k);
    for (const auto& [u, v] : edges) ak.AddEdgeBaseline(u, v);
    // The workload is generated against the *updated* graph so queries can
    // exercise the new reference edges too.
    std::vector<PathExpression> workload =
        MakeWorkload(copy, kWorkloadSize, kWorkloadSeed);
    rows.push_back(
        MakeRow("A(" + std::to_string(k) + ")", ak.index(), workload));
  }
  {
    DataGraph copy = dataset.graph;
    std::vector<PathExpression> pre_workload =
        MakeWorkload(copy, kWorkloadSize, kWorkloadSeed);
    LabelRequirements reqs =
        MineWorkloadRequirements(pre_workload, copy.labels());
    DkIndex dk = DkIndex::Build(&copy, reqs);
    for (const auto& [u, v] : edges) dk.AddEdge(u, v);
    std::vector<PathExpression> workload =
        MakeWorkload(copy, kWorkloadSize, kWorkloadSeed);
    rows.push_back(MakeRow("D(k)", dk.index(), workload));
  }

  PrintSeries(figure_name + ": " + dataset.name +
                  " evaluation performance AFTER updating "
                  "(X=index_nodes, Y=avg_cost)",
              rows);
  std::printf(
      "note: A(k) sizes grew under updates while D(k)'s stayed fixed; "
      "D(k)'s cost rises through validation instead (Section 6.3).\n");
}

void RunPromoteRecovery(Dataset dataset) {
  PrintDatasetBanner(dataset);
  DataGraph& g = dataset.graph;
  std::vector<PathExpression> workload =
      MakeWorkload(g, kWorkloadSize, kWorkloadSeed);
  LabelRequirements reqs = MineWorkloadRequirements(workload, g.labels());
  DkIndex dk = DkIndex::Build(&g, reqs);

  std::vector<SeriesRow> rows;
  rows.push_back(MakeRow("fresh", dk.index(), workload));

  auto edges = MakeUpdateEdges(dataset, kUpdateEdges, kUpdateSeed);
  for (const auto& [u, v] : edges) dk.AddEdge(u, v);
  rows.push_back(MakeRow("updated", dk.index(), workload));

  WallTimer timer;
  PromoteBatch(dk.mutable_index(), reqs);
  double promote_ms = timer.ElapsedMillis();
  rows.push_back(MakeRow("promoted", dk.index(), workload));

  PrintSeries("Promote recovery (experiment deferred to the paper's full "
              "version): " + dataset.name,
              rows);
  std::printf("promote_time_ms=%.1f\n", promote_ms);
  std::printf(
      "shape_check: promoting removes validation again: %s (uncertain "
      "%lld -> %lld)\n",
      rows[2].uncertain_nodes == 0 ? "yes" : "NO",
      static_cast<long long>(rows[1].uncertain_nodes),
      static_cast<long long>(rows[2].uncertain_nodes));
}

}  // namespace bench
}  // namespace dki
