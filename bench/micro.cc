// google-benchmark microbenchmarks for the library's hot primitives:
// partition refinement rounds and the A(k) round loop, path-expression
// compilation, index/product evaluation, reverse-NFA validation, and
// Algorithm 4's label-path probe.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/metrics.h"
#include "common/random.h"
#include "dtd/dtd_generator.h"
#include "dtd/dtd_parser.h"
#include "index/ak_index.h"
#include "index/dk_index.h"
#include "index/fb_index.h"
#include "index/partition.h"
#include "query/evaluator.h"
#include "query/frozen_view.h"
#include "query/load_analyzer.h"
#include "query/result_cache.h"
#include "serve/query_server.h"
#include "twig/twig.h"

namespace dki {
namespace {

const bench::Dataset& SharedXmark() {
  static const bench::Dataset* dataset =
      new bench::Dataset(bench::MakeXmark(0.5));
  return *dataset;
}

void BM_LabelSplit(benchmark::State& state) {
  const DataGraph& g = SharedXmark().graph;
  for (auto _ : state) {
    Partition p = LabelSplit(g);
    benchmark::DoNotOptimize(p.num_blocks);
  }
  state.SetItemsProcessed(state.iterations() * g.NumNodes());
}
BENCHMARK(BM_LabelSplit);

void BM_RefineOnce(benchmark::State& state) {
  const DataGraph& g = SharedXmark().graph;
  Partition p = LabelSplit(g);
  std::vector<bool> all(static_cast<size_t>(p.num_blocks), true);
  for (auto _ : state) {
    Partition next = RefineOnce(g, p, all);
    benchmark::DoNotOptimize(next.num_blocks);
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_RefineOnce);

void BM_KBisimulation(benchmark::State& state) {
  const DataGraph& g = SharedXmark().graph;
  const std::vector<int> req(static_cast<size_t>(g.labels().size()),
                             static_cast<int>(state.range(0)));
  std::vector<int> block_k;
  for (auto _ : state) {
    Partition p = BuildDkPartition(g, req, &block_k);
    benchmark::DoNotOptimize(p.num_blocks);
  }
}
BENCHMARK(BM_KBisimulation)->Arg(1)->Arg(2)->Arg(4);

void BM_BroadcastRequirements(benchmark::State& state) {
  const DataGraph& g = SharedXmark().graph;
  auto parents = ComputeLabelParents(g, g.labels().size());
  std::vector<int> initial(static_cast<size_t>(g.labels().size()), 0);
  initial[static_cast<size_t>(g.labels().Find("item"))] = 4;
  initial[static_cast<size_t>(g.labels().Find("name"))] = 3;
  for (auto _ : state) {
    auto out = BroadcastLabelRequirements(parents, initial);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BroadcastRequirements);

// One query of each shape servebench's read_wide pool draws from: a chain,
// the chain under `_*.` and under `_.`, the chain with a middle step
// replaced by `_`, and the alternation of two chains.
void BM_ParseAndCompileQuery(benchmark::State& state) {
  static const char* const kShapes[] = {
      "open_auctions.open_auction.bidder.personref",
      "_*.open_auctions.open_auction.bidder.personref",
      "_.open_auctions.open_auction.bidder.personref",
      "open_auctions._.bidder.personref",
      "(open_auctions.open_auction.bidder.personref|regions.africa.item.name)",
  };
  const std::string text = kShapes[state.range(0)];
  const DataGraph& g = SharedXmark().graph;
  std::string error;
  for (auto _ : state) {
    auto q = PathExpression::Parse(text, g.labels(), &error);
    benchmark::DoNotOptimize(q->forward().num_states());
  }
  state.SetLabel(text);
}
BENCHMARK(BM_ParseAndCompileQuery)->DenseRange(0, 4);

void BM_EvaluateOnIndex(benchmark::State& state) {
  const bench::Dataset& dataset = SharedXmark();
  DataGraph copy = dataset.graph;
  AkIndex ak = AkIndex::Build(&copy, static_cast<int>(state.range(0)));
  std::string error;
  auto q = PathExpression::Parse("open_auction.bidder.personref",
                                 copy.labels(), &error);
  for (auto _ : state) {
    EvalStats stats;
    auto result = EvaluateOnIndex(ak.index(), *q, &stats);
    benchmark::DoNotOptimize(result.size());
  }
}
BENCHMARK(BM_EvaluateOnIndex)->Arg(0)->Arg(2)->Arg(4);

// The frozen counterpart of BM_EvaluateOnIndex: same query, same A(k)
// index, evaluated through a FrozenView with a reused scratch — the serving
// read path's steady state.
void BM_EvaluateOnIndexFrozen(benchmark::State& state) {
  const bench::Dataset& dataset = SharedXmark();
  DataGraph copy = dataset.graph;
  AkIndex ak = AkIndex::Build(&copy, static_cast<int>(state.range(0)));
  FrozenView view(ak.index());
  FrozenScratch scratch;
  std::string error;
  auto q = PathExpression::Parse("open_auction.bidder.personref",
                                 copy.labels(), &error);
  for (auto _ : state) {
    EvalStats stats;
    auto result = view.Evaluate(*q, &stats, /*validate=*/true, &scratch);
    benchmark::DoNotOptimize(result.size());
  }
}
BENCHMARK(BM_EvaluateOnIndexFrozen)->Arg(0)->Arg(2)->Arg(4);

// The ISSUE's acceptance pair: replaying the full 100-query XMark workload
// against the D(k) index, reference evaluator vs frozen view. The frozen
// variant recompiles its dense tables on every query switch (the honest
// serving cost), so the gap is label-seeded flat BFS vs scan-seeded
// deque/hash BFS.
void BM_WorkloadOnIndexReference(benchmark::State& state) {
  const bench::Dataset& dataset = SharedXmark();
  DataGraph copy = dataset.graph;
  auto workload = bench::MakeWorkload(copy, 100, 20030609);
  LabelRequirements reqs =
      bench::MineWorkloadRequirements(workload, copy.labels());
  DkIndex dk = DkIndex::Build(&copy, reqs);
  size_t i = 0;
  for (auto _ : state) {
    auto result = EvaluateOnIndex(dk.index(), workload[i++ % workload.size()]);
    benchmark::DoNotOptimize(result.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadOnIndexReference);

void BM_WorkloadOnIndexFrozen(benchmark::State& state) {
  const bench::Dataset& dataset = SharedXmark();
  DataGraph copy = dataset.graph;
  auto workload = bench::MakeWorkload(copy, 100, 20030609);
  LabelRequirements reqs =
      bench::MineWorkloadRequirements(workload, copy.labels());
  DkIndex dk = DkIndex::Build(&copy, reqs);
  FrozenView view(dk.index());
  FrozenScratch scratch;
  size_t i = 0;
  for (auto _ : state) {
    auto result = view.Evaluate(workload[i++ % workload.size()], nullptr,
                                /*validate=*/true, &scratch);
    benchmark::DoNotOptimize(result.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadOnIndexFrozen);

// One snapshot freeze: the publish-time cost the serving layer pays to make
// every subsequent read fast.
void BM_FrozenViewBuild(benchmark::State& state) {
  const bench::Dataset& dataset = SharedXmark();
  DataGraph copy = dataset.graph;
  auto workload = bench::MakeWorkload(copy, 100, 20030609);
  LabelRequirements reqs =
      bench::MineWorkloadRequirements(workload, copy.labels());
  DkIndex dk = DkIndex::Build(&copy, reqs);
  for (auto _ : state) {
    FrozenView view(dk.index());
    benchmark::DoNotOptimize(view.ApproxBytes());
  }
}
BENCHMARK(BM_FrozenViewBuild);

void BM_EvaluateOnDataGraph(benchmark::State& state) {
  const DataGraph& g = SharedXmark().graph;
  std::string error;
  auto q = PathExpression::Parse("open_auction.bidder.personref", g.labels(),
                                 &error);
  for (auto _ : state) {
    EvalStats stats;
    auto result = EvaluateOnDataGraph(g, *q, &stats);
    benchmark::DoNotOptimize(result.size());
  }
}
BENCHMARK(BM_EvaluateOnDataGraph);

// Satellite: NodesWithLabel via the label inverted index (O(matching))
// versus the O(N) full scan it replaced. "item" matches ~1.6% of an XMark
// document's nodes.
void BM_NodesWithLabelScan(benchmark::State& state) {
  const DataGraph& g = SharedXmark().graph;
  const LabelId label = g.labels().Find("item");
  for (auto _ : state) {
    std::vector<NodeId> out;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (g.label(v) == label) out.push_back(v);
    }
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_NodesWithLabelScan);

void BM_NodesWithLabelIndexed(benchmark::State& state) {
  const DataGraph& g = SharedXmark().graph;
  const LabelId label = g.labels().Find("item");
  for (auto _ : state) {
    const std::vector<NodeId>& out = g.NodesWithLabel(label);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_NodesWithLabelIndexed);

void BM_ValidateCandidate(benchmark::State& state) {
  const DataGraph& g = SharedXmark().graph;
  std::string error;
  auto q = PathExpression::Parse("person.watches.watch", g.labels(), &error);
  auto truth = EvaluateOnDataGraph(g, *q);
  NodeId candidate = truth.empty() ? 1 : truth.front();
  const Automaton rev = q->forward().Reverse();
  for (auto _ : state) {
    int64_t visits = 0;
    bool ok = ValidateCandidate(g, rev, candidate, &visits);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_ValidateCandidate);

// Satellite win: validating a whole uncertain extent with one reusable
// generation-stamped scratch versus allocating (and zeroing) fresh BFS
// state per candidate. The fresh variant pays O(|V|) setup per candidate;
// the shared variant pays it once per graph and O(1) per candidate.
void BM_ValidateExtentFreshState(benchmark::State& state) {
  const DataGraph& g = SharedXmark().graph;
  std::string error;
  auto q = PathExpression::Parse("person.watches.watch", g.labels(), &error);
  auto truth = EvaluateOnDataGraph(g, *q);
  size_t extent = std::min<size_t>(truth.size(), 64);
  const Automaton rev = q->forward().Reverse();
  for (auto _ : state) {
    int64_t visits = 0;
    for (size_t i = 0; i < extent; ++i) {
      bool ok = ValidateCandidate(g, rev, truth[i], &visits);
      benchmark::DoNotOptimize(ok);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(extent));
}
BENCHMARK(BM_ValidateExtentFreshState);

void BM_ValidateExtentSharedScratch(benchmark::State& state) {
  const DataGraph& g = SharedXmark().graph;
  std::string error;
  auto q = PathExpression::Parse("person.watches.watch", g.labels(), &error);
  auto truth = EvaluateOnDataGraph(g, *q);
  size_t extent = std::min<size_t>(truth.size(), 64);
  const Automaton rev = q->forward().Reverse();
  ValidationScratch scratch;
  for (auto _ : state) {
    int64_t visits = 0;
    for (size_t i = 0; i < extent; ++i) {
      bool ok = ValidateCandidate(g, rev, truth[i], &visits, &scratch);
      benchmark::DoNotOptimize(ok);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(extent));
}
BENCHMARK(BM_ValidateExtentSharedScratch);

void BM_DkEdgeAddition(benchmark::State& state) {
  const bench::Dataset& dataset = SharedXmark();
  auto edges = bench::MakeUpdateEdges(dataset, 512, 7);
  DataGraph copy = dataset.graph;
  auto workload = bench::MakeWorkload(copy, 100, 20030609);
  LabelRequirements reqs =
      bench::MineWorkloadRequirements(workload, copy.labels());
  DkIndex dk = DkIndex::Build(&copy, reqs);
  size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = edges[i++ % edges.size()];
    auto stats = dk.AddEdge(u, v);
    benchmark::DoNotOptimize(stats.new_local_similarity);
  }
}
BENCHMARK(BM_DkEdgeAddition);

void BM_FbIndexConstruction(benchmark::State& state) {
  const DataGraph& g = SharedXmark().graph;
  for (auto _ : state) {
    Partition p = FbIndex::ComputePartition(g);
    benchmark::DoNotOptimize(p.num_blocks);
  }
}
BENCHMARK(BM_FbIndexConstruction);

void BM_TwigOnFbIndex(benchmark::State& state) {
  const bench::Dataset& dataset = SharedXmark();
  DataGraph copy = dataset.graph;
  IndexGraph fb = FbIndex::Build(&copy);
  std::string error;
  auto twig = TwigQuery::Parse("open_auction[reserve].bidder.personref",
                               copy.labels(), &error);
  for (auto _ : state) {
    auto result = twig->EvaluateOnIndex(fb);
    benchmark::DoNotOptimize(result.size());
  }
}
BENCHMARK(BM_TwigOnFbIndex);

void BM_DtdGenerate(benchmark::State& state) {
  DtdSchema schema;
  std::string error;
  bool ok = ParseDtdFile("data/auction.dtd", &schema, &error) ||
            ParseDtdFile("../data/auction.dtd", &schema, &error) ||
            ParseDtdFile("../../data/auction.dtd", &schema, &error);
  if (!ok) {
    state.SkipWithError("data/auction.dtd not found (run from repo root)");
    return;
  }
  DtdGeneratorOptions options;
  options.element_budget = 5000;
  options.p_more = 0.8;
  options.max_repeats = 15;
  for (auto _ : state) {
    XmlDocument doc;
    bool generated = GenerateFromDtd(schema, "site", options, &doc, &error);
    benchmark::DoNotOptimize(generated);
  }
}
BENCHMARK(BM_DtdGenerate);

// A QueryServer with the adaptive loop off, so the index stays as built.
QueryServer::Options PinnedServerOptions() {
  QueryServer::Options options;
  options.tuning.period_ms = 0;
  return options;
}

// Repeated-query serving through QueryServer::Evaluate and its
// epoch-invalidated result cache versus re-evaluating every time. Both
// cycle the same 20-query workload; after the first pass the cached variant
// is pure lookups.
void BM_ServerCachedRepeats(benchmark::State& state) {
  const bench::Dataset& dataset = SharedXmark();
  DataGraph copy = dataset.graph;
  auto workload = bench::MakeWorkload(copy, 20, 20030609);
  LabelRequirements reqs =
      bench::MineWorkloadRequirements(workload, copy.labels());
  DkIndex dk = DkIndex::Build(&copy, reqs);
  QueryServer server(dk, PinnedServerOptions());
  size_t i = 0;
  for (auto _ : state) {
    auto result = server.Evaluate(workload[i++ % workload.size()].text());
    benchmark::DoNotOptimize(result);
  }
  ResultCache::Stats stats = server.cache_stats();
  state.counters["hit_rate"] =
      stats.hits + stats.misses == 0
          ? 0.0
          : static_cast<double>(stats.hits) /
                static_cast<double>(stats.hits + stats.misses);
}
BENCHMARK(BM_ServerCachedRepeats);

void BM_UncachedEvaluateRepeats(benchmark::State& state) {
  const bench::Dataset& dataset = SharedXmark();
  DataGraph copy = dataset.graph;
  auto workload = bench::MakeWorkload(copy, 20, 20030609);
  LabelRequirements reqs =
      bench::MineWorkloadRequirements(workload, copy.labels());
  DkIndex dk = DkIndex::Build(&copy, reqs);
  size_t i = 0;
  for (auto _ : state) {
    auto result =
        EvaluateOnIndex(dk.index(), workload[i++ % workload.size()]);
    benchmark::DoNotOptimize(result.size());
  }
}
BENCHMARK(BM_UncachedEvaluateRepeats);

// The cost of a miss-after-invalidation: every iteration toggles an edge
// (add if absent, remove if present) and waits for its publish, which bumps
// the epoch, so each lookup misses and re-evaluates — the cache's worst
// case. The time includes the writer's apply and republish.
void BM_ServerCachedInvalidated(benchmark::State& state) {
  const bench::Dataset& dataset = SharedXmark();
  auto edges = bench::MakeUpdateEdges(dataset, 64, 7);
  DataGraph copy = dataset.graph;
  auto workload = bench::MakeWorkload(copy, 20, 20030609);
  LabelRequirements reqs =
      bench::MineWorkloadRequirements(workload, copy.labels());
  DkIndex dk = DkIndex::Build(&copy, reqs);
  QueryServer server(dk, PinnedServerOptions());
  size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = edges[i % edges.size()];
    // `copy` mirrors the server's private master graph.
    if (copy.HasEdge(u, v)) {
      copy.RemoveEdge(u, v);
      server.SubmitRemoveEdge(u, v);
    } else {
      copy.AddEdge(u, v);
      server.SubmitAddEdge(u, v);
    }
    server.Flush();
    auto result = server.Evaluate(workload[i++ % workload.size()].text());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ServerCachedInvalidated);

// Result-cache hits through QueryServer::Evaluate on 1, 2 and 4 threads,
// over a warmed 64-query XMark pool: a hit probes before parsing, at the
// published epoch, under one of the cache's shard locks, and records its
// metrics into per-thread stripes, so threads should scale.
const QueryServer& WarmHitServer(std::vector<std::string>* texts) {
  static std::vector<std::string>* pool = new std::vector<std::string>();
  static const QueryServer* server = [] {
    DataGraph copy = SharedXmark().graph;
    auto workload = bench::MakeWorkload(copy, 64, 20030609);
    LabelRequirements reqs =
        bench::MineWorkloadRequirements(workload, copy.labels());
    DkIndex dk = DkIndex::Build(&copy, reqs);
    auto* s = new QueryServer(dk);  // forks its own master
    for (const PathExpression& q : workload) {
      pool->push_back(q.text());
      s->Evaluate(q.text());
    }
    return s;
  }();
  *texts = *pool;
  return *server;
}

void BM_ServerEvaluateHit(benchmark::State& state) {
  std::vector<std::string> texts;
  const QueryServer& server = WarmHitServer(&texts);
  size_t i = static_cast<size_t>(state.thread_index()) * 17;
  for (auto _ : state) {
    auto result = server.Evaluate(texts[i++ % texts.size()]);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerEvaluateHit)->Threads(1)->Threads(2)->Threads(4);

void BM_AkEdgeAdditionBaseline(benchmark::State& state) {
  const bench::Dataset& dataset = SharedXmark();
  auto edges = bench::MakeUpdateEdges(dataset, 512, 7);
  DataGraph copy = dataset.graph;
  AkIndex ak = AkIndex::Build(&copy, static_cast<int>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = edges[i++ % edges.size()];
    auto stats = ak.AddEdgeBaseline(u, v);
    benchmark::DoNotOptimize(stats.index_nodes_repartitioned);
  }
}
BENCHMARK(BM_AkEdgeAdditionBaseline)->Arg(1)->Arg(2);

// ---- Index traversal and prefilter (query/backend.h) ---------------------
//
// Steady-state D(k) view shared by the traversal benches below, so each bench
// pays index construction once instead of per benchmark registration.
const DkIndex& SharedBackendDk() {
  static const DkIndex* dk = [] {
    auto* copy = new DataGraph(SharedXmark().graph);
    auto workload = bench::MakeWorkload(*copy, 100, 20030609);
    LabelRequirements reqs =
        bench::MineWorkloadRequirements(workload, copy->labels());
    return new DkIndex(DkIndex::Build(copy, reqs));
  }();
  return *dk;
}

FrozenViewOptions PrefilterOption(bool prefilter) {
  FrozenViewOptions options;
  options.prefilter = prefilter;
  return options;
}

// One query, both settings of FrozenViewOptions::prefilter (Arg 1 = on,
// the default; 0 = the pure reference NFA): "_.bidder.personref" has
// required labels for the prefilter and seeds the whole index through its
// wildcard start, which is where the two traversals diverge.
// bench/backends sweeps the full query-shape × dataset matrix, this is the
// single-query microscope.
void BM_BackendForcedEvaluate(benchmark::State& state) {
  const DkIndex& dk = SharedBackendDk();
  const bool prefilter = state.range(0) != 0;
  FrozenView view(dk.index(), PrefilterOption(prefilter));
  FrozenScratch scratch;
  std::string error;
  auto q = PathExpression::Parse("_.bidder.personref",
                                 SharedXmark().graph.labels(), &error);
  for (auto _ : state) {
    auto result = view.Evaluate(*q, nullptr, /*validate=*/true, &scratch);
    benchmark::DoNotOptimize(result.size());
  }
  state.SetLabel(prefilter ? "prefilter on" : "prefilter off");
}
BENCHMARK(BM_BackendForcedEvaluate)->DenseRange(0, 1);

// Prefilter selectivity sweep: "_._.<label>" with the anchor label chosen
// by index-population percentile (Arg; 0 = rarest label, 100 = most
// common). The prefilter's ancestor walk pays off while the anchor bucket
// is small relative to the wildcard-seeded frontier and fades to overhead
// as the percentile climbs — the NFA twin below is the constant the sweep
// should be read against (its seed set ignores the anchor entirely). The
// sweep runs on a default view, so the label also says whether the
// kPrefilterMinSeeds / kPrefilterFactor gate let the walk run: the gate
// should close about where the walk stops paying.
std::string SelectivityQuery(int percentile) {
  const bench::Dataset& dataset = SharedXmark();
  const DkIndex& dk = SharedBackendDk();
  FrozenView probe(dk.index());
  std::vector<std::pair<int64_t, LabelId>> pops;
  for (LabelId lab = 0;
       lab < static_cast<LabelId>(dataset.graph.labels().size()); ++lab) {
    const int64_t pop = probe.IndexNodesWithLabel(lab);
    if (pop > 0) pops.emplace_back(pop, lab);
  }
  std::sort(pops.begin(), pops.end());
  const size_t pick = std::min(
      pops.size() - 1, pops.size() * static_cast<size_t>(percentile) / 100);
  return std::string("_._.") +
         std::string(dataset.graph.labels().Name(pops[pick].second));
}

void BM_PrefilterSelectivitySweep(benchmark::State& state) {
  const DkIndex& dk = SharedBackendDk();
  FrozenView view(dk.index(), PrefilterOption(true));
  FrozenScratch scratch;
  std::string error;
  const std::string text = SelectivityQuery(static_cast<int>(state.range(0)));
  auto q =
      PathExpression::Parse(text, SharedXmark().graph.labels(), &error);
  for (auto _ : state) {
    auto result = view.Evaluate(*q, nullptr, /*validate=*/true, &scratch);
    benchmark::DoNotOptimize(result.size());
  }
  const bool walked =
      view.PlanQuery(*q, /*validate=*/true).anchor_label != kInvalidLabel;
  state.SetLabel(text + (walked ? " (prefiltered)" : " (gate shut)"));
}
BENCHMARK(BM_PrefilterSelectivitySweep)->Arg(0)->Arg(25)->Arg(50)->Arg(75)->Arg(100);

void BM_PrefilterSelectivitySweepNfaBaseline(benchmark::State& state) {
  const DkIndex& dk = SharedBackendDk();
  FrozenView view(dk.index(), PrefilterOption(false));
  FrozenScratch scratch;
  std::string error;
  const std::string text = SelectivityQuery(static_cast<int>(state.range(0)));
  auto q =
      PathExpression::Parse(text, SharedXmark().graph.labels(), &error);
  for (auto _ : state) {
    auto result = view.Evaluate(*q, nullptr, /*validate=*/true, &scratch);
    benchmark::DoNotOptimize(result.size());
  }
  state.SetLabel(text);
}
BENCHMARK(BM_PrefilterSelectivitySweepNfaBaseline)
    ->Arg(0)
    ->Arg(25)
    ->Arg(50)
    ->Arg(75)
    ->Arg(100);

}  // namespace
}  // namespace dki

// Like BENCHMARK_MAIN(), plus a dump of every counter/timer the library
// recorded while the benchmarks ran.
int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  std::cout << "\n== metrics snapshot ==\n";
  dki::MetricsRegistry::Global().Dump(&std::cout);
  return 0;
}
