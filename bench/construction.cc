// Ablation bench (DESIGN.md §5): construction cost and index size across
// the index family, all through the one round loop (BuildDkPartition):
// A(k) for k = 0..5, the 1-index, and D(k) with workload-mined
// requirements. Also times the demoting process against a full rebuild,
// and sweeps the parallel engine over 1/2/4/8 lanes for EXPERIMENTS.md's
// construction-scaling table.
//
// Doubles as an exactness guard: it exits nonzero when a lane count's
// partition differs from the 1-lane partition, or when the demoted index
// differs from the rebuilt one.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "index/ak_index.h"
#include "index/build_options.h"
#include "index/dk_index.h"
#include "index/one_index.h"

namespace dki {
namespace bench {
namespace {

// Set by any exactness check that fails; main's exit status.
bool g_mismatch = false;

void ExpectSame(bool same, const char* what) {
  if (same) return;
  std::fprintf(stderr, "MISMATCH: %s\n", what);
  g_mismatch = true;
}

// What the exactness checks compare: the index node of every data node, the
// k of every index node, and the edge count. Every engine numbers blocks in
// first-appearance order, so equal indexes have equal shapes.
struct IndexShape {
  std::vector<IndexNodeId> index_of;
  std::vector<int> k;
  int64_t num_edges = 0;
  bool operator==(const IndexShape&) const = default;
};

IndexShape ShapeOf(const IndexGraph& index) {
  IndexShape shape;
  for (NodeId n = 0; n < index.graph().NumNodes(); ++n) {
    shape.index_of.push_back(index.index_of(n));
  }
  for (IndexNodeId i = 0; i < index.NumIndexNodes(); ++i) {
    shape.k.push_back(index.k(i));
  }
  shape.num_edges = index.NumIndexEdges();
  return shape;
}

void RunConstruction(Dataset dataset) {
  PrintDatasetBanner(dataset);
  std::printf("%-22s %12s %12s %12s\n", "construction", "index_nodes",
              "index_edges", "time_ms");

  for (int k = 0; k <= 5; ++k) {
    DataGraph copy = dataset.graph;
    WallTimer timer;
    AkIndex ak = AkIndex::Build(&copy, k);
    std::printf("%-22s %12lld %12lld %12.1f\n",
                ("A(" + std::to_string(k) + ")").c_str(),
                static_cast<long long>(ak.index().NumIndexNodes()),
                static_cast<long long>(ak.index().NumIndexEdges()),
                timer.ElapsedMillis());
  }
  {
    DataGraph copy = dataset.graph;
    WallTimer timer;
    IndexGraph one = OneIndex::Build(&copy);
    std::printf("%-22s %12lld %12lld %12.1f\n", "1-index",
                static_cast<long long>(one.NumIndexNodes()),
                static_cast<long long>(one.NumIndexEdges()),
                timer.ElapsedMillis());
  }
  {
    DataGraph copy = dataset.graph;
    std::vector<PathExpression> workload = MakeWorkload(copy, 100, 20030609);
    LabelRequirements reqs = MineWorkloadRequirements(workload, copy.labels());
    WallTimer timer;
    DkIndex dk = DkIndex::Build(&copy, reqs);
    double build_ms = timer.ElapsedMillis();
    std::printf("%-22s %12lld %12lld %12.1f\n", "D(k)(mined reqs)",
                static_cast<long long>(dk.index().NumIndexNodes()),
                static_cast<long long>(dk.index().NumIndexEdges()),
                build_ms);

    // Demotion ablation: shrinking via Theorem 2 quotienting vs full
    // reconstruction at the lower requirements.
    LabelRequirements halved;
    for (const auto& [label, k] : reqs) halved[label] = k / 2;
    timer.Restart();
    dk.Demote(halved);
    double demote_ms = timer.ElapsedMillis();
    DataGraph copy2 = dataset.graph;
    timer.Restart();
    DkIndex fresh = DkIndex::Build(&copy2, halved);
    double rebuild_ms = timer.ElapsedMillis();
    std::printf(
        "%-22s %12lld %12s %12.1f (vs %.1f ms full rebuild, %.1fx)\n",
        "D(k) demote(k/2)",
        static_cast<long long>(dk.index().NumIndexNodes()), "-", demote_ms,
        rebuild_ms, demote_ms > 0 ? rebuild_ms / demote_ms : 0.0);
    ExpectSame(ShapeOf(dk.index()) == ShapeOf(fresh.index()),
               "D(k) demote(k/2) differs from the rebuild");
  }
  std::printf("\n");
}

// Construction-scaling sweep for the parallel refinement engine
// (src/index/parallel_refine.h): the same builds at 1/2/4/8 lanes,
// reporting speedup over the sequential engine, and checking each lane
// count's index against the 1-lane one. OneIndex::Build always runs the
// sequential loop, so the 1-index row calls the loop with a pool directly.
// Numbers are only meaningful on a machine with that many cores; the sweep
// prints the hardware concurrency so EXPERIMENTS.md rows are
// interpretable.
void RunThreadSweep(Dataset dataset) {
  PrintDatasetBanner(dataset);
  std::printf("hardware threads: %d\n", ThreadPool::HardwareConcurrency());
  std::printf("%-22s %8s %12s %12s %9s\n", "construction", "threads",
              "index_nodes", "time_ms", "speedup");

  const int kThreads[] = {1, 2, 4, 8};
  auto print_row = [](const char* name, int threads, int64_t nodes,
                      double ms, double base_ms) {
    std::printf("%-22s %8d %12lld %12.1f %8.2fx\n", name, threads,
                static_cast<long long>(nodes), ms,
                ms > 0 ? base_ms / ms : 0.0);
  };

  std::vector<PathExpression> workload =
      MakeWorkload(dataset.graph, 100, 20030609);
  LabelRequirements reqs =
      MineWorkloadRequirements(workload, dataset.graph.labels());

  IndexShape dk_base;
  double dk_base_ms = 0.0;
  for (int threads : kThreads) {
    DataGraph copy = dataset.graph;
    WallTimer timer;
    DkIndex dk = DkIndex::Build(&copy, reqs,
                                BuildOptions{.num_threads = threads});
    double ms = timer.ElapsedMillis();
    if (threads == 1) {
      dk_base_ms = ms;
      dk_base = ShapeOf(dk.index());
    }
    print_row("D(k)(mined reqs)", threads, dk.index().NumIndexNodes(), ms,
              dk_base_ms);
    ExpectSame(ShapeOf(dk.index()) == dk_base,
               "D(k) differs from the 1-lane index");
  }

  IndexShape ak_base;
  double ak_base_ms = 0.0;
  for (int threads : kThreads) {
    DataGraph copy = dataset.graph;
    WallTimer timer;
    AkIndex ak =
        AkIndex::Build(&copy, 4, BuildOptions{.num_threads = threads});
    double ms = timer.ElapsedMillis();
    if (threads == 1) {
      ak_base_ms = ms;
      ak_base = ShapeOf(ak.index());
    }
    print_row("A(4)", threads, ak.index().NumIndexNodes(), ms, ak_base_ms);
    ExpectSame(ShapeOf(ak.index()) == ak_base,
               "A(4) differs from the 1-lane index");
  }

  const std::vector<int> infinite(
      static_cast<size_t>(dataset.graph.labels().size()),
      IndexGraph::kInfiniteSimilarity);
  Partition one_base;
  double one_base_ms = 0.0;
  for (int threads : kThreads) {
    std::vector<int> block_k;
    WallTimer timer;
    ThreadPool pool(threads);  // a 1-lane pool runs the sequential engine
    Partition one = BuildDkPartition(dataset.graph, infinite, &block_k, &pool);
    double ms = timer.ElapsedMillis();
    if (threads == 1) {
      one_base_ms = ms;
      one_base = one;
    }
    print_row("1-index", threads, one.num_blocks, ms, one_base_ms);
    ExpectSame(one == one_base, "1-index differs from the 1-lane partition");
  }
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace dki

int main() {
  double scale = dki::bench::ScaleFromEnv();
  dki::bench::RunConstruction(dki::bench::MakeXmark(scale * 6.0));
  dki::bench::RunConstruction(dki::bench::MakeNasa(scale * 6.0));
  dki::bench::RunThreadSweep(dki::bench::MakeXmark(scale * 6.0));
  dki::bench::RunThreadSweep(dki::bench::MakeNasa(scale * 6.0));
  return dki::bench::g_mismatch ? 1 : 0;
}
