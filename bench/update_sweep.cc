// Ablation for the paper's claim 3 (Section 6): "The D(k)-index, after a
// considerable number of update operations, can still keep its better
// evaluation performance than the best A(k)-index." Sweeps the number of
// random ID/IDREF edge additions and tracks index size + average query cost
// for D(k) against A(2) and A(4), plus D(k) with periodic promoting — the
// maintenance policy the paper recommends (Section 5.3: "executed
// periodically to tune the D(k)-index and keep its high performance").

#include <cstdio>
#include <string>
#include <vector>

#include "bench/algorithm6.h"
#include "bench/bench_common.h"
#include "index/ak_index.h"
#include "index/dk_index.h"

namespace dki {
namespace bench {
namespace {

constexpr int kSweep[] = {0, 25, 50, 100, 200, 400};

void RunSweep(Dataset dataset) {
  PrintDatasetBanner(dataset);
  auto all_edges = MakeUpdateEdges(dataset, 400, 20030612);

  // Build once per index kind; apply updates incrementally between
  // measurements (cheaper and closer to a live system than rebuilding).
  DataGraph g_a2 = dataset.graph;
  AkIndex a2 = AkIndex::Build(&g_a2, 2);
  DataGraph g_a4 = dataset.graph;
  AkIndex a4 = AkIndex::Build(&g_a4, 4);
  DataGraph g_dk = dataset.graph;
  auto workload0 = MakeWorkload(g_dk, 100, 20030609);
  LabelRequirements reqs = MineWorkloadRequirements(workload0, g_dk.labels());
  DkIndex dk = DkIndex::Build(&g_dk, reqs);
  DataGraph g_dkp = dataset.graph;
  DkIndex dkp = DkIndex::Build(&g_dkp, reqs);  // with periodic promoting

  std::printf(
      "\n== Update sweep: %s — size and avg cost vs. #edge additions ==\n",
      dataset.name.c_str());
  std::printf("%8s | %9s %9s | %9s %9s | %9s %9s | %12s %9s\n", "updates",
              "A(2)size", "A(2)cost", "A(4)size", "A(4)cost", "D(k)size",
              "D(k)cost", "D(k)+promo", "cost");

  int applied = 0;
  for (int target : kSweep) {
    for (; applied < target; ++applied) {
      const auto& [u, v] = all_edges[static_cast<size_t>(applied)];
      a2.AddEdgeBaseline(u, v);
      a4.AddEdgeBaseline(u, v);
      dk.AddEdge(u, v);
      dkp.AddEdge(u, v);
    }
    PromoteBatch(dkp.mutable_index(), reqs);  // periodic Algorithm 6

    // Workloads regenerated against the updated graphs (identical recipe +
    // seed everywhere, so the four columns see the same queries).
    auto wl = MakeWorkload(g_dk, 100, 20030609);
    SeriesRow r_a2 = MakeRow("A(2)", a2.index(), wl);
    SeriesRow r_a4 = MakeRow("A(4)", a4.index(), wl);
    SeriesRow r_dk = MakeRow("D(k)", dk.index(), wl);
    SeriesRow r_dkp = MakeRow("D(k)+p", dkp.index(), wl);
    std::printf(
        "%8d | %9lld %9.1f | %9lld %9.1f | %9lld %9.1f | %12lld %9.1f\n",
        target, static_cast<long long>(r_a2.index_nodes), r_a2.avg_cost,
        static_cast<long long>(r_a4.index_nodes), r_a4.avg_cost,
        static_cast<long long>(r_dk.index_nodes), r_dk.avg_cost,
        static_cast<long long>(r_dkp.index_nodes), r_dkp.avg_cost);
  }
}

}  // namespace
}  // namespace bench
}  // namespace dki

int main() {
  double scale = dki::bench::ScaleFromEnv();
  dki::bench::RunSweep(dki::bench::MakeXmark(scale * 2.0));
  dki::bench::RunSweep(dki::bench::MakeNasa(scale * 2.0));
  return 0;
}
