#include "index/dk_index.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"

namespace dki {

std::vector<int> BroadcastLabelRequirements(
    const std::vector<std::vector<LabelId>>& label_parents,
    std::vector<int> initial) {
  DKI_CHECK_EQ(label_parents.size(), initial.size());
  const int64_t num_labels = static_cast<int64_t>(initial.size());

  int kmax = 0;
  for (int r : initial) {
    DKI_CHECK_GE(r, 0);
    kmax = std::max(kmax, r);
  }
  if (kmax == 0) return initial;

  // Bucket queue over requirement values, processed from kmax down to 1.
  // Raising a parent only ever assigns k-1 < current level, so each label is
  // processed exactly once, at its final (highest) requirement.
  std::vector<std::vector<LabelId>> buckets(static_cast<size_t>(kmax) + 1);
  for (LabelId l = 0; l < num_labels; ++l) {
    int r = initial[static_cast<size_t>(l)];
    if (r > 0) buckets[static_cast<size_t>(r)].push_back(l);
  }
  std::vector<bool> processed(static_cast<size_t>(num_labels), false);
  for (int level = kmax; level >= 1; --level) {
    auto& bucket = buckets[static_cast<size_t>(level)];
    for (size_t i = 0; i < bucket.size(); ++i) {  // bucket may grow
      LabelId l = bucket[i];
      if (processed[static_cast<size_t>(l)]) continue;
      if (initial[static_cast<size_t>(l)] != level) continue;  // stale entry
      processed[static_cast<size_t>(l)] = true;
      for (LabelId parent : label_parents[static_cast<size_t>(l)]) {
        if (initial[static_cast<size_t>(parent)] < level - 1) {
          initial[static_cast<size_t>(parent)] = level - 1;
          buckets[static_cast<size_t>(level - 1)].push_back(parent);
        }
      }
    }
  }
  return initial;
}

DkIndex::DkIndex(DataGraph* graph, IndexGraph index,
                 std::vector<int> effective_req)
    : graph_(graph),
      index_(std::move(index)),
      effective_req_(std::move(effective_req)) {}

std::vector<int> DkIndex::EffectiveRequirements(const DataGraph& g,
                                                const LabelRequirements& reqs) {
  std::vector<int> initial(static_cast<size_t>(g.labels().size()), 0);
  for (const auto& [label, k] : reqs) {
    DKI_CHECK_GE(label, 0);
    DKI_CHECK_LT(label, g.labels().size());
    initial[static_cast<size_t>(label)] = std::max(
        initial[static_cast<size_t>(label)], k);
  }
  return BroadcastLabelRequirements(ComputeLabelParents(g, g.labels().size()),
                                    std::move(initial));
}

DkIndex DkIndex::Build(DataGraph* graph, const LabelRequirements& reqs,
                       const BuildOptions& options) {
  DKI_CHECK(graph != nullptr);
  ScopedLatency latency(&DKI_METRIC_HISTOGRAM("index.dk.build.latency"));
  std::vector<int> effective = EffectiveRequirements(*graph, reqs);
  std::vector<int> block_k;
  int num_threads = options.ResolvedNumThreads();
  auto trace = std::make_shared<RefinementTrace>();
  Partition p;
  if (num_threads > 1) {
    ThreadPool pool(num_threads);
    p = BuildDkPartition(*graph, effective, &block_k, &pool, &trace->rounds);
  } else {
    p = BuildDkPartition(*graph, effective, &block_k, nullptr,
                         &trace->rounds);
  }
  trace->num_nodes = graph->NumNodes();
  trace->req_at_capture = effective;
  IndexGraph index =
      IndexGraph::FromPartition(graph, p.block_of, p.num_blocks, block_k);
  DkIndex dk(graph, std::move(index), std::move(effective));
  dk.trace_ = std::move(trace);
  return dk;
}

DkIndex DkIndex::Fork(DataGraph* graph_copy) const {
  DKI_CHECK(graph_copy != nullptr);
  DKI_CHECK_EQ(graph_copy->NumNodes(), graph_->NumNodes());
  DKI_CHECK_EQ(graph_copy->NumEdges(), graph_->NumEdges());
  DkIndex fork(graph_copy, index_.CloneOnto(graph_copy), effective_req_);
  // The trace is shared, not copied: it is immutable once captured (rebuilds
  // swap in a fresh one), and it only stores per-round block ids — nothing
  // graph-pointer-bound — so the fork can keep projecting through it.
  fork.trace_ = trace_;
  fork.dirty_ = dirty_;
  fork.maintenance_mode_ = maintenance_mode_;
  return fork;
}

DkIndex DkIndex::FromParts(DataGraph* graph, IndexGraph index,
                           std::vector<int> effective_req) {
  DKI_CHECK(graph != nullptr);
  index.set_graph(graph);
  effective_req.resize(static_cast<size_t>(graph->labels().size()), 0);
  return DkIndex(graph, std::move(index), std::move(effective_req));
}

int DkIndex::effective_requirement(LabelId label) const {
  if (label < 0 ||
      static_cast<size_t>(label) >= effective_req_.size()) {
    return 0;
  }
  return effective_req_[static_cast<size_t>(label)];
}

}  // namespace dki
