#include "index/ak_index.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "index/dk_index.h"

namespace dki {

AkIndex::AkIndex(DataGraph* graph, int k, IndexGraph index)
    : graph_(graph), k_(k), index_(std::move(index)) {}

AkIndex AkIndex::Build(DataGraph* graph, int k, const BuildOptions& options) {
  DKI_CHECK(graph != nullptr);
  DKI_CHECK_GE(k, 0);
  const std::vector<int> req(static_cast<size_t>(graph->labels().size()), k);
  std::vector<int> block_k;
  ThreadPool pool(options.ResolvedNumThreads());  // 1 lane: sequential
  Partition p = BuildDkPartition(*graph, req, &block_k, &pool);
  IndexGraph index =
      IndexGraph::FromPartition(graph, p.block_of, p.num_blocks, block_k);
  return AkIndex(graph, k, std::move(index));
}

AkIndex::UpdateStats AkIndex::AddEdgeBaseline(NodeId u, NodeId v) {
  UpdateStats stats;
  graph_->AddEdge(u, v);
  if (k_ == 0) {
    // "In case of the A(0) index, the index graph remains unchanged" —
    // label-split extents are insensitive to edges; only adjacency updates.
    index_.AddIndexEdge(index_.index_of(u), index_.index_of(v));
    return stats;
  }

  // Step 1: carve v out into a fresh singleton index node.
  IndexNodeId old_v = index_.index_of(v);
  std::vector<IndexNodeId> affected;
  IndexNodeId new_v;
  if (index_.extent(old_v).size() > 1) {
    new_v = index_.SplitOff(old_v, {v});
    ++stats.index_nodes_created;
    affected = {old_v, new_v};
  } else {
    new_v = old_v;
    affected = {old_v};
  }
  index_.RecomputeEdgesLocal(affected);  // picks up the new u -> v edge

  if (k_ <= 1) return stats;  // 1-bisimilarity of descendants is unaffected

  // Step 2: propagate re-stabilization over index children to distance k-1.
  std::deque<std::pair<IndexNodeId, int>> queue;
  std::set<IndexNodeId> enqueued;
  auto enqueue_children = [&](IndexNodeId node, int depth) {
    for (IndexNodeId c : index_.children(node)) {
      if (enqueued.insert(c).second) queue.emplace_back(c, depth);
    }
  };
  enqueue_children(new_v, 1);
  if (new_v != old_v) enqueue_children(old_v, 1);

  while (!queue.empty()) {
    auto [x, depth] = queue.front();
    queue.pop_front();
    // Allow re-enqueueing after later splits of other parents; the total
    // number of splits (and hence re-enqueues) is bounded by the extent
    // sizes, so this terminates.
    enqueued.erase(x);

    // Re-partition extent(x) by the members' current parent index nodes —
    // the Succ-splitting of the propagate strategy, referring to the data
    // graph.
    ++stats.index_nodes_repartitioned;
    stats.data_parent_scans +=
        static_cast<int64_t>(index_.extent(x).size());
    std::vector<IndexNodeId> parts = index_.SplitByParentSignature(x);
    if (parts.size() <= 1) continue;  // stable: stop propagating from x
    stats.index_nodes_created += static_cast<int64_t>(parts.size()) - 1;
    index_.RecomputeEdgesLocal(parts);
    if (depth + 1 <= k_ - 1) {
      for (IndexNodeId part : parts) enqueue_children(part, depth + 1);
    }
  }
  return stats;
}

}  // namespace dki
