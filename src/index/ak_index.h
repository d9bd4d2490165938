#ifndef DKINDEX_INDEX_AK_INDEX_H_
#define DKINDEX_INDEX_AK_INDEX_H_

#include <cstdint>

#include "graph/data_graph.h"
#include "index/build_options.h"
#include "index/index_graph.h"

namespace dki {

// The A(k)-index of Kaushik et al. (ICDE 2002): index nodes are
// k-bisimulation equivalence classes, the same local similarity k for every
// node. Safe for all path expressions; sound for expressions of length <= k.
//
// Also carries the edge-addition update baseline used by the paper's Section
// 6.2 comparison: a variant of the 1-index *propagate* algorithm (Kaushik et
// al., VLDB 2002) that splits the target node out and re-partitions
// descendant extents against the data graph up to distance k-1.
class AkIndex {
 public:
  // Builds the A(k)-index over `*graph`: BuildDkPartition with requirement
  // k on every label. The graph is borrowed and mutable: AddEdgeBaseline()
  // inserts edges into it. `options.num_threads` selects the refinement
  // engine; both engines produce the identical index.
  static AkIndex Build(DataGraph* graph, int k,
                       const BuildOptions& options = {});

  AkIndex(const AkIndex&) = default;
  AkIndex& operator=(const AkIndex&) = default;
  AkIndex(AkIndex&&) = default;
  AkIndex& operator=(AkIndex&&) = default;

  int k() const { return k_; }
  const IndexGraph& index() const { return index_; }
  IndexGraph* mutable_index() { return &index_; }

  // Statistics of the last AddEdgeBaseline call (reset per call).
  struct UpdateStats {
    int64_t index_nodes_repartitioned = 0;
    int64_t index_nodes_created = 0;
    int64_t data_parent_scans = 0;  // data nodes whose parent lists were read
  };

  // The propagate-style edge-addition update: adds the data edge u -> v to
  // the graph and incrementally restabilizes the index.
  //   1. Split v out of its index node into a fresh singleton node.
  //   2. BFS over index children up to distance k-1, re-partitioning each
  //      visited extent by its members' parent index nodes (touching the
  //      data graph); stop propagating from nodes that did not split.
  // The resulting index stays safe and sound for queries of length <= k, and
  // only ever grows — the behavior Figures 6/7 of the paper measure.
  UpdateStats AddEdgeBaseline(NodeId u, NodeId v);

 private:
  AkIndex(DataGraph* graph, int k, IndexGraph index);

  DataGraph* graph_;
  int k_;
  IndexGraph index_;
};

}  // namespace dki

#endif  // DKINDEX_INDEX_AK_INDEX_H_
