#ifndef DKINDEX_INDEX_ONE_INDEX_H_
#define DKINDEX_INDEX_ONE_INDEX_H_

#include "graph/data_graph.h"
#include "index/index_graph.h"

namespace dki {

// The 1-index of Milo & Suciu: index nodes are full-bisimulation equivalence
// classes; sound and safe for path expressions of any length. Serves as the
// accuracy baseline and as the D(k) special case with k = infinity.
class OneIndex {
 public:
  // Builds the 1-index over `graph` (borrowed; must outlive the result):
  // BuildDkPartition with IndexGraph::kInfiniteSimilarity on every label,
  // refined to its fixpoint on the sequential engine. The parallel engine
  // did not pay here (bench/construction's 1-index lane sweep).
  static IndexGraph Build(const DataGraph* graph);
};

}  // namespace dki

#endif  // DKINDEX_INDEX_ONE_INDEX_H_
